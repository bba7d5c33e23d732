"""Quotients, generated subgroups, and preimage lifting.

A quotient of index d is described by a per-coordinate divisor vector
(e1, ..., er) with ei | ni and prod(ei) = d; the projection reduces the
i-th coordinate mod ei and drops coordinates with ei = 1.  For a divisor
chain group every divisor d of the order is realizable this way, and the
greedy choice below (absorb as much of d as possible into the last factor,
then work down) always lands on a valid invariant-factor chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidIndex, QuotientUnavailable, SpecMismatch
from .groups import GroupType
from .sumsets import GroupSubset, Layout, layout_for, translate_bits


@dataclass(frozen=True)
class QuotientSpec:
    """A concrete surjection from a parent group onto a quotient type."""

    parent: GroupType
    divisor_vector: tuple[int, ...]
    quotient: GroupType
    index: int


def quotient_spec(group: GroupType, d: int) -> QuotientSpec:
    """Quotient of index d, chosen greedily from the top coordinate down.

    Requires 2 <= d <= n and d | n (InvalidIndex otherwise).  The kernel is
    the set of elements whose i-th coordinate is divisible by ei.
    """
    n = group.order
    if not isinstance(d, int) or isinstance(d, bool) or d < 2 or d > n or n % d:
        raise InvalidIndex(f"index {d!r} is not a divisor of {n} in [2, {n}]")
    rem = d
    evec = [1] * group.rank
    for i in reversed(range(group.rank)):
        e = math.gcd(group.factors[i], rem)
        evec[i] = e
        rem //= e
    if rem != 1:
        raise InvalidIndex(f"index {d} is not realizable in group {group}")
    return _spec_from_vector(group, tuple(evec))


def _spec_from_vector(group: GroupType, evec: tuple[int, ...]) -> QuotientSpec:
    if len(evec) != group.rank:
        raise InvalidIndex(f"divisor vector {evec!r} has wrong length for {group}")
    for e, f in zip(evec, group.factors):
        if not isinstance(e, int) or e < 1 or f % e:
            raise InvalidIndex(f"entry {e!r} does not divide factor {f}")
    nonunit = [e for e in evec if e > 1]
    if not nonunit:
        raise InvalidIndex("divisor vector describes the trivial quotient")
    if any(nonunit[i + 1] % nonunit[i] for i in range(len(nonunit) - 1)):
        raise InvalidIndex(f"nonunit entries of {evec!r} do not form a divisor chain")
    return QuotientSpec(group, evec, GroupType(tuple(nonunit)), math.prod(evec))


def quotient_type_feasible(group: GroupType, quotient_factors: Sequence[int]) -> bool:
    """Whether the given invariant-factor tuple occurs as a quotient type.

    Aligning largest factor with largest factor, (d1, ..., dt) is a quotient
    type of (n1, ..., nr) exactly when t <= r and di | n_{r-t+i} for all i.
    """
    ds = tuple(quotient_factors)
    t = len(ds)
    if t == 0 or t > group.rank:
        return False
    if any(not isinstance(x, int) or x < 2 for x in ds):
        return False
    if any(ds[i + 1] % ds[i] for i in range(t - 1)):
        return False
    offset = group.rank - t
    return all(group.factors[offset + i] % ds[i] == 0 for i in range(t))


def spec_for_quotient_type(group: GroupType, quotient_factors: Sequence[int]) -> QuotientSpec:
    """QuotientSpec realizing a requested quotient type, top-aligned."""
    ds = tuple(quotient_factors)
    if not quotient_type_feasible(group, ds):
        raise QuotientUnavailable(f"{ds!r} is not a quotient type of {group}")
    evec = (1,) * (group.rank - len(ds)) + ds
    return _spec_from_vector(group, evec)


def project(spec: QuotientSpec, element: Sequence[int]) -> tuple[int, ...]:
    """Image of a parent element under the quotient map."""
    coords = spec.parent.check_element(element)
    return tuple(c % e for c, e in zip(coords, spec.divisor_vector) if e > 1)


def project_index(spec: QuotientSpec, index: int) -> int:
    return spec.quotient.encode(project(spec, spec.parent.decode(index)))


def project_subset(spec: QuotientSpec, subset: GroupSubset) -> GroupSubset:
    """Support of the image of a parent subset in the quotient."""
    if subset.group != spec.parent:
        raise SpecMismatch(f"subset lives in {subset.group}, spec projects from {spec.parent}")
    return GroupSubset.from_indices(spec.quotient, (project_index(spec, i) for i in subset.indices()))


def lift_preimage(spec: QuotientSpec, subset: GroupSubset) -> GroupSubset:
    """Full preimage of a quotient subset; its size is |B| * n / d."""
    if subset.group != spec.quotient:
        raise SpecMismatch(f"subset lives in {subset.group}, quotient is {spec.quotient}")
    # proj[i] is the quotient index of parent index i, built one coordinate
    # at a time with the first coordinate varying fastest.
    proj = [0]
    qstride = 1
    for f, e in zip(spec.parent.factors, spec.divisor_vector):
        proj = [(c % e) * qstride + low for c in range(f) for low in proj]
        qstride *= e
    digit = format(subset.bits, f"0{spec.index}b")[::-1]
    return GroupSubset(spec.parent, int("".join([digit[q] for q in reversed(proj)]), 2))


def kernel_subset(spec: QuotientSpec) -> GroupSubset:
    """The kernel of the projection as a parent subset."""
    zero = GroupSubset.from_indices(spec.quotient, [0])
    return lift_preimage(spec, zero)


def closure_bits(layout: Layout, bits: int) -> int:
    """Mask of the subgroup generated by the elements of a mask.

    Starting from H = {0}, each element g of the mask not yet in H is
    absorbed by doubling: M <- M | (M + step), step <- 2*step, so after t
    rounds M = H + {0, ..., 2^t - 1}g.  An arc of fewer than ord(g mod H)
    cosets is invariant under no nonzero shift, so a round that adds
    nothing means M = H + <g>.  That is O(log n) translations per element
    that grows H, and H grows at most log2(n) times.
    """
    sub = 1
    x = bits & ~1
    while x:
        step = (x & -x).bit_length() - 1
        while True:
            grown = sub | translate_bits(layout, sub, step)
            if grown == sub:
                break
            sub = grown
            step = translate_bits(layout, 1 << step, step).bit_length() - 1
        x &= ~sub
    return sub


def subgroup_generated(subset: GroupSubset) -> GroupSubset:
    """The subgroup generated by a subset; the empty set generates {0}."""
    return GroupSubset(subset.group, closure_bits(layout_for(subset.group), subset.bits))


def is_generating(subset: GroupSubset) -> bool:
    layout = layout_for(subset.group)
    return closure_bits(layout, subset.bits) == layout.full
