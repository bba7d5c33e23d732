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
from .groups import GroupType, _is_int
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
    the set of elements whose i-th coordinate is divisible by ei.  The
    greedy vector is (1, ..., 1) followed by a divisor chain, so it is the
    top-aligned vector of its nonunit entries.
    """
    n = group.order
    if not _is_int(d) or d < 2 or d > n or n % d:
        raise InvalidIndex(f"index {d!r} is not a divisor of {n} in [2, {n}]")
    rem = d
    evec = [1] * group.rank
    for i in reversed(range(group.rank)):
        e = math.gcd(group.factors[i], rem)
        evec[i] = e
        rem //= e
    return _top_aligned_spec(group, tuple(e for e in evec if e > 1))


def quotient_type_feasible(group: GroupType, quotient_factors: Sequence[int]) -> bool:
    """Whether the given invariant-factor tuple occurs as a quotient type.

    Aligning largest factor with largest factor, (d1, ..., dt) is a quotient
    type of (n1, ..., nr) exactly when t <= r and di | n_{r-t+i} for all i.
    """
    ds = tuple(quotient_factors)
    t = len(ds)
    if t == 0 or t > group.rank:
        return False
    if any(not _is_int(x) or x < 2 for x in ds):
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
    return _top_aligned_spec(group, ds)


def _top_aligned_spec(group: GroupType, ds: tuple[int, ...]) -> QuotientSpec:
    """QuotientSpec of a type already known to be feasible; checks nothing."""
    evec = (1,) * (group.rank - len(ds)) + ds
    return QuotientSpec(group, evec, GroupType(ds), math.prod(ds))


def lift_preimage(spec: QuotientSpec, subset: GroupSubset) -> GroupSubset:
    """Full preimage of a quotient subset; its size is |B| * n / d."""
    if subset.group != spec.quotient:
        raise SpecMismatch(f"subset lives in {subset.group}, quotient is {spec.quotient}")
    return GroupSubset(spec.parent, _lift_bits(spec, subset.bits))


def _lift_bits(spec: QuotientSpec, bits: int) -> int:
    """Mask of the full preimage of a quotient mask; checks nothing.

    Coordinates are expanded from the lowest up.  Before coordinate i each
    run of low * e_i bits (low = f_1 * ... * f_(i-1)) holds one value of
    the quotient digits above i; it becomes low * f_i bits by one
    multiplication with the repunit that repeats it f_i / e_i times.
    """
    low = 1
    for f, e in zip(spec.parent.factors, spec.divisor_vector):
        if e != f:
            run, wide = low * e, low * f
            repunit = ((1 << wide) - 1) // ((1 << run) - 1)
            keep = (1 << run) - 1
            spread = 0
            shift = 0
            while bits:
                spread |= (bits & keep) * repunit << shift
                bits >>= run
                shift += wide
            bits = spread
        low *= f
    return bits


def kernel_subset(spec: QuotientSpec) -> GroupSubset:
    """The kernel of the projection as a parent subset."""
    return GroupSubset(spec.parent, _lift_bits(spec, 1))


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
