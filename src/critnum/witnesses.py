"""Constructions of extremal sets, returned as self-verified certificates.

Two families are built here.  The h-fold witnesses realize the largest
generating h-incomplete sets (showing the generating restriction does not
change the h-fold critical number), by a recursion that mirrors the
inductive proof: lift a witness through a quotient when a proper divisor
attains the size bound, and otherwise build an explicit interval or
product-of-blocks set.  The interval bound witnesses realize the coset
lower bound for the generating interval critical number: a small pattern
in a quotient, pulled back to the full group.

Constructors are fail-closed: every certificate is checked by actually
recomputing size, generation, and incompleteness before it is returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ConditionViolated, ConstructionInvariantViolated
from .formulas import _check_h, _check_s, divisor_bound, max_incomplete_divisors
from .groups import GroupType, divisors, is_prime
from .quotients import (
    closure_bits,
    lift_preimage,
    quotient_spec,
    spec_for_quotient_type,
)
from .sumsets import GroupSubset, hfold_bits, interval_bits, layout_for, translate_bits


@dataclass(frozen=True)
class WitnessCertificate:
    """An extremal set together with recomputed check results."""

    group: GroupType
    mode: str  # "hfold" or "interval"
    param: int
    subset: GroupSubset
    claimed_size: int
    generates: bool
    incomplete: bool
    branch: str

    def to_json_dict(self) -> dict:
        return {
            "group": str(self.group),
            "mode": self.mode,
            "param": self.param,
            "size": self.claimed_size,
            "elements": self.subset.to_element_list(),
            "generates": self.generates,
            "incomplete": self.incomplete,
            "branch": self.branch,
        }


@dataclass(frozen=True)
class BoundCertificate:
    """A lower-bound certificate: quotient pattern, bound, and witness.

    The trivial certificate (bound 1, no witness) is returned when no
    quotient pattern satisfies the bound's hypothesis; check flags are
    None in that case.
    """

    group: GroupType
    s: int
    quotient_type: tuple[int, ...]
    c_vector: tuple[int, ...]
    bound: int
    witness: GroupSubset | None
    generates: bool | None
    incomplete: bool | None

    @property
    def is_trivial(self) -> bool:
        return self.witness is None

    def to_json_dict(self) -> dict:
        return {
            "group": str(self.group),
            "s": self.s,
            "quotient_type": list(self.quotient_type),
            "c_vector": list(self.c_vector),
            "bound": self.bound,
            "elements": None if self.witness is None else self.witness.to_element_list(),
            "generates": self.generates,
            "incomplete": self.incomplete,
        }


def _hfold_witness_bits(group: GroupType, h: int) -> tuple[int, str]:
    n = group.order
    _, maximizers = max_incomplete_divisors(n, h)
    proper = [d for d in maximizers if d < n]
    if proper:
        # A proper divisor attains the bound: recurse in the quotient of
        # that index and take the full preimage of the inner witness.
        spec = quotient_spec(group, min(proper))
        inner = hfold_witness(spec.quotient, h)
        return lift_preimage(spec, inner.subset).bits, "quotient"
    if is_prime(n):
        top = (n - 2) // h + 1
        return ((1 << top) - 1) << 1, "prime"
    # Composite with the bound attained only at d = n.  The divisibility
    # argument forces h | (ni - 1) for every invariant factor; the witness
    # is a union of blocks, one per coordinate.
    for f in group.factors:
        if (f - 1) % h:
            raise ConstructionInvariantViolated(
                f"factor {f} of {group} violates the divisibility h | (factor - 1) for h={h}"
            )
    bits = 0
    rank = group.rank
    for i, f in enumerate(group.factors):
        tail = (0,) * (rank - i - 1)
        prefix_ranges = [range(x) for x in group.factors[:i]]
        for prefix in itertools.product(*prefix_ranges):
            for y in range(1, (f - 1) // h + 1):
                bits |= 1 << group.encode(prefix + (y,) + tail)
    return bits, "product"


def hfold_witness(group: GroupType, h: int) -> WitnessCertificate:
    """A largest generating h-incomplete subset, verified before return.

    The set has size equal to the divisor-bound maximum for (n, h); it
    generates the group, and its h-fold sumset misses at least one element.
    """
    _check_h(h)
    bits, branch = _hfold_witness_bits(group, h)
    subset = GroupSubset(group, bits)
    expected, _ = max_incomplete_divisors(group.order, h)
    layout = layout_for(group)
    generates = closure_bits(layout, bits) == layout.full
    incomplete = hfold_bits(layout, bits, h) != layout.full
    if subset.size != expected or not generates or not incomplete:
        raise ConstructionInvariantViolated(
            f"h-fold witness for {group}, h={h} failed verification: "
            f"size {subset.size} vs {expected}, generates={generates}, incomplete={incomplete}"
        )
    return WitnessCertificate(group, "hfold", h, subset, expected, generates, incomplete, branch)


def interval_witness(group: GroupType, s: int) -> WitnessCertificate:
    """A largest interval-incomplete subset (unrestricted variant).

    Translating an h-fold witness so that it contains zero turns it into
    an interval witness of the same size: with 0 in the set, the interval
    sumset collapses onto the top fold.
    """
    _check_s(s)
    base = hfold_witness(group, s)
    anchor = base.subset.indices()[0]
    layout = layout_for(group)
    neg = layout.neg_index[anchor]
    bits = translate_bits(layout, base.subset.bits, neg)
    subset = GroupSubset(group, bits)
    incomplete = interval_bits(layout, bits, s) != layout.full
    generates = closure_bits(layout, bits) == layout.full
    if subset.size != base.claimed_size or not incomplete:
        raise ConstructionInvariantViolated(
            f"interval witness for {group}, s={s} failed verification"
        )
    return WitnessCertificate(group, "interval", s, subset, subset.size, generates, incomplete, "translate")


def interval_bound_witness(
    group: GroupType,
    quotient_type: tuple[int, ...],
    c_vector: tuple[int, ...],
    s: int,
) -> BoundCertificate:
    """Certificate for the coset lower bound on the generating interval value.

    Given a quotient of type (d1, ..., dt) and counts 1 <= ci <= di - 1
    with sum(ceil((di-1)/ci)) >= s+1, the union of the zero coset with ci
    "unit direction" cosets per coordinate generates the group while its
    interval sumset stays incomplete, giving the bound (1 + sum(ci)) * n/d + 1.
    """
    _check_s(s)
    ds = tuple(quotient_type)
    cs = tuple(c_vector)
    spec = spec_for_quotient_type(group, ds)
    if len(cs) != len(ds):
        raise ConditionViolated(f"c-vector {cs!r} does not match quotient type {ds!r}")
    for c, d in zip(cs, ds):
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= d - 1:
            raise ConditionViolated(f"count {c!r} outside [1, {d - 1}]")
    if sum((d - 1 + c - 1) // c for c, d in zip(cs, ds)) < s + 1:
        raise ConditionViolated(
            f"ceiling condition fails for type {ds}, counts {cs}, interval length {s}"
        )
    quotient = spec.quotient
    pattern_bits = 1
    for i, c in enumerate(cs):
        base = (0,) * i
        tail = (0,) * (len(ds) - i - 1)
        for y in range(1, c + 1):
            pattern_bits |= 1 << quotient.encode(base + (y,) + tail)
    witness = lift_preimage(spec, GroupSubset(quotient, pattern_bits))
    n = group.order
    bound = (1 + sum(cs)) * (n // spec.index) + 1
    layout = layout_for(group)
    generates = closure_bits(layout, witness.bits) == layout.full
    incomplete = interval_bits(layout, witness.bits, s) != layout.full
    if witness.size != bound - 1 or not generates or not incomplete:
        raise ConstructionInvariantViolated(
            f"bound witness for {group}, type {ds}, counts {cs}, s={s} failed verification: "
            f"size {witness.size} vs {bound - 1}, generates={generates}, incomplete={incomplete}"
        )
    return BoundCertificate(group, s, ds, cs, bound, witness, generates, incomplete)


def _feasible_quotient_types(group: GroupType):
    """All invariant-factor tuples realizable as quotients, all lengths."""
    r = group.rank
    for t in range(1, r + 1):
        slots = group.factors[r - t:]

        def rec(i: int, upper: int):
            cap = slots[i] if upper == 0 else math.gcd(slots[i], upper)
            for e in divisors(cap):
                if e < 2:
                    continue
                if i == 0:
                    yield (e,)
                else:
                    for rest in rec(i - 1, e):
                        yield rest + (e,)

        yield from rec(t - 1, 0)


def best_interval_bound(group: GroupType, s: int) -> BoundCertificate:
    """Search all quotient patterns for the best coset lower bound.

    Ties are broken toward the smallest quotient order, then the smallest
    c-vector, so results are deterministic.  When no pattern satisfies the
    hypothesis the trivial certificate (bound 1, no witness) is returned.
    """
    _check_s(s)
    n = group.order
    best_key = None
    best = None
    for ds in _feasible_quotient_types(group):
        d = math.prod(ds)
        cosets = n // d
        for cs in itertools.product(*[range(1, di) for di in ds]):
            if sum((di - 1 + ci - 1) // ci for ci, di in zip(cs, ds)) < s + 1:
                continue
            bound = (1 + sum(cs)) * cosets + 1
            key = (-bound, d, cs, ds)
            if best_key is None or key < best_key:
                best_key = key
                best = (ds, cs)
    if best is None:
        return BoundCertificate(group, s, (), (), 1, None, None, None)
    return interval_bound_witness(group, best[0], best[1], s)
