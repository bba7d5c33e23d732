"""Constructions of extremal sets, returned as self-verified certificates.

Two families are built here.  The h-fold witnesses realize the largest
generating h-incomplete sets (showing the generating restriction does not
change the h-fold critical number): a union of blocks, one per coordinate,
in the quotient whose index is the least divisor attaining the size bound.
The interval witnesses are those sets translated to hold zero: the same
blocks with the first one moved down by one.  The interval bound witnesses
realize the coset lower bound for the generating interval critical number:
a small pattern in a quotient.  Each pattern is lifted to the full group
once, by `quotients._lift_bits`.

Constructors are fail-closed: every certificate, and the oracle search's
witness, passes one check, `_verified`, which recomputes size,
generation, and incompleteness with the kernels before it is returned.
Each builder checks only the set it returns, once.

Arguments are checked once, by the public functions.  The private cores
under the builders (`_hfold_witness_bits`, `_bound_certificate`) take
checked arguments and re-run no public guard on them; `_verified` checks
the set they return.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .errors import ConditionViolated, ConstructionInvariantViolated
from .formulas import _check_h, _check_s, _divisor_max
from .groups import GroupType, _is_int, divisors, is_prime
from .quotients import (
    QuotientSpec,
    _lift_bits,
    _top_aligned_spec,
    closure_bits,
    quotient_spec,
    spec_for_quotient_type,
)
from .sumsets import GroupSubset, Layout, hfold_bits, interval_bits, layout_for


class WitnessCertificate(
    namedtuple("WitnessCertificate", "group mode param subset claimed_size generates incomplete branch")
):
    """An extremal set together with recomputed check results; mode is "hfold" or "interval"."""

    __slots__ = ()

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


class BoundCertificate(
    namedtuple("BoundCertificate", "group s quotient_type c_vector bound witness generates incomplete")
):
    """A lower-bound certificate: quotient pattern, bound, and witness.

    The trivial certificate (bound 1, no witness) is returned when no
    quotient pattern satisfies the bound's hypothesis; check flags are
    None in that case.
    """

    __slots__ = ()

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


def _verified(builder: str, layout: Layout, bits: int, size: int, expansion: int,
              *, generating: bool, zero_free: bool = False) -> bool:
    """Fail closed: recompute a built set's size, generation and incompleteness.

    `expansion` is the mask of the set's sumset, computed by the caller with
    a kernel.  Raises ConstructionInvariantViolated naming the builder when
    the size is wrong, the expansion covers the group, the set must
    generate and does not, or it must leave out zero and holds it;
    otherwise returns whether the set generates.
    """
    generates = closure_bits(layout, bits) == layout.full
    incomplete = expansion != layout.full
    if (bits.bit_count() != size or not incomplete or (generating and not generates)
            or (zero_free and bits & 1)):
        raise ConstructionInvariantViolated(
            f"{builder} for {GroupType(layout.factors)} failed verification: size {bits.bit_count()} vs "
            f"{size}, generates={generates}, incomplete={incomplete}, holds zero={bool(bits & 1)}"
        )
    return generates


def _hfold_witness_bits(group: GroupType, h: int, first: int) -> tuple[int, int, str]:
    """Mask, size and branch of a largest h-incomplete set.

    The set is built in the quotient whose index d is the least divisor
    attaining the divisor bound (the group itself when d = n) and lifted as
    a full preimage.  One level is enough: a proper divisor of d attaining
    the bound for order d would attain it for n.  The set is a union of
    runs of flat indices, one per coordinate i: x_i in 1..(f_i - 2)//h + 1,
    lower coordinates free, higher ones zero (for d not prime the divisibility
    argument gives h | f_i - 1, so x_i runs over 1..(f_i - 1)/h).  The first
    block starts at x_1 = `first`: 1 gives a generating set, 0 its translate
    by -e_1, which moves only the first block as the others leave x_1 free.
    """
    size, maximizers = _divisor_max(group.order, h, 1)
    d = min(maximizers)
    spec = quotient_spec(group, d) if d < group.order else None
    bits, stride = 0, 1
    for f in (spec.quotient if spec else group).factors:
        bits |= ((1 << ((f - 2) // h + 1) * stride) - 1) << (stride if bits else first)
        stride *= f
    if spec is None:
        return bits, size, "prime" if is_prime(d) else "product"
    return _lift_bits(spec, bits), size, "quotient"


def hfold_witness(group: GroupType, h: int) -> WitnessCertificate:
    """A largest generating h-incomplete subset, verified before return.

    The set has size equal to the divisor-bound maximum for (n, h); it
    generates the group, and its h-fold sumset misses at least one element.
    """
    _check_h(h)
    bits, size, branch = _hfold_witness_bits(group, h, 1)
    layout = layout_for(group)
    _verified(f"hfold_witness(h={h})", layout, bits, size, hfold_bits(layout, bits, h), generating=True)
    return WitnessCertificate(group, "hfold", h, GroupSubset(group, bits), size, True, True, branch)


def interval_witness(group: GroupType, s: int) -> WitnessCertificate:
    """A largest interval-incomplete subset (unrestricted variant).

    It is the set `hfold_witness` builds, translated to hold zero (branch
    "translate"), built with its first block starting at 0: with 0 in the
    set, the interval sumset collapses onto the top fold.  The certificate
    checks its size and incompleteness and reports whether it generates.
    """
    _check_s(s)
    bits, size, _ = _hfold_witness_bits(group, s, 0)
    layout = layout_for(group)
    expansion = interval_bits(layout, bits, s)
    generates = _verified(f"interval_witness(s={s})", layout, bits, size, expansion, generating=False)
    return WitnessCertificate(group, "interval", s, GroupSubset(group, bits), size, generates, True, "translate")


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
        if not _is_int(c) or not 1 <= c <= d - 1:
            raise ConditionViolated(f"count {c!r} outside [1, {d - 1}]")
    if sum((d - 1 + c - 1) // c for c, d in zip(cs, ds)) < s + 1:
        raise ConditionViolated(
            f"ceiling condition fails for type {ds}, counts {cs}, interval length {s}"
        )
    return _bound_certificate(spec, cs, s)


def _bound_certificate(spec: QuotientSpec, cs: tuple[int, ...], s: int) -> BoundCertificate:
    """The bound certificate of checked counts on a feasible quotient."""
    group, ds = spec.parent, spec.quotient.factors
    # The pattern is {0} and y*e_i for 1 <= y <= ci; e_i has flat index
    # stride_i = d1*...*d(i-1) in the quotient.
    pattern = 1
    stride = 1
    for c, d in zip(cs, ds):
        pattern |= sum(1 << y * stride for y in range(1, c + 1))
        stride *= d
    bits = _lift_bits(spec, pattern)
    bound = (1 + sum(cs)) * (group.order // spec.index) + 1
    builder = f"interval_bound_witness(type={ds}, counts={cs}, s={s})"
    layout = layout_for(group)
    _verified(builder, layout, bits, bound - 1, interval_bits(layout, bits, s), generating=True)
    return BoundCertificate(group, s, ds, cs, bound, GroupSubset(group, bits), True, True)


def _count_options(d: int) -> list[tuple[int, int]]:
    """Pairs (c, ceil((d-1)/c)) for the largest c in [1, d-1] with each ceiling.

    A smaller c with the same ceiling meets the same hypothesis with a
    smaller bound, so only these c can be best.  Listed by increasing c.
    """
    top = d - 1
    options = []
    c = top
    while c >= 1:
        u = -(-top // c)
        options.append((c, u))
        # the largest c with a ceiling above u
        c = (top - 1) // u
    return options[::-1]


@functools.lru_cache(maxsize=1024)
def _best_counts(ds: tuple[int, ...], need: int) -> tuple[int, tuple[int, ...]] | None:
    """The least key (-sum(cs), cs) over c-vectors meeting the hypothesis.

    The hypothesis is sum(ceil((di-1)/ci)) >= need with 1 <= ci <= di - 1.
    The recursion runs over the first coordinate and the need left for the
    rest: a tail that is best for its remaining need is best within every
    vector that ends in it.  Returns None when no vector meets the
    hypothesis.
    """
    if not ds:
        return (0, ()) if need == 0 else None
    keys = []
    for c, u in _count_options(ds[0]):
        rest = _best_counts(ds[1:], max(need - u, 0))
        if rest is not None:
            keys.append((rest[0] - c, (c,) + rest[1]))
    return min(keys, default=None)


def best_interval_bound(group: GroupType, s: int) -> BoundCertificate:
    """Search all quotient patterns for the best coset lower bound.

    Candidate quotient types (d1, ..., dt) take each di from the divisors of
    the t top invariant factors, so each di divides its aligned factor and
    a type is feasible exactly when it is a divisor chain.  The best bound
    wins; ties are broken toward the smallest quotient order, then the
    smallest c-vector, then the smallest type, a total order, so results
    are deterministic.  For each type only the c-vector of largest sum can
    win, and of those the least one, which `_best_counts` finds without
    listing every c-vector.  When no pattern satisfies the hypothesis the
    trivial certificate (bound 1, no witness) is returned.
    """
    _check_s(s)
    n = group.order
    best = None
    for t in range(1, group.rank + 1):
        slots = [divisors(f)[1:] for f in group.factors[-t:]]
        for ds in itertools.product(*slots):
            if any(ds[i + 1] % ds[i] for i in range(t - 1)):
                continue
            found = _best_counts(ds, s + 1)
            if found is None:
                continue
            cs = found[1]
            d = math.prod(ds)
            bound = (1 + sum(cs)) * (n // d) + 1
            key = (-bound, d, cs, ds)
            if best is None or key < best:
                best = key
    if best is None:
        return BoundCertificate(group, s, (), (), 1, None, None, None)
    return _bound_certificate(_top_aligned_spec(group, best[3]), best[2], s)
