"""Extremal-set constructions and quotient-coset lower-bound certificates."""

import itertools
import math

import pytest

from critnum import (
    ConditionViolated,
    ConstructionInvariantViolated,
    GroupSubset,
    GroupType,
    InvalidDivisor,
    InvalidH,
    InvalidIndex,
    InvalidOrder,
    InvalidS,
    QuotientUnavailable,
    abelian_types,
    best_interval_bound,
    cyclic,
    divisor_bound,
    generating_interval_critical_two_group,
    generating_interval_cyclic_divisors,
    hfold_sumset,
    hfold_witness,
    interval_bound_witness,
    interval_sumset,
    interval_witness,
    is_complete,
    is_generating,
    max_incomplete_divisors,
    max_incomplete_size,
    quotient_spec,
    spec_for_quotient_type,
    subgroup_generated,
)
from critnum import witnesses
from critnum.groups import divisors
from critnum.quotients import quotient_type_feasible


def test_hfold_witness_prime_branch():
    cert = hfold_witness(cyclic(7), 2)
    assert set(cert.subset.indices()) == {1, 2, 3}
    assert cert.branch == "prime"
    assert cert.claimed_size == 3
    assert cert.generates and cert.incomplete


def test_hfold_witness_product_branch():
    cert = hfold_witness(cyclic(9), 2)
    assert set(cert.subset.indices()) == {1, 2, 3, 4}
    assert cert.branch == "product"


def test_product_branch_matches_coordinate_definition():
    # coordinate i in 1..(fi-1)/h, lower coordinates free, higher ones zero
    cases = 0
    for n in range(2, 65):
        for g in abelian_types(n):
            for h in range(1, 9):
                cert = hfold_witness(g, h)
                if cert.branch != "product":
                    continue
                cases += 1
                want = set()
                for idx in range(n):
                    x = g.decode(idx)
                    for i, f in enumerate(g.factors):
                        if 1 <= x[i] <= (f - 1) // h and not any(x[i + 1:]):
                            want.add(idx)
                assert set(cert.subset.indices()) == want, (g, h)
    assert cases == 125


def test_hfold_witness_quotient_branch():
    g = GroupType((2, 4))
    cert = hfold_witness(g, 3)
    assert cert.branch == "quotient"
    assert cert.claimed_size == 4
    # preimage of the inner witness under reduction of the top coordinate
    assert set(cert.subset.elements()) == {(0, 1), (1, 1), (0, 3), (1, 3)}


def test_hfold_witness_tiny_group():
    cert = hfold_witness(cyclic(2), 5)
    assert set(cert.subset.indices()) == {1}
    assert cert.claimed_size == 1


def test_hfold_witness_grid_consistency():
    # the full desk-scale grid runs in the acceptance suite
    for n in range(2, 33):
        for g in abelian_types(n):
            for h in (1, 2, 3, 5):
                cert = hfold_witness(g, h)
                assert cert.claimed_size == max_incomplete_size(n, h)
                assert cert.subset.size == cert.claimed_size
                assert is_generating(cert.subset)
                assert not is_complete(hfold_sumset(cert.subset, h))


LADDER = [GroupType(f) for f in ((4096,), (2, 2048), (2, 4096), (16384,))]


def test_interval_witness_contains_zero():
    # the h-fold witness translated by minus its lowest element, computed
    # here through the public GroupType API, a derivation independent of
    # the builder's
    for g in [t for n in range(2, 65) for t in abelian_types(n)] + LADDER:
        n = g.order
        for s in range(1, 9):
            cert = interval_witness(g, s)
            assert cert.branch == "translate"
            assert cert.subset.contains_index(0)
            assert cert.claimed_size == max_incomplete_size(n, s)
            assert not is_complete(interval_sumset(cert.subset, s))
            hfold = hfold_witness(g, s).subset
            low = g.decode(min(hfold.indices()))
            assert cert.subset == hfold.translated(g.neg(low)), (g, s)


# Arguments of the wrong type or out of range, for each public function on
# the certificate path; the private cores under them check nothing again.
GUARD_CASES = {
    **{
        f"{builder.__name__}-{arg!r}": (builder, (cyclic(8), arg), error)
        for builder, error in (
            (hfold_witness, InvalidH),
            (interval_witness, InvalidS),
            (best_interval_bound, InvalidS),
        )
        for arg in (True, 2.0, 0)
    },
    "interval_bound_witness-count-True": (
        interval_bound_witness, (cyclic(6), (6,), (True,), 2), ConditionViolated
    ),
    "interval_bound_witness-s-0": (interval_bound_witness, (cyclic(6), (6,), (2,), 0), InvalidS),
    "quotient_spec-True": (quotient_spec, (GroupType((2, 4)), True), InvalidIndex),
    "quotient_spec-2.0": (quotient_spec, (GroupType((2, 4)), 2.0), InvalidIndex),
    "spec_for_quotient_type-2.0": (spec_for_quotient_type, (GroupType((2, 4)), (2.0,)), QuotientUnavailable),
    "max_incomplete_divisors-True": (max_incomplete_divisors, (True, 2), InvalidOrder),
    "max_incomplete_divisors-1": (max_incomplete_divisors, (1, 2), InvalidOrder),
    "max_incomplete_divisors-h-True": (max_incomplete_divisors, (12, True), InvalidH),
    "divisor_bound-2.0": (divisor_bound, (12, 2.0, 2), InvalidDivisor),
    "divisor_bound-h-True": (divisor_bound, (12, 2, True), InvalidH),
    # `divisors` would refuse these orders too, with its own message
    **{
        f"generating_interval_cyclic_divisors-{n!r}": (generating_interval_cyclic_divisors, (n, 2), InvalidOrder)
        for n in (0, -3, True, 2.5)
    },
}
# the guard's own message, where another guard below it would raise the same error
GUARD_MESSAGES = {generating_interval_cyclic_divisors: "order must be an integer >= 1"}


@pytest.mark.parametrize("fn, args, error", GUARD_CASES.values(), ids=GUARD_CASES.keys())
def test_public_guards_on_the_certificate_path(fn, args, error):
    with pytest.raises(error, match=GUARD_MESSAGES.get(fn)):
        fn(*args)
    if fn is spec_for_quotient_type:
        assert quotient_type_feasible(*args) is False


# Sets of Z8 that each break one rule the certificates of Z8 at h = s = 2
# keep: four elements, generating, missing an element of 2A and [0,2]A.
BAD_Z8_SETS = {
    "one-short": [1, 4, 5],
    "complete": [0, 1, 2, 5],
    "non-generating": [0, 2, 4, 6],
}


@pytest.mark.parametrize("indices", BAD_Z8_SETS.values(), ids=BAD_Z8_SETS.keys())
def test_builders_fail_closed(monkeypatch, indices):
    g = cyclic(8)
    bad = GroupSubset.from_indices(g, indices)
    monkeypatch.setattr(witnesses, "_hfold_witness_bits", lambda group, h, first: (bad.bits, 4, "quotient"))
    monkeypatch.setattr(witnesses, "_lift_bits", lambda spec, bits: bad.bits)
    with pytest.raises(ConstructionInvariantViolated, match="hfold_witness"):
        hfold_witness(g, 2)
    with pytest.raises(ConstructionInvariantViolated, match="interval_bound_witness"):
        interval_bound_witness(g, (4,), (1,), 2)
    if indices == BAD_Z8_SETS["non-generating"]:
        # the unrestricted interval certificate only reports generation
        cert = interval_witness(g, 2)
        assert cert.subset == bad and not cert.generates
    else:
        with pytest.raises(ConstructionInvariantViolated, match="interval_witness"):
            interval_witness(g, 2)


def test_least_attaining_divisor_is_alone_in_its_quotient():
    # Why `_hfold_witness_bits` needs one quotient level: for the least d
    # attaining the divisor bound for (n, h), d is the only divisor of d
    # attaining it for (d, h), so the quotient set is built directly.
    for n in range(2, 1001):
        for h in range(1, 11):
            d = min(max_incomplete_divisors(n, h)[1])
            assert max_incomplete_divisors(d, h)[1] == (d,), (n, h)


def test_each_builder_checks_its_set_once(monkeypatch):
    calls = []
    verified = witnesses._verified

    def counted(builder, *args, **kwargs):
        calls.append(builder)
        return verified(builder, *args, **kwargs)

    monkeypatch.setattr(witnesses, "_verified", counted)
    g = GroupType((2, 4))
    cert = hfold_witness(g, 3)
    assert cert.branch == "quotient" and calls == ["hfold_witness(h=3)"]
    calls.clear()
    interval_witness(g, 3)
    assert calls == ["interval_witness(s=3)"]
    calls.clear()
    interval_bound_witness(GroupType((2, 2, 4)), (2, 4), (1, 1), 3)
    assert len(calls) == 1 and calls[0].startswith("interval_bound_witness")


def test_interval_bound_witness_cyclic():
    cert = interval_bound_witness(cyclic(6), (6,), (2,), 2)
    assert cert.bound == 4
    assert set(cert.witness.indices()) == {0, 1, 2}
    assert cert.generates and cert.incomplete
    assert not cert.is_trivial


def test_interval_bound_witness_product():
    g = GroupType((2, 2, 4))
    cert = interval_bound_witness(g, (2, 4), (1, 1), 3)
    assert cert.bound == 7
    assert cert.witness.size == 6
    assert cert.quotient_type == (2, 4)
    assert cert.c_vector == (1, 1)
    assert subgroup_generated(cert.witness).size == g.order
    assert not is_complete(interval_sumset(cert.witness, 3))


def test_interval_bound_witness_conditions():
    g = cyclic(6)
    with pytest.raises(ConditionViolated):
        interval_bound_witness(g, (6,), (2, 1), 2)  # length mismatch
    with pytest.raises(ConditionViolated):
        interval_bound_witness(g, (6,), (0,), 2)
    with pytest.raises(ConditionViolated):
        interval_bound_witness(g, (6,), (6,), 2)
    with pytest.raises(ConditionViolated):
        interval_bound_witness(g, (6,), (5,), 2)  # ceiling sum 1 < 3
    with pytest.raises(QuotientUnavailable):
        interval_bound_witness(cyclic(4), (2, 2), (1, 1), 2)


def test_best_interval_bound_rank_four():
    cert = best_interval_bound(GroupType((2, 2, 2, 2)), 2)
    assert cert.bound == 9
    assert cert.quotient_type == (2, 2, 2)
    assert cert.c_vector == (1, 1, 1)
    assert cert.witness.size == 8
    assert cert.generates and cert.incomplete


def test_bound_pattern_matches_coordinate_definition():
    # the preimage of {0} and y*e_j (1 <= y <= cj) in the top-aligned quotient
    for n in range(2, 17):
        for g in abelian_types(n):
            for s in range(1, 5):
                cert = best_interval_bound(g, s)
                if cert.is_trivial:
                    continue
                ds, cs = cert.quotient_type, cert.c_vector
                want = set()
                for idx in range(n):
                    q = [x % d for x, d in zip(g.decode(idx)[g.rank - len(ds):], ds)]
                    moved = [(j, y) for j, y in enumerate(q) if y]
                    if not moved or (len(moved) == 1 and moved[0][1] <= cs[moved[0][0]]):
                        want.add(idx)
                assert set(cert.witness.indices()) == want, (g, s)


def test_best_interval_bound_matches_enumeration():
    # the literal search: every feasible type, every c-vector meeting the
    # ceiling hypothesis, keyed (-bound, d, cs, ds)
    cases = 0
    for n in range(2, 97):
        for g in abelian_types(n):
            for s in range(1, 8):
                cases += 1
                best = None
                for t in range(1, g.rank + 1):
                    for ds in itertools.product(*[divisors(f)[1:] for f in g.factors[-t:]]):
                        if not quotient_type_feasible(g, ds):
                            continue
                        d = math.prod(ds)
                        for cs in itertools.product(*[range(1, di) for di in ds]):
                            if sum((di - 1 + ci - 1) // ci for ci, di in zip(cs, ds)) >= s + 1:
                                key = (-((1 + sum(cs)) * (n // d) + 1), d, cs, ds)
                                best = key if best is None else min(best, key)
                cert = best_interval_bound(g, s)
                if best is None:
                    assert cert.is_trivial, (g, s)
                else:
                    assert (cert.bound, cert.quotient_type, cert.c_vector) == (-best[0], best[3], best[2])
    assert cases == 1225


def test_best_interval_bound_trivial_cases():
    for group, s in ((cyclic(4), 3), (cyclic(2), 2), (cyclic(2), 4), (cyclic(3), 4)):
        cert = best_interval_bound(group, s)
        assert cert.is_trivial
        assert cert.bound == 1
        assert cert.witness is None
        assert cert.quotient_type == ()


def test_best_interval_bound_meets_cyclic_formula():
    for n in range(2, 101):
        for s in range(1, 6):
            cert = best_interval_bound(cyclic(n), s)
            assert cert.bound == generating_interval_cyclic_divisors(n, s)[0]


def test_best_interval_bound_meets_two_group_formula():
    for r in range(1, 9):
        g = GroupType((2,) * r)
        for s in range(2, 7):
            cert = best_interval_bound(g, s)
            assert cert.bound == generating_interval_critical_two_group(r, s)


def test_witness_json_roundtrip():
    g = GroupType((2, 4))
    cert = hfold_witness(g, 3)
    payload = cert.to_json_dict()
    assert payload["group"] == "2,4"
    assert payload["mode"] == "hfold"
    assert payload["param"] == 3
    assert payload["size"] == 4
    assert payload["generates"] is True and payload["incomplete"] is True
    assert GroupSubset.from_elements(g, payload["elements"]) == cert.subset


def test_bound_json_roundtrip():
    g = GroupType((2, 2, 2, 2))
    payload = best_interval_bound(g, 2).to_json_dict()
    assert payload["group"] == "2,2,2,2"
    assert payload["quotient_type"] == [2, 2, 2]
    assert payload["c_vector"] == [1, 1, 1]
    assert payload["bound"] == 9
    assert GroupSubset.from_elements(g, payload["elements"]).size == 8
    trivial = best_interval_bound(cyclic(2), 3).to_json_dict()
    assert trivial["bound"] == 1
    assert trivial["elements"] is None
