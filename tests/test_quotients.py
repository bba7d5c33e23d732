"""Quotient maps, generated subgroups, preimage lifting."""

import math
import random

import pytest

from critnum import (
    GroupSubset,
    GroupType,
    InvalidIndex,
    QuotientUnavailable,
    SpecMismatch,
    abelian_types,
    cyclic,
    divisors,
    is_generating,
    kernel_subset,
    lift_preimage,
    quotient_spec,
    quotient_type_feasible,
    spec_for_quotient_type,
    subgroup_generated,
)
from critnum.quotients import closure_bits
from critnum.sumsets import layout_for
from reference import project, project_index, project_subset


def test_greedy_divisor_vector():
    # the index is absorbed into the top coordinate first
    assert quotient_spec(GroupType((2, 4)), 4).divisor_vector == (1, 4)
    assert quotient_spec(GroupType((2, 4)), 2).divisor_vector == (1, 2)
    assert quotient_spec(GroupType((2, 4)), 8).divisor_vector == (2, 4)
    assert quotient_spec(GroupType((2, 2)), 4).divisor_vector == (2, 2)
    assert quotient_spec(cyclic(12), 6).divisor_vector == (6,)
    assert quotient_spec(GroupType((2, 2, 4)), 4).divisor_vector == (1, 1, 4)


def test_quotient_spec_every_divisor_realizable():
    for n in range(2, 17):
        for g in abelian_types(n):
            for d in divisors(g.order):
                if d < 2:
                    continue
                spec = quotient_spec(g, d)
                assert spec.index == d
                assert spec.quotient.order == d
                assert len(spec.divisor_vector) == g.rank


def _greedy_vector(group, d):
    # the divisor vector quotient_spec chose before it was built from the
    # top-aligned chain: gcd with each factor from the top coordinate down
    rem = d
    evec = [1] * group.rank
    for i in reversed(range(group.rank)):
        evec[i] = math.gcd(group.factors[i], rem)
        rem //= evec[i]
    assert rem == 1
    return tuple(evec)


def test_quotient_spec_matches_greedy_vector():
    for n in range(2, 65):
        for g in abelian_types(n):
            for d in divisors(n)[1:]:
                evec = _greedy_vector(g, d)
                # feasible by construction, so quotient_spec builds it unchecked
                assert quotient_type_feasible(g, tuple(e for e in evec if e > 1)), (g, d)
                spec = quotient_spec(g, d)
                assert spec.divisor_vector == evec, (g, d)
                assert spec.quotient == GroupType(tuple(e for e in evec if e > 1)), (g, d)
                assert spec.index == math.prod(evec) == d, (g, d)


def test_quotient_spec_errors():
    g = GroupType((2, 4))
    with pytest.raises(InvalidIndex):
        quotient_spec(g, 1)
    with pytest.raises(InvalidIndex):
        quotient_spec(g, 3)
    with pytest.raises(InvalidIndex):
        quotient_spec(g, 16)


def test_projection_is_homomorphism():
    for g, d in ((GroupType((2, 4)), 4), (cyclic(12), 6), (GroupType((2, 2, 4)), 8)):
        spec = quotient_spec(g, d)
        q = spec.quotient
        for i in range(g.order):
            for j in range(g.order):
                x, y = g.decode(i), g.decode(j)
                assert project(spec, g.add(x, y)) == q.add(project(spec, x), project(spec, y))
        images = {project_index(spec, i) for i in range(g.order)}
        assert images == set(range(d))


def test_project_and_lift_roundtrip():
    g = GroupType((2, 4))
    spec = quotient_spec(g, 4)
    b = GroupSubset.from_indices(spec.quotient, [0, 3])
    lifted = lift_preimage(spec, b)
    assert lifted.size == b.size * g.order // spec.index
    assert project_subset(spec, lifted) == b


def test_kernel():
    g = GroupType((2, 4))
    spec = quotient_spec(g, 4)
    ker = kernel_subset(spec)
    assert ker.size == g.order // spec.index
    assert subgroup_generated(ker) == ker
    assert set(ker.elements()) == {(0, 0), (1, 0)}


def test_cross_group_projection_rejected():
    spec = quotient_spec(cyclic(12), 6)
    with pytest.raises(SpecMismatch):
        lift_preimage(spec, GroupSubset.from_indices(cyclic(12), [0]))


def test_quotient_type_feasibility_rule():
    g = GroupType((2, 4))
    assert quotient_type_feasible(g, (2,))
    assert quotient_type_feasible(g, (4,))
    assert quotient_type_feasible(g, (2, 2))
    assert quotient_type_feasible(g, (2, 4))
    assert not quotient_type_feasible(g, (8,))
    assert not quotient_type_feasible(g, (2, 2, 2))
    assert not quotient_type_feasible(g, (4, 2))  # not a divisor chain
    assert not quotient_type_feasible(g, ())
    assert quotient_type_feasible(GroupType((2, 2, 4)), (2, 2))
    assert not quotient_type_feasible(GroupType((2, 2, 4)), (4, 4))


def test_spec_for_quotient_type():
    g = GroupType((2, 4))
    spec = spec_for_quotient_type(g, (2, 2))
    assert spec.quotient.factors == (2, 2)
    assert spec.index == 4
    assert spec.divisor_vector == (2, 2)
    with pytest.raises(QuotientUnavailable):
        spec_for_quotient_type(cyclic(4), (2, 2))
    with pytest.raises(QuotientUnavailable):
        spec_for_quotient_type(g, (8,))


def test_subgroup_generated():
    g = cyclic(6)
    assert set(subgroup_generated(GroupSubset.empty(g)).indices()) == {0}
    assert set(subgroup_generated(GroupSubset.from_indices(g, [2])).indices()) == {0, 2, 4}
    assert set(subgroup_generated(GroupSubset.from_indices(g, [2, 3])).indices()) == {0, 1, 2, 3, 4, 5}
    v4 = GroupType((2, 2))
    assert subgroup_generated(GroupSubset.from_elements(v4, [(1, 0)])).size == 2


def test_is_generating():
    g = cyclic(10)
    assert is_generating(GroupSubset.from_indices(g, [1]))
    assert is_generating(GroupSubset.from_indices(g, [3]))
    assert not is_generating(GroupSubset.from_indices(g, [2, 4]))
    assert not is_generating(GroupSubset.from_indices(g, [5]))
    v4 = GroupType((2, 2))
    assert not is_generating(GroupSubset.from_elements(v4, [(1, 0)]))
    assert is_generating(GroupSubset.from_elements(v4, [(1, 0), (0, 1)]))


def test_generated_subgroup_is_closed_under_addition():
    g = GroupType((2, 6))
    sub = subgroup_generated(GroupSubset.from_elements(g, [(1, 0), (0, 2)]))
    elems = list(sub.elements())
    for x in elems:
        for y in elems:
            assert sub.contains(g.add(x, y))
    assert sub.size == 6


def literal_closure(group, indices):
    # definition-literal: {0} and the elements, closed under group.add
    gens = [group.decode(i) for i in indices]
    seen = {group.zero()} | set(gens)
    frontier = set(seen)
    while frontier:
        frontier = {group.add(x, g) for x in frontier for g in gens} - seen
        seen |= frontier
    return sum(1 << group.encode(x) for x in seen)


CLOSURE_TYPES = [g for n in range(2, 25) for g in abelian_types(n)] + [GroupType((2,) * 5)]


@pytest.mark.parametrize("group", CLOSURE_TYPES, ids=str)
def test_closure_bits_matches_literal_fixpoint(group):
    rng = random.Random(group.order * 131 + group.rank)
    n = group.order
    layout = layout_for(group)
    masks = [0] + [rng.getrandbits(n) for _ in range(4)]
    masks += [sum(1 << i for i in rng.sample(range(n), k)) for k in range(min(n, 3) + 1) for _ in range(3)]
    for bits in masks:
        indices = [i for i in range(n) if bits >> i & 1]
        assert closure_bits(layout, bits) == literal_closure(group, indices), bits


@pytest.mark.parametrize("group", [g for n in range(2, 37) for g in abelian_types(n)], ids=str)
def test_lift_preimage_matches_projection(group):
    rng = random.Random(group.order * 17 + group.rank)
    for d in divisors(group.order)[1:]:
        spec = quotient_spec(group, d)
        for bits in (0, 1, (1 << d) - 1, rng.getrandbits(d), rng.getrandbits(d)):
            want = sum(1 << i for i in range(group.order) if bits >> project_index(spec, i) & 1)
            assert lift_preimage(spec, GroupSubset(spec.quotient, bits)).bits == want, (d, bits)


@pytest.mark.parametrize("group", [GroupType((2, 2048)), GroupType((2, 2, 1024))], ids=str)
def test_lift_preimage_below_a_top_aligned_chain(group):
    # Unit coordinates under many quotient digits: every run of the mask to
    # repeat is one bit wide, and there are up to d of them.
    n = group.order
    rng = random.Random(n * 3 + group.rank)
    for d in divisors(n)[1:]:
        spec = quotient_spec(group, d)
        image = [project_index(spec, i) for i in range(n)]
        for bits in (1 << d - 1, (1 << d) - 1, rng.getrandbits(d)):
            want = sum(1 << i for i, q in enumerate(image) if bits >> q & 1)
            assert lift_preimage(spec, GroupSubset(spec.quotient, bits)).bits == want, (d, bits)


@pytest.mark.parametrize("group", [cyclic(65536), GroupType((2, 2048)), GroupType((16, 16, 16))], ids=str)
def test_lift_preimage_at_large_orders(group):
    n = group.order
    rng = random.Random(n + group.rank)
    for d in divisors(n)[1:]:
        spec = quotient_spec(group, d)
        bits = rng.getrandbits(d)
        lifted = lift_preimage(spec, GroupSubset(spec.quotient, bits)).bits
        assert lifted.bit_count() == bits.bit_count() * n // d, d
        for i in rng.sample(range(n), 2000):
            assert lifted >> i & 1 == bits >> project_index(spec, i) & 1, (d, i)
