"""Bit-vector subsets and the sumset kernels, checked against naive loops."""

import itertools
import random

import pytest

from critnum import (
    EmptySetError,
    GroupSubset,
    GroupType,
    InvalidElement,
    InvalidH,
    InvalidS,
    SpecMismatch,
    abelian_types,
    cyclic,
    hfold_sumset,
    interval_sumset,
    is_complete,
    pairwise_sumset,
    subset_sums,
)
from critnum.sumsets import layout_for, translate_bits

GROUPS = [cyclic(7), cyclic(12), GroupType((2, 4)), GroupType((3, 3)), GroupType((2, 2, 3))]


def naive_hfold(group, elems, h):
    # definition-literal: sums of h not-necessarily-distinct elements
    return {
        # fold the tuple with group.add
        _sum(group, combo)
        for combo in itertools.product(elems, repeat=h)
    }


def _sum(group, combo):
    acc = group.zero()
    for e in combo:
        acc = group.add(acc, e)
    return acc


def naive_interval(group, elems, s):
    out = {group.zero()}
    for h in range(1, s + 1):
        out |= naive_hfold(group, elems, h)
    return out


def naive_subset_sums(group, elems):
    out = set()
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            out.add(_sum(group, combo))
    return out


def random_subsets(group, count, seed):
    rng = random.Random(seed)
    n = group.order
    for _ in range(count):
        size = rng.randint(1, min(6, n))
        yield GroupSubset.from_indices(group, rng.sample(range(n), size))


def test_pairwise_sumset_example():
    # 2-fold sumset of {1,2,3} in Z7: all nine pairwise sums
    g = cyclic(7)
    a = GroupSubset.from_indices(g, [1, 2, 3])
    two_a = hfold_sumset(a, 2)
    assert set(two_a.indices()) == {2, 3, 4, 5, 6}
    by_hand = {(x + y) % 7 for x in (1, 2, 3) for y in (1, 2, 3)}
    assert set(two_a.indices()) == by_hand


def test_pairwise_matches_naive_exhaustive_z6():
    g = cyclic(6)
    masks = range(1, 64)
    subsets = [GroupSubset(g, m) for m in masks]
    for a in subsets:
        for b in subsets:
            got = set(pairwise_sumset(a, b).elements())
            want = {g.add(x, y) for x in a.elements() for y in b.elements()}
            assert got == want


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_hfold_matches_naive(group):
    for a in random_subsets(group, 12, seed=group.order):
        elems = list(a.elements())
        for h in (1, 2, 3):
            got = set(hfold_sumset(a, h).elements())
            assert got == naive_hfold(group, elems, h)
        assert hfold_sumset(a, 1).bits == a.bits


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_interval_matches_naive(group):
    for a in random_subsets(group, 10, seed=17 * group.order):
        elems = list(a.elements())
        for s in (0, 1, 2, 3):
            got = set(interval_sumset(a, s).elements())
            assert got == naive_interval(group, elems, s)


def test_interval_zero_fold():
    g = cyclic(5)
    a = GroupSubset.from_indices(g, [2, 3])
    assert set(interval_sumset(a, 0).indices()) == {0}
    assert set(interval_sumset(a, 1).indices()) == {0, 2, 3}


def test_interval_example():
    # [0,3]{0,1} in Z5 accumulates 0, 1, 2, 3
    g = cyclic(5)
    a = GroupSubset.from_indices(g, [0, 1])
    assert set(interval_sumset(a, 3).indices()) == {0, 1, 2, 3}


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_subset_sums_matches_naive(group):
    for a in random_subsets(group, 10, seed=31 * group.order):
        got = set(subset_sums(a).elements())
        assert got == naive_subset_sums(group, list(a.elements()))


def test_subset_sums_edge_cases():
    from critnum import abelian_types

    g = cyclic(5)
    assert set(subset_sums(GroupSubset.from_indices(g, [1, 2])).indices()) == {0, 1, 2, 3}
    assert set(subset_sums(GroupSubset.empty(g)).indices()) == {0}
    # the sums over all subsets of the whole group cover the group
    for n in range(2, 17):
        for tp in abelian_types(n):
            assert is_complete(subset_sums(GroupSubset.whole(tp)))


def test_fold_of_singleton_and_zero():
    g = GroupType((2, 4))
    zero_only = GroupSubset.from_elements(g, [(0, 0)])
    for h in (1, 2, 5):
        assert hfold_sumset(zero_only, h).bits == zero_only.bits
    one = GroupSubset.from_elements(g, [(1, 1)])
    assert set(hfold_sumset(one, 2).elements()) == {(0, 2)}


def small_types(max_order):
    return [g for n in range(2, max_order + 1) for g in abelian_types(n)]


@pytest.mark.parametrize("group", small_types(32), ids=str)
def test_layout_tables_match_group_arithmetic(group):
    layout = layout_for(group)
    for i in range(group.order):
        x = group.decode(i)
        assert layout.neg_index[i] == group.neg_index(i)
        for j in range(group.order):
            want = group.encode(group.add(x, group.decode(j)))
            assert translate_bits(layout, 1 << i, j) == 1 << want


def _mask_bits(layout):
    # total size of the distinct mask objects that shift_ops holds
    masks = {id(m): m for ops in layout.shift_ops for op in ops for m in op[:2]}
    return sum(m.bit_length() for m in masks.values())


def test_layout_masks_are_linear_in_order():
    # the top coordinate's shifts share one mask; each shift of a lower
    # coordinate f holds two masks of n bits
    z4096 = layout_for(cyclic(4096))
    assert _mask_bits(z4096) <= 2 * 4096
    z2x2048 = layout_for(GroupType((2, 2048)))
    assert _mask_bits(z2x2048) <= 4096 + 2 * 4096 * (2 - 1)
    z8x8 = layout_for(GroupType((8, 8)))
    assert _mask_bits(z8x8) <= 64 + 2 * 64 * (8 - 1)


def test_translated():
    g = cyclic(10)
    a = GroupSubset.from_indices(g, [0, 1, 5])
    assert set(a.translated((3,)).indices()) == {3, 4, 8}
    b = GroupType((2, 4))
    s = GroupSubset.from_elements(b, [(0, 0), (1, 2)])
    assert set(s.translated((1, 1)).elements()) == {(1, 1), (0, 3)}


def test_empty_and_param_errors():
    g = cyclic(6)
    empty = GroupSubset.empty(g)
    a = GroupSubset.from_indices(g, [1])
    with pytest.raises(EmptySetError):
        hfold_sumset(empty, 2)
    with pytest.raises(EmptySetError):
        interval_sumset(empty, 2)
    with pytest.raises(InvalidH):
        hfold_sumset(a, 0)
    with pytest.raises(InvalidS):
        interval_sumset(a, -1)


def test_cross_group_operations_rejected():
    a = GroupSubset.from_indices(cyclic(6), [1])
    b = GroupSubset.from_indices(cyclic(7), [1])
    with pytest.raises(SpecMismatch):
        pairwise_sumset(a, b)
    with pytest.raises(SpecMismatch):
        a.union(b)
    with pytest.raises(SpecMismatch):
        a.issubset(b)


def test_set_algebra():
    g = cyclic(8)
    a = GroupSubset.from_indices(g, [1, 2, 3])
    b = GroupSubset.from_indices(g, [3, 4])
    assert set(a.union(b).indices()) == {1, 2, 3, 4}
    assert set(a.intersect(b).indices()) == {3}
    assert a.intersect(b).issubset(a)
    assert not a.issubset(b)
    assert a.size == 3
    assert a.contains_index(2)
    assert not a.contains_index(5)
    assert a.contains((3,))


def test_is_complete():
    g = GroupType((2, 4))
    assert is_complete(GroupSubset.whole(g))
    assert not is_complete(GroupSubset(g, GroupSubset.whole(g).bits >> 1))
    assert is_complete(hfold_sumset(GroupSubset.whole(g), 3))


def test_element_list_roundtrip():
    g = GroupType((2, 4))
    a = GroupSubset.from_elements(g, [(0, 0), (1, 3)])
    payload = a.to_element_list()
    assert payload == [[0, 0], [1, 3]]
    assert GroupSubset.from_element_list(g, payload) == a


def test_hex_roundtrip():
    g = cyclic(8)
    a = GroupSubset.from_indices(g, [0, 4])
    assert a.to_hex() == "11"
    assert GroupSubset.from_hex(g, "11") == a
    big = GroupType((2, 2, 2, 2))
    b = GroupSubset.from_indices(big, [0, 15])
    assert GroupSubset.from_hex(big, b.to_hex()) == b
    with pytest.raises(InvalidElement):
        GroupSubset.from_hex(g, "111")
    with pytest.raises(InvalidElement):
        GroupSubset.from_hex(g, "zz")


def test_invalid_members_rejected():
    g = cyclic(6)
    with pytest.raises(InvalidElement):
        GroupSubset.from_indices(g, [6])
    with pytest.raises(InvalidElement):
        GroupSubset.from_elements(g, [(7,)])
