"""Bit-vector subsets and the sumset kernels, checked against naive loops."""

import functools
import itertools
import random
import weakref

import pytest

import critnum.sumsets
from critnum import (
    EmptySetError,
    GroupSubset,
    GroupType,
    InvalidElement,
    InvalidH,
    InvalidOrder,
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
from critnum.groups import divisors
from critnum.quotients import lift_preimage, quotient_spec
from critnum.sumsets import (
    MAX_LAYOUT_ORDER,
    Layout,
    _multiples,
    axis_periods,
    hfold_bits,
    interval_bits,
    layout_for,
    transversal_bits,
    translate_bits,
)
from reference import neg_index

GROUPS = [cyclic(7), cyclic(12), GroupType((2, 4)), GroupType((3, 3)), GroupType((2, 2, 3))]


@functools.cache
def _add(group, x, y):
    return group.add(x, y)


def naive_hfold(group, elems, h):
    # definition-literal: sums of h not-necessarily-distinct elements, built
    # one term at a time with group.add
    out = {group.zero()}
    for _ in range(h):
        out = {_add(group, x, a) for x in out for a in elems}
    return out


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


def small_types(max_order):
    return [g for n in range(2, max_order + 1) for g in abelian_types(n)]


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


def periodic_sets(group, seed):
    # preimages of random quotient masks at every divisor: unions of cosets,
    # up to just over half the group, where the pigeonhole rule starts
    rng = random.Random(seed)
    for d in divisors(group.order)[1:]:
        spec = quotient_spec(group, d)
        for _ in range(2):
            size = rng.randint(1, d // 2 + 1)
            pattern = GroupSubset.from_indices(spec.quotient, rng.sample(range(d), size))
            yield lift_preimage(spec, pattern)


@pytest.mark.parametrize("group", small_types(36), ids=str)
def test_periodic_sets_match_naive(group):
    layout = layout_for(group)
    for a in periodic_sets(group, seed=group.order):
        elems = list(a.elements())
        for h in (1, 2, 3, 5):
            got = hfold_bits(layout, a.bits, h)
            assert set(GroupSubset(group, got).elements()) == naive_hfold(group, elems, h), (a, h)
        for s in range(4):
            got = interval_bits(layout, a.bits, s)
            assert set(GroupSubset(group, got).elements()) == naive_interval(group, elems, s), (a, s)


def _axis_step(group, i, t):
    return tuple(t if j == i else 0 for j in range(group.rank))


@pytest.mark.parametrize("group", small_types(36), ids=str)
def test_axis_periods_are_the_axis_stabilizer(group):
    layout = layout_for(group)
    sets = list(periodic_sets(group, seed=3 * group.order))
    sets += list(random_subsets(group, 8, seed=5 * group.order))
    for a in sets:
        elems = set(a.elements())
        # brute force: the least t >= 1 with A + t*e_i = A, trying every t
        want = tuple(
            next(t for t in range(1, f + 1)
                 if {group.add(x, _axis_step(group, i, t % f)) for x in elems} == elems)
            for i, f in enumerate(group.factors)
        )
        assert axis_periods(layout, a.bits) == want, a
        # the transversal keeps the elements of A with every x_i < m_i
        kept = {x for x in elems if all(c < m for c, m in zip(x, want))}
        assert set(GroupSubset(group, transversal_bits(layout, a.bits)).elements()) == kept, a


@pytest.mark.parametrize("group", small_types(24), ids=str)
def test_large_sets_fill_the_group(group, monkeypatch):
    layout = layout_for(group)
    whole = set(group.elements())
    rng = random.Random(group.order)
    large = [
        GroupSubset.from_indices(group, rng.sample(range(group.order), size))
        for size in range(group.order // 2 + 1, group.order + 1)
    ]
    for a in large:
        assert naive_hfold(group, list(a.elements()), 2) == whole
    # once |A| > n/2 the kernels answer without adding a single fold
    def no_fold(*args):
        raise AssertionError("pairwise_bits called on a set larger than half the group")

    monkeypatch.setattr(critnum.sumsets, "pairwise_bits", no_fold)
    for a in large:
        for h in (2, 3, 5):
            assert hfold_bits(layout, a.bits, h) == layout.full
            assert interval_bits(layout, a.bits, h) == layout.full


def test_layout_refuses_orders_above_the_limit():
    assert MAX_LAYOUT_ORDER == 1 << 18
    for factors in ((MAX_LAYOUT_ORDER + 1,), (2, MAX_LAYOUT_ORDER)):
        with pytest.raises(InvalidOrder, match=str(MAX_LAYOUT_ORDER)):
            Layout(factors)
    with pytest.raises(InvalidOrder):
        hfold_sumset(GroupSubset.from_indices(cyclic(1 << 20), [1]), 2)


def test_layout_cache_is_bounded_by_the_orders_it_holds(monkeypatch):
    # the cache keeps Layouts while their orders sum to at most
    # 4 * MAX_LAYOUT_ORDER, evicting the oldest first; a hit builds nothing,
    # and an evicted Layout takes the tables built on it with it
    monkeypatch.setattr(critnum.sumsets, "MAX_LAYOUT_ORDER", 16)
    monkeypatch.setattr(critnum.sumsets, "_layouts", {})
    builds = []

    def counted(factors):
        builds.append(factors)
        return Layout(factors)

    # looked up at call time, as the benchmark's tracer relies on
    monkeypatch.setattr(critnum.sumsets, "Layout", counted)

    class Table:
        def __init__(self, factors):
            self.factors = factors

    tables = {}  # factors -> weak reference to the table built on that Layout
    steps = [
        ((16,), [(16,)]),
        ((2, 8), [(16,), (2, 8)]),
        ((4, 4), [(16,), (2, 8), (4, 4)]),
        ((2, 2, 4), [(16,), (2, 8), (4, 4), (2, 2, 4)]),
        ((2, 2, 2, 2), [(2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]),
        ((2, 8), [(2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]),
        ((8,), [(4, 4), (2, 2, 4), (2, 2, 2, 2), (8,)]),
        ((2,), [(4, 4), (2, 2, 4), (2, 2, 2, 2), (8,), (2,)]),
        ((12,), [(2, 2, 4), (2, 2, 2, 2), (8,), (2,), (12,)]),
    ]
    for factors, kept in steps:
        layout = layout_for(GroupType(factors))
        assert layout.factors == factors
        held = critnum.sumsets._layouts
        assert [g.factors for g in held] == kept, factors
        assert sum(x.order for x in held.values()) <= 4 * 16
        assert layout_for(GroupType(factors)) is layout
        table = layout.table(Table)
        assert table.factors == factors and layout.table(Table) is table
        if factors in tables and tables[factors]() is not None:
            assert tables[factors]() is table  # a kept Layout builds its table once
        tables[factors] = weakref.ref(table)
        del table
        assert sorted(f for f, ref in tables.items() if ref()) == sorted(kept), factors
    assert builds == [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2), (8,), (2,), (12,)]
    with pytest.raises(InvalidOrder):
        layout_for(cyclic(17))
    assert [g.factors for g in critnum.sumsets._layouts] == steps[-1][1]


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


@pytest.mark.parametrize("group", small_types(32), ids=str)
def test_layout_tables_match_group_arithmetic(group):
    layout = layout_for(group)
    negated = _multiples(group.factors, -1)
    for i in range(group.order):
        x = group.decode(i)
        assert negated[i] == neg_index(group, i)
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
    assert GroupSubset.from_elements(g, payload) == a
    assert str(a) == "{(0, 0), (1, 3)}"
    assert str(GroupSubset(g, 0)) == "{}"


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


@pytest.mark.parametrize("text", ["0x1f", " 1f ", "1_f0", "+1f0", "1F00"])
def test_from_hex_takes_only_what_to_hex_writes(text):
    # int(text, 16) accepts each of these for Z16's four-digit width
    g = cyclic(16)
    assert len(text) == 4
    with pytest.raises(InvalidElement):
        GroupSubset.from_hex(g, text)


def test_invalid_members_rejected():
    g = cyclic(6)
    with pytest.raises(InvalidElement):
        GroupSubset.from_indices(g, [6])
    with pytest.raises(InvalidElement):
        GroupSubset.from_elements(g, [(7,)])


@pytest.mark.parametrize("bad", [True, 2.5], ids=repr)
def test_subset_bits_must_be_an_integer(bad):
    with pytest.raises(InvalidElement):
        GroupSubset(cyclic(5), bad)
