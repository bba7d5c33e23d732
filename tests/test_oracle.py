"""Exact oracle: the search against the literal scan, witnesses, budgets."""

import itertools
import math
import random
import sys
import tracemalloc

import pytest

from critnum import (
    KIND_TAGS,
    BudgetExceeded,
    ConstructionInvariantViolated,
    CriticalKind,
    GroupSubset,
    GroupType,
    InvalidOrder,
    InvalidWorkers,
    OracleQuery,
    abelian_types,
    brute_critical,
    brute_critical_witness,
    brute_max_sumfree,
    critical_number,
    cyclic,
    divisors,
    factorize,
    hfold_sumset,
    interval3_branch_divisor,
    interval_sumset,
    is_complete,
    is_generating,
    lift_preimage,
    max_sumfree_size,
    quotient_spec,
    quotient_type_feasible,
    search_critical_witness,
    subgroup_generated,
    subset_sums,
)
from critnum.cli import main
from critnum import oracle, sumsets
from critnum.oracle import (
    _anchor_generators,
    _anchor_representatives,
    _expansion,
    _greedy_matching,
    _maximal_subgroups,
    _preimages,
)
from critnum.quotients import closure_bits
from critnum.sumsets import _multiples, layout_for
from critnum.witnesses import _verified
from reference import add_indices, brute_quotient_types, enumerate_subgroups, neg_index, scalar_index


def _acceptance_grid_queries() -> list[OracleQuery]:
    """Every oracle case of acceptance grids A1, A2, A4-A7, A9 and A10.

    chi_interval occurs in none of them, so it runs on the A9/A10 grid
    (every type of order <= 16, s <= 4) to cover all six kinds.
    """
    cases = []
    for n in range(2, 17):
        for g in abelian_types(n):
            cases += [(g, "chi_h", h) for h in range(1, 7)]  # A1
            cases += [(g, "chi_hat_h", h) for h in range(1, 7)]  # A2
            cases += [(g, "chi_hat_interval", s) for s in range(1, 5)]  # A9, A10
            cases += [(g, "chi_interval", s) for s in range(1, 5)]
            if n >= 5 and not g.is_elementary_two:
                cases.append((g, "chi_hat_interval", 3))  # A6
            if 10 <= n <= 14:
                cases += [(g, "cr", None), (g, "cr_star", None)]  # A7
        cases += [(cyclic(n), "chi_hat_interval", s) for s in range(1, 6)]  # A4
    for r in range(1, 5):
        cases += [(GroupType((2,) * r), "chi_hat_interval", s) for s in (2, 3, 4)]  # A5
    unique = dict.fromkeys((g.factors, tag, param) for g, tag, param in cases)
    return [OracleQuery(GroupType(f), CriticalKind(tag, param)) for f, tag, param in unique]


def _witness_problems(query: OracleQuery, value: int, witness) -> list[str]:
    """Re-check a search result with the public kernels, outside the search."""
    if witness is None:
        return [] if value == 1 else [f"value {value} without a witness"]
    problems = []
    if witness.size != value - 1:
        problems.append(f"witness size {witness.size} for value {value}")
    mode, param = query.kind.mode, query.kind.param
    if mode == "hfold":
        covered = hfold_sumset(witness, param)
    elif mode == "interval":
        covered = interval_sumset(witness, param)
    else:
        covered = subset_sums(witness)
    if is_complete(covered):
        problems.append("expansion misses no element")
    if query.kind.restricts_to_generating and not is_generating(witness):
        problems.append("witness does not generate")
    if query.kind.excludes_zero and witness.contains_index(0):
        problems.append("witness contains zero")
    if query.kind.tag not in ("chi_hat_h", "cr_star") and not witness.contains_index(0):
        problems.append("witness lacks zero")
    return problems


def test_brute_hfold_example():
    assert brute_critical(OracleQuery(cyclic(10), CriticalKind("chi_h", 2))) == 6


def test_brute_witness_is_extremal():
    from critnum import GroupSubset

    value, witness = brute_critical_witness(OracleQuery(cyclic(10), CriticalKind("chi_h", 2)))
    assert value == 6
    assert witness.size == 5
    assert not is_complete(hfold_sumset(witness, 2))
    # incompleteness is downward closed for the unrestricted kinds
    for idx in witness.indices():
        reduced = GroupSubset(cyclic(10), witness.bits & ~(1 << idx))
        assert not is_complete(hfold_sumset(reduced, 2))


def test_brute_restricted_interval_example():
    q = OracleQuery(cyclic(5), CriticalKind("chi_hat_interval", 3))
    value, witness = brute_critical_witness(q)
    assert value == 3
    assert witness.size == 2
    assert subgroup_generated(witness).size == 5


def test_brute_restricted_vs_unrestricted_h1():
    # on Z2xZ2 every 3-subset of nonzero elements generates
    g = GroupType((2, 2))
    assert brute_critical(OracleQuery(g, CriticalKind("chi_hat_h", 1))) == 4
    assert brute_critical(OracleQuery(g, CriticalKind("chi_h", 1))) == 4


def test_brute_trivial_value_convention():
    # every generating subset of Z3 is [0,2]-complete, so the value is 1
    q = OracleQuery(cyclic(3), CriticalKind("chi_hat_interval", 2))
    value, witness = brute_critical_witness(q)
    assert value == 1
    assert witness is None


def test_brute_matches_formula_small():
    for n in range(2, 13):
        for g in abelian_types(n):
            for h in (1, 2, 3):
                assert brute_critical(OracleQuery(g, CriticalKind("chi_h", h))) == critical_number(n, h)
            for s in (1, 2):
                q = OracleQuery(g, CriticalKind("chi_interval", s))
                assert brute_critical(q) == critical_number(n, s)


def test_search_agrees_with_scan_on_small_grid():
    # the grid the deleted zero-anchored scan was checked on
    for n in range(2, 13):
        for g in abelian_types(n):
            for kind in (CriticalKind("chi_h", 2), CriticalKind("chi_h", 3), CriticalKind("chi_interval", 2)):
                q = OracleQuery(g, kind)
                value, witness = search_critical_witness(q)
                assert value == brute_critical_witness(q)[0]
                assert _witness_problems(q, value, witness) == []


def test_search_handles_restricted_kinds():
    # the kinds the deleted zero-anchored scan refused
    for kind in (CriticalKind("chi_hat_h", 2), CriticalKind("cr")):
        q = OracleQuery(cyclic(6), kind)
        value, witness = search_critical_witness(q)
        assert value == brute_critical_witness(q)[0]
        assert _witness_problems(q, value, witness) == []


def test_search_matches_scan_on_acceptance_grids():
    queries = _acceptance_grid_queries()
    assert {q.kind.tag for q in queries} == set(KIND_TAGS)
    failures = []
    for q in queries:
        value, witness = search_critical_witness(q)
        want = brute_critical_witness(q)[0]
        if value != want:
            failures.append(f"{q.group} {q.kind}: search {value} vs scan {want}")
        failures += [f"{q.group} {q.kind}: {p}" for p in _witness_problems(q, value, witness)]
    assert failures == []


def test_search_matches_scan_with_query_flags():
    # every kind, so every combination of generating restriction and zero
    # exclusion that a kind carries
    for n in range(2, 11):
        for g in abelian_types(n):
            for tag in KIND_TAGS:
                params = (None,) if tag in ("cr", "cr_star") else (1, 2, 3)
                for param in params:
                    q = OracleQuery(g, CriticalKind(tag, param))
                    value, witness = search_critical_witness(q)
                    assert value == brute_critical_witness(q)[0], q
                    assert _witness_problems(q, value, witness) == [], q


def test_search_past_the_mask_cap_matches_scan(monkeypatch):
    # Z2^7 has 127 maximal subgroups, past the cap: its h = s = 2 queries
    # test generation by closure.  With the cap forced to 0 every group
    # does, and the restricted kinds must still agree with the scan.
    big = GroupType((2,) * 7)
    assert _maximal_subgroups(big.factors) is None
    for tag in ("chi_hat_h", "chi_hat_interval"):
        value, witness = search_critical_witness(OracleQuery(big, CriticalKind(tag, 2)), budget=128)
        assert value == critical_number(128, 2) and is_generating(witness)
    # fresh Layouts, so no group reuses masks built under the real cap
    monkeypatch.setattr(oracle, "_MAX_MASKS", 0)
    monkeypatch.setattr(sumsets, "_layouts", {})
    for n in range(2, 11):
        for g in abelian_types(n):
            assert _maximal_subgroups(g.factors) is None
            for tag, param in itertools.product(("chi_hat_h", "chi_hat_interval"), (1, 2, 3)):
                q = OracleQuery(g, CriticalKind(tag, param))
                value, witness = search_critical_witness(q)
                assert value == brute_critical_witness(q)[0], q
                assert _witness_problems(q, value, witness) == [], q


def test_search_witness_recheck_fails_closed(monkeypatch):
    # the search sends its witness through the builders' one check, with
    # the expansion, generation and zero rules of its kind
    group = cyclic(6)
    layout = layout_for(group)

    def check(kind, bits):
        _verified("search", layout, bits, bits.bit_count(), _expansion(layout, kind, bits),
                  generating=kind.restricts_to_generating, zero_free=kind.excludes_zero)

    hat = CriticalKind("chi_hat_h", 2)
    check(hat, 0b101010)  # {1, 3, 5}: generates, misses 0
    for bits in (layout.full, 0b010100):  # complete, non-generating
        with pytest.raises(ConstructionInvariantViolated):
            check(hat, bits)
    star = CriticalKind("cr_star")
    check(star, 0b000010)  # {1}: sums {0, 1}
    with pytest.raises(ConstructionInvariantViolated):
        check(star, 0b000011)  # {0, 1}: sums {0, 1}, but holds 0
    # a search whose kernel calls every set complete fails the check
    monkeypatch.setattr(oracle, "_expansion", lambda layout, kind, bits: layout.full)
    with pytest.raises(ConstructionInvariantViolated, match="search_critical_witness"):
        search_critical_witness(OracleQuery(group, hat))


def _basis(group: GroupType) -> list[int]:
    return [group.encode([int(i == k) for i in range(group.rank)]) for k in range(group.rank)]


def test_anchor_generators_are_automorphisms():
    # A bijection p with p(0) = 0 and p(x + e_k) = p(x) + p(e_k) for every
    # x and basis element e_k is an automorphism (by induction over the
    # e_k).  Sums are composed from the tables x -> x + e_k, each built with
    # `add_indices`.
    for n in range(2, 65):
        for g in abelian_types(n):
            basis = _basis(g)
            steps = [[add_indices(g, x, e) for x in range(n)] for e in basis]

            def plus(y):
                table = list(range(n))
                for step, count in zip(steps, g.decode(y)):
                    for _ in range(count):
                        table = [step[x] for x in table]
                return table

            for perm in _anchor_generators(g.factors):
                assert sorted(perm) == list(range(n)), g
                assert perm[0] == 0, g
                for e, step in zip(basis, steps):
                    image = plus(perm[e])
                    assert all(perm[step[x]] == image[perm[x]] for x in range(n)), (g, perm)


def _unit_scalings(group: GroupType) -> list[list[int]]:
    """x -> x with x_i replaced by u*x_i, for each coordinate i and unit u of f_i."""
    points = [group.decode(x) for x in range(group.order)]
    return [
        [group.encode(x[:i] + group.scalar(u, x)[i:i + 1] + x[i + 1:]) for x in points]
        for i, f in enumerate(group.factors)
        for u in range(2, f)
        if math.gcd(u, f) == 1
    ]


def _transvections(group: GroupType) -> list[list[int]]:
    """Every transvection x -> x + k*x_i*e_j, i != j, k = f_j / gcd(f_i, f_j),
    from GroupType.add."""
    points = [group.decode(x) for x in range(group.order)]
    basis = [group.decode(e) for e in _basis(group)]
    fs = group.factors
    return [
        [group.encode(group.add(x, group.scalar(fs[j] // math.gcd(fs[i], fs[j]) * x[i], basis[j]))) for x in points]
        for i in range(group.rank)
        for j in range(group.rank)
        if i != j
    ]


def _orbit_labels(group: GroupType) -> list[int]:
    """Least index of each element's orbit, by a closure over every
    transvection and the unit scalings of each coordinate."""
    perms = [*_transvections(group), *_unit_scalings(group)]
    label = [-1] * group.order
    for start in range(group.order):
        if label[start] < 0:
            label[start] = start
            todo = [start]
            while todo:
                x = todo.pop()
                for perm in perms:
                    if label[perm[x]] < 0:
                        label[perm[x]] = start
                        todo.append(perm[x])
    return label


def test_anchor_generators_are_adjacent():
    # 2(r - 1) adjacent transvections, where all pairs would give r(r - 1)
    for factors in [(2,) * r for r in range(1, 8)] + [(3, 3, 3), (2, 4, 8), (2, 2, 6, 12)]:
        r = len(factors)
        assert sum(1 for _ in _anchor_generators(factors)) == 2 * (r - 1), factors


def test_anchors_coarsen_unit_multiple_orbits():
    # The anchors, merged over the adjacent transvections only, are the
    # orbits of all r(r - 1) transvections and the per-coordinate unit
    # scalings, each built here from GroupType.  No orbit of g -> u*g with
    # u coprime to the exponent is split by them.
    for n in range(2, 65):
        for g in abelian_types(n):
            units = [u for u in range(1, g.exponent) if math.gcd(u, g.exponent) == 1]
            label = _orbit_labels(g)
            assert _anchor_representatives(g.factors) == tuple(sorted(set(label))), g
            for x in range(n):
                assert {label[g.encode(g.scalar(u, g.decode(x)))] for u in units} == {label[x]}, (g, x)


def _automorphisms(group: GroupType) -> list[list[int]]:
    """Every automorphism as an index permutation, from all images of a basis."""
    n = group.order
    basis = _basis(group)
    # x = prev + e_k, where k is x's lowest nonzero coordinate
    steps = []
    for x in range(1, n):
        k = next(i for i, c in enumerate(group.decode(x)) if c)
        steps.append((x, add_indices(group, x, neg_index(group, basis[k])), k))
    zero = group.zero()
    choices = [[y for y in range(n) if group.scalar(f, group.decode(y)) == zero] for f in group.factors]
    autos = []
    for images in itertools.product(*choices):
        perm = [0] * n
        for x, prev, k in steps:
            perm[x] = add_indices(group, perm[prev], images[k])
        if len(set(perm)) == n:
            autos.append(perm)
    return autos


def test_anchors_are_automorphism_orbits():
    # Brute force over Aut(G) on every type of order <= 16 but Z2^4, whose
    # 2^16 basis images would take seconds (test_anchor_counts pins it).
    checked = 0
    for n in range(2, 17):
        for g in abelian_types(n):
            if g.factors == (2, 2, 2, 2):
                continue
            autos = _automorphisms(g)
            least = {min(a[x] for a in autos) for x in range(n)}
            assert _anchor_representatives(g.factors) == tuple(sorted(least)), g
            checked += 1
    assert checked == 23


def test_anchor_counts():
    counts = {
        (2, 2, 2, 2): 2, (2, 2, 2, 2, 2): 2, (2, 2, 4): 4, (4, 4): 3, (2, 8): 6, (2, 2, 2, 6): 4, (2, 2, 12): 8,
    }
    assert {f: len(_anchor_representatives(f)) for f in counts} == counts


SMALL_TYPES = [g for n in range(2, 33) for g in abelian_types(n)]


@pytest.mark.parametrize("group", SMALL_TYPES, ids=str)
def test_multiples_match_scalar_index(group):
    # and the preimages {y : k*y = m} the search filters by, each the
    # kernel shifted by the least root; an m with no root gets n
    n = group.order
    for k in list(range(6)) + [group.exponent - 1, group.exponent + 2, -1]:
        times = [scalar_index(group, k, x) for x in range(n)]
        assert _multiples(group.factors, k) == tuple(times), k
        kernel, least = _preimages(group.factors, k)
        assert kernel == sum(1 << y for y, ky in enumerate(times) if ky == 0), k
        for m in range(n):
            roots = [y for y, ky in enumerate(times) if ky == m]
            assert least[m] == min(roots, default=n), (k, m)
            assert kernel << least[m] == sum(1 << y for y in roots) or not roots, (k, m)


def test_anchor_and_preimage_tables_are_linear():
    # Both tables hold a few ints per element.  One permutation per unit of
    # Z4096 would take about 300 MB, all 110 transvections of Z2^11 held at
    # once about 8 MB, and one mask per element of Z16384 about 13 MB.
    cases = [(_anchor_representatives, ((4096,),)), (_anchor_representatives, ((2,) * 11,)), (_preimages, ((16384,), 2))]
    for build, args in cases:
        tracemalloc.start()
        try:
            build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (build.__name__, peak)


@pytest.mark.parametrize("group", SMALL_TYPES, ids=str)
def test_maximal_subgroups_are_the_prime_index_subgroups(group):
    # the reference lattice is built by closure, not from maps to Z_p
    n = group.order
    want = [s.bits for s in enumerate_subgroups(group) if factorize(n // s.size).get(n // s.size) == 1]
    assert sorted(_maximal_subgroups(group.factors)) == sorted(want)


@pytest.mark.parametrize("group", [g for n in range(2, 65) for g in abelian_types(n)], ids=str)
def test_maximal_subgroup_masks_decide_generation(group):
    # Random sets of every size up to rank + 2 (small ones often lie in a
    # maximal subgroup) and preimages of random quotient masks at every
    # divisor, {0} among them, so the kernels themselves are tried too.
    n = group.order
    rng = random.Random(n * 7 + group.rank)
    layout = layout_for(group)
    masks = _maximal_subgroups(group.factors)
    sets = [0, 1, layout.full]
    for k in range(1, min(n, group.rank + 2) + 1):
        sets += [sum(1 << x for x in rng.sample(range(n), k)) for _ in range(4)]
    for d in divisors(n)[1:]:
        spec = quotient_spec(group, d)
        for bits in (1, rng.getrandbits(d), rng.getrandbits(d)):
            sets.append(lift_preimage(spec, GroupSubset(spec.quotient, bits)).bits)
    verdicts = set()
    for bits in sets:
        generates = closure_bits(layout, bits) == layout.full
        assert all(bits & ~m for m in masks) == generates, hex(bits)
        verdicts.add(generates)
    assert verdicts == {True, False}


def _layer(group: GroupType, kind: CriticalKind, bits: int, target: int, k: int | None) -> int:
    """target - kA, target - [0,k]A or (k None) target - Sum(A), from the public sumsets."""
    subset = GroupSubset(group, bits)
    if not bits or k == 0:
        reached = [] if kind.mode == "hfold" and k else [0]  # kA = {} for k >= 1, else {0}
    elif kind.mode == "hfold":
        reached = hfold_sumset(subset, k).indices()
    elif kind.mode == "interval":
        reached = interval_sumset(subset, k).indices()
    else:
        reached = subset_sums(subset).indices()
    return sum(1 << add_indices(group, target, neg_index(group, x)) for x in reached)


def _conflict_layer(group: GroupType, kind: CriticalKind, bits: int, target: int) -> int:
    """target - (h-2)A, target - [0,s-2]A or target - Sum(A)."""
    return _layer(group, kind, bits, target, None if kind.mode == "sums" else kind.param - 2)


def _entry_filter(group: GroupType, param: int | None, cand: int, before: list[int], layers: list[int]) -> int:
    """What a search node keeps of its parent's cand.

    It drops D[param - 1] and, for 2 <= j <= param, the preimages under j of
    the elements of D[param - j] that are not in the parent's layer
    before[param - j].
    """
    got = cand & ~layers[-1]
    for j in range(2, (param or 1) + 1):
        kernel, least = _preimages(group.factors, j)
        fresh = layers[param - j] & ~before[param - j]
        for z in GroupSubset(group, fresh).indices():
            got &= ~(kernel << least[z])
    return got


@pytest.mark.parametrize("group", SMALL_TYPES, ids=str)
def test_singleton_hits_match_kernel_expansion(group):
    # Root states: A = {0} ({} for chi_hat_h and cr_star, which do not hold
    # it) with the parent layers all empty, every kind at param 1..4 and
    # every g that A misses.  The filter must drop exactly the singletons y
    # that hit g, those for which the kernel expansion of A | {y} reaches g.
    layout = layout_for(group)
    kinds = [CriticalKind(tag, p) for tag in KIND_TAGS if tag not in ("cr", "cr_star") for p in range(1, 5)]
    for kind in kinds + [CriticalKind("cr"), CriticalKind("cr_star")]:
        bits = 0 if kind.tag in ("chi_hat_h", "cr_star") else 1
        pool = layout.full & ~bits & ~(1 if kind.excludes_zero else 0)
        reach = {y: _expansion(layout, kind, bits | 1 << y) for y in GroupSubset(group, pool).indices()}
        targets = GroupSubset(group, layout.full & ~_expansion(layout, kind, bits)).indices()
        assert targets, kind
        for target in targets:
            layers = [_layer(group, kind, bits, target, k) for k in (range(kind.param) if kind.param else [None])]
            want = sum(1 << y for y, r in reach.items() if not r >> target & 1)
            got = _entry_filter(group, kind.param, pool, [0] * len(layers), layers)
            assert got == want, (kind, target)


def test_incremental_middle_filter_matches_full_filter():
    # Random search states: the layers D[k] of A (k < param) from the public
    # sumsets, and cand, the y whose j*y misses D[param - j] for every
    # 1 <= j <= param, by the full per-element filter.  A child of x filters
    # cand - x by D'[param - 1] and, for 2 <= j <= param, by the preimages
    # under j of the elements new to D'[param - j] alone; that must leave
    # what the full filter leaves of cand - x against the child's layers.
    rng = random.Random(23)
    groups = [g for n in range(2, 17) for g in abelian_types(n)]
    tags = ("chi_h", "chi_hat_h", "chi_interval", "chi_hat_interval")
    kinds = [CriticalKind(tag, p) for tag in tags for p in (3, 4, 5)]
    states = pops = dropped = 0
    while states < 300:
        group, kind = rng.choice(groups), rng.choice(kinds)
        n, param = group.order, kind.param
        layout = layout_for(group)
        target = rng.randrange(n)
        bits = sum(1 << x for x in rng.sample(range(n), rng.randrange(min(4, n))))

        def misses(mask):
            return not _expansion(layout, kind, mask) >> target & 1

        if not misses(bits):
            continue
        times = {j: [scalar_index(group, j, y) for y in range(n)] for j in range(1, param + 1)}

        def layers(a):
            return [_layer(group, kind, a, target, k) for k in range(param)]

        def full_filter(pool, d):
            return sum(1 << y for y in pool if not any(d[param - j] >> times[j][y] & 1 for j in times))

        d = layers(bits)
        cand = full_filter([y for y in range(n) if not bits >> y & 1], d)
        assert cand == sum(1 << y for y in range(n) if not bits >> y & 1 and misses(bits | 1 << y))
        for x in GroupSubset(group, cand).indices():
            rest = cand ^ 1 << x
            child = layers(bits | 1 << x)
            want = full_filter(GroupSubset(group, rest).indices(), child)
            got = _entry_filter(group, param, rest, d, child)
            assert got == want, (group, kind, hex(bits), target, x)
            pops += 1
            dropped += got != rest & ~child[param - 1]
        states += 1
    assert pops > 1000 and dropped > 300, (pops, dropped)


def _check_matching(group: GroupType, layer: int, cand: int, mate: dict[int, int]) -> None:
    """mate pairs conflicting candidates: each partner maps back, both ends
    lie in cand, and y + z lies in layer."""
    for y, z in mate.items():
        assert y != z and mate[z] == y, (hex(y), hex(z))
        assert y & cand and z & cand and y.bit_count() == z.bit_count() == 1, (hex(y), hex(z))
        assert layer >> add_indices(group, y.bit_length() - 1, z.bit_length() - 1) & 1, (hex(y), hex(z))


def test_matching_bound_is_sound():
    # Random search states (A missing target, cand the elements that keep it
    # missing).  The matching maps each matched candidate to its partner.
    # The search cuts when it reaches need = |A| + |cand| - best pairs, so it
    # must never reach the least need that would lose the largest extension
    # of A inside cand, found by enumeration.
    rng = random.Random(7)
    groups = [g for n in range(2, 13) for g in abelian_types(n)]
    kinds = [CriticalKind(tag, p) for tag in ("chi_h", "chi_interval") for p in (2, 3, 4)]
    kinds += [CriticalKind("cr"), CriticalKind("cr_star")]
    tight = states = 0
    while states < 300:
        group, kind = rng.choice(groups), rng.choice(kinds)
        n = group.order
        layout = layout_for(group)
        neg = _multiples(group.factors, -1)
        target = rng.randrange(n)
        pool = [x for x in range(n) if x or not kind.excludes_zero]
        bits = sum(1 << x for x in rng.sample(pool, rng.randrange(min(4, len(pool)))))

        def misses(mask):
            return not _expansion(layout, kind, mask) >> target & 1

        if not misses(bits):
            continue
        cand = [y for y in pool if not bits >> y & 1 and misses(bits | 1 << y)]
        cand = rng.sample(cand, min(len(cand), 10))
        cand_bits = sum(1 << y for y in cand)
        layer = _conflict_layer(group, kind, bits, target)
        largest = next(
            k
            for k in range(len(cand), -1, -1)
            if any(misses(bits | sum(1 << y for y in extra)) for extra in itertools.combinations(cand, k))
        )
        cut = len(cand) - largest + 1
        mate = _greedy_matching(layout, neg, layer, cand_bits, cut)
        _check_matching(group, layer, cand_bits, mate)
        assert len(mate) // 2 < cut, (group, kind, hex(bits), target, cand)
        states += 1
        # the bound is exact here: a matching of cut - 1 pairs is found
        tight += cut > 1 and len(_greedy_matching(layout, neg, layer, cand_bits, cut - 1)) // 2 == cut - 1
    assert tight > 100


def test_matching_bound_survives_pops():
    # The search runs its matching at most once per node, and each pop,
    # from the lowest candidate up or generation-first out of order, drops
    # only the popped candidate's pair.  After every pop, in index order and in
    # random order, the pairs left must still lie in what is left and bound
    # the largest extension of A inside it, for every need the matching may
    # have stopped at.  Keeping a popped candidate's pair while its partner
    # is left breaks the bound.
    rng = random.Random(11)
    order_rng = random.Random(13)
    groups = [g for n in range(2, 13) for g in abelian_types(n)]
    kinds = [CriticalKind(tag, p) for tag in ("chi_h", "chi_interval") for p in (2, 3)] + [CriticalKind("cr")]
    states = paired = stale_breaks = 0
    while states < 100:
        group, kind = rng.choice(groups), rng.choice(kinds)
        n = group.order
        layout = layout_for(group)
        neg = _multiples(group.factors, -1)
        target = rng.randrange(n)
        bits = sum(1 << x for x in rng.sample(range(1, n), rng.randrange(min(3, n - 1))))

        def misses(mask):
            return not _expansion(layout, kind, mask) >> target & 1

        if not misses(bits):
            continue
        cand = [y for y in range(n) if not bits >> y & 1 and misses(bits | 1 << y)]
        cand = sorted(rng.sample(cand, min(len(cand), 8)))
        layer = _conflict_layer(group, kind, bits, target)
        extensions = [
            extra
            for k in range(len(cand) + 1)
            for extra in itertools.combinations(cand, k)
            if misses(bits | sum(1 << y for y in extra))
        ]

        def slack(rest):
            return len(rest) - max(len(e) for e in extensions if set(e) <= set(rest))

        for need in range(1, len(cand) // 2 + 1):
            mate = _greedy_matching(layout, neg, layer, sum(1 << y for y in cand), need)
            paired += bool(mate)
            for order in (cand, order_rng.sample(cand, len(cand))):
                rest, pairs = list(cand), dict(mate)
                for x in order:
                    rest.remove(x)
                    if 1 << x in pairs:
                        del pairs[pairs.pop(1 << x)]
                    rest_bits = sum(1 << y for y in rest)
                    _check_matching(group, layer, rest_bits, pairs)
                    assert len(pairs) // 2 <= slack(rest), (group, kind, hex(bits), target, cand, need, rest)
                    kept = sum(1 for y, z in mate.items() if y < z and (y | z) & rest_bits)
                    stale_breaks += kept > slack(rest)
        states += 1
    assert paired > 100 and stale_breaks > 50, (paired, stale_breaks)


def test_matching_runs_at_most_once_per_node(monkeypatch):
    # A node runs the matching the first time half its candidates could
    # give the pairs it needs, and from then on only drops pairs as it
    # pops.  Every type of order <= 28, the four parametrized kinds at
    # 1..4 and cr/cr_star: no search frame may run it twice.
    match = oracle._greedy_matching
    frames = {}  # kept alive until the query ends, so no id is reused
    repeats = []

    def once(*args):
        frame = sys._getframe(1)
        assert frame.f_code.co_name == "descend"
        if frames.get(id(frame)) is frame:
            repeats.append(f"{q.group} {q.kind}")
        frames[id(frame)] = frame
        return match(*args)

    monkeypatch.setattr(oracle, "_greedy_matching", once)
    tags = ("chi_h", "chi_interval", "chi_hat_h", "chi_hat_interval")
    kinds = [CriticalKind(tag, p) for tag in tags for p in range(1, 5)] + [CriticalKind("cr"), CriticalKind("cr_star")]
    runs = 0
    for n in range(2, 29):
        for g in abelian_types(n):
            for kind in kinds:
                q = OracleQuery(g, kind)
                search_critical_witness(q, budget=n)
                runs += len(frames)
                frames.clear()
    assert runs > 10_000 and repeats == [], repeats[:5]


def test_brute_critical_returns_search_value():
    q = OracleQuery(GroupType((2, 10)), CriticalKind("chi_hat_interval", 3))
    assert brute_critical(q, budget=20) == search_critical_witness(q, budget=20)[0] == 9
    assert brute_critical(q, budget=20, workers=2) == 9


def test_brute_critical_validates_workers():
    q = OracleQuery(cyclic(6), CriticalKind("chi_h", 2))
    for bad in (0, -3, True, 1.5):
        with pytest.raises(InvalidWorkers):
            brute_critical(q, workers=bad)
    # any count >= 1 is accepted and starts no process
    assert brute_critical(q, workers=1) == brute_critical(q, workers=10**6) == critical_number(6, 2)


def test_worker_determinism(capsys):
    outputs = []
    for workers in ("1", "2"):
        argv = ["verify", "--quantity", "chi_hat_h", "--max-order", "16", "--h", "2..3", "--workers", workers]
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.endswith("all agree\n")


def test_brute_cr_examples():
    def cr(tag, n):
        return brute_critical(OracleQuery(cyclic(n), CriticalKind(tag)))

    assert cr("cr_star", 11) == 6
    assert cr("cr", 11) == 7
    assert cr("cr_star", 15) == 7
    assert cr("cr", 10) == 6


def test_budget_guard():
    q = OracleQuery(cyclic(21), CriticalKind("chi_h", 1))
    with pytest.raises(BudgetExceeded):
        brute_critical(q)
    with pytest.raises(BudgetExceeded):
        search_critical_witness(q)
    assert brute_critical(q, budget=21) == 21


def test_brute_sumfree():
    for n in range(2, 15):
        assert brute_max_sumfree(n) == max_sumfree_size(n)
    with pytest.raises(InvalidOrder):
        brute_max_sumfree(1)
    with pytest.raises(BudgetExceeded):
        brute_max_sumfree(25)


@pytest.mark.parametrize("budget", [True, 6.5, "20"])
def test_budget_must_be_an_integer(budget):
    # a bool, a float or a string is refused by name, not compared with the order
    q = OracleQuery(cyclic(6), CriticalKind("chi_h", 2))
    for ask in (brute_critical, brute_critical_witness, search_critical_witness):
        with pytest.raises(InvalidOrder, match="budget"):
            ask(q, budget=budget)
    with pytest.raises(InvalidOrder, match="budget"):
        brute_max_sumfree(6, budget=budget)


def _depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_recursion_limit_is_refused_by_name():
    # Both searches nest one call per element of their set.  With the limit
    # 20 frames above the caller, sets of about 20 elements pass it (chi_h
    # on Z128 nests 64 deep, a sum-free set of Z60 30 deep): each search must
    # refuse the query with BudgetExceeded, not a bare RecursionError, and
    # work again once the limit is back.
    chi = OracleQuery(cyclic(128), CriticalKind("chi_h", 2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 20)
    try:
        with pytest.raises(BudgetExceeded, match="recursion limit"):
            search_critical_witness(chi, budget=128)
        with pytest.raises(BudgetExceeded, match="recursion limit"):
            brute_max_sumfree(60, budget=60)
    finally:
        sys.setrecursionlimit(limit)
    assert search_critical_witness(chi, budget=128)[0] == critical_number(128, 2)
    assert brute_max_sumfree(60, budget=60) == max_sumfree_size(60)


def test_enumerate_subgroups_counts():
    subs = enumerate_subgroups(cyclic(6))
    assert len(subs) == 4
    assert [s.size for s in subs] == [1, 2, 3, 6]
    assert len(enumerate_subgroups(GroupType((2, 2)))) == 5
    assert len(enumerate_subgroups(GroupType((2, 2, 2)))) == 16
    for s in enumerate_subgroups(cyclic(12)):
        assert 12 % s.size == 0
        assert subgroup_generated(s) == s


def test_brute_quotient_types_examples():
    got = brute_quotient_types(GroupType((2, 4)))
    assert got == {GroupType((2,)), GroupType((4,)), GroupType((2, 2)), GroupType((2, 4))}
    assert brute_quotient_types(cyclic(12)) == {cyclic(d) for d in (2, 3, 4, 6, 12)}


def test_quotient_feasibility_matches_brute():
    # closed-form divisibility rule vs quotients computed from subgroups
    for n in range(2, 17):
        for g in abelian_types(n):
            realized = brute_quotient_types(g)
            candidates = set()
            for d in divisors(g.order):
                if d >= 2:
                    candidates.update(abelian_types(d))
            for cand in candidates:
                assert quotient_type_feasible(g, cand.factors) == (cand in realized)


def test_qualifying_subgroup_detector_matches_brute():
    # the arithmetic interval-3 test against subgroups found by closure
    for n in range(2, 17):
        for g in abelian_types(n):
            qualifying = [
                s.size for s in enumerate_subgroups(g)
                if s.size % 3 == 2 and any(g.scalar(2, e) != g.zero() for e in s.elements())
            ]
            assert interval3_branch_divisor(g) == min(qualifying, default=None), g
