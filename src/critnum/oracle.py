"""Exact oracle: a branch-and-bound search and the literal subset scan.

Every critical number is 1 plus the size of the largest qualifying set
(for the generating-restricted kinds, the largest generating set) whose
expansion misses some element g.  `search_critical_witness` fixes g and
runs a depth-first search over the candidate elements, in which the root
is a node like any other; `brute_critical` returns its value.  For every
kind but `chi_hat_h` and `cr_star` it searches only sets holding 0.
Every node takes its own set as the best when it qualifies.  Besides the
size cut, the search cuts a branch by a greedy matching in the graph of
candidate pairs that cannot join together, from which each pop drops
only its own pair, and, for the generating kinds, when all it can still
reach lies in one maximal subgroup; it tests generation against one mask
per maximal subgroup (by closure for groups with more than
`_MAX_MASKS`), and branches first on a candidate outside the masks that
still contain the set, so that the generation cut fires early.
The search shares no logic with the closed forms.

`brute_critical_witness` is the definition-literal scan and the ground
truth the search is tested against.  It enumerates subset sizes in
descending order and stops at the first size that contains a qualifying
incomplete set; sizes are never skipped, which keeps the scan valid for
the generating-restricted variants where incompleteness alone is not
downward-closed.  Both run serially in the calling process.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Iterator

from .errors import BudgetExceeded, InvalidOrder, InvalidWorkers
from .formulas import CriticalKind
from .groups import GroupType, _is_int, factorize
from .quotients import closure_bits
from .sumsets import (
    GroupSubset,
    _multiples,
    hfold_bits,
    interval_bits,
    layout_for,
    subset_sums_bits,
    translate_bits,
)
from .witnesses import _verified

DEFAULT_QUERY_BUDGET = 20
DEFAULT_SWEEP_BUDGET = 16


class OracleQuery(namedtuple("OracleQuery", "group kind")):
    """A single brute-force question: one group, one critical quantity.

    The kind says whether only generating sets count and whether zero is
    left out of the domain.
    """

    __slots__ = ()


def _check_budget(n: int, budget: int | None) -> None:
    limit = DEFAULT_QUERY_BUDGET if budget is None else budget
    if not _is_int(limit):
        raise InvalidOrder(f"the oracle budget must be an integer order bound, got {budget!r}")
    if n > limit:
        raise BudgetExceeded(
            f"group order {n} exceeds the oracle budget {limit}; "
            f"pass an explicit larger budget to acknowledge the cost"
        )


def brute_critical_witness(
    query: OracleQuery, *, budget: int | None = None
) -> tuple[int, GroupSubset | None]:
    """The critical value together with a largest qualifying incomplete set.

    Returns (1 + max incomplete qualifying size, witness); when no subset
    qualifies at all the value is 1 and the witness is None (or the empty
    set for the subset-sum kinds, where the empty set itself qualifies).

    This is the literal scan over all subsets, largest size first; within
    a size the first qualifying combination in index order wins.
    """
    group = query.group
    n = group.order
    _check_budget(n, budget)
    layout = layout_for(group)
    full = layout.full
    kind = query.kind
    pool = range(1, n) if kind.excludes_zero else range(n)
    min_k = 0 if kind.mode == "sums" else 1
    for k in range(len(pool), min_k - 1, -1):
        for combo in itertools.combinations(pool, k):
            bits = 0
            for i in combo:
                bits |= 1 << i
            if _expansion(layout, kind, bits) == full:
                continue
            if kind.restricts_to_generating and closure_bits(layout, bits) != full:
                continue
            return k + 1, GroupSubset(group, bits)
    return 1, None


def _digits(factors: tuple[int, ...]) -> list[tuple[int, int, tuple[int, ...]]]:
    """Per coordinate j: the flat index of e_j, f_j, and x_j for every flat index x."""
    strides = [math.prod(factors[:j]) for j in range(len(factors))]
    return [(s, f, tuple(x // s % f for x in range(math.prod(factors)))) for s, f in zip(strides, factors)]


# Past this many maximal subgroups the search tests generation by closure.
_MAX_MASKS = 64


def _maximal_subgroups(factors: tuple[int, ...]) -> tuple[int, ...] | None:
    """One mask per maximal subgroup of the group with these factors.

    The maximal subgroups of a finite abelian group are the kernels of its
    nonzero maps to Z_p, p prime.  Such a map sends x to sum(a_j * x_j)
    mod p over the coordinates j with p | f_j, and unit multiples of the
    coefficients a give the same kernel, so a runs over the vectors whose
    first nonzero entry is 1: (p^r - 1) / (p - 1) masks for the r
    coordinates that p divides.  A set generates the group exactly when
    `all(bits & ~m for m in masks)`.  None when there are more than
    `_MAX_MASKS`: Z_p^r alone has (p^r - 1) / (p - 1), about one n-bit mask
    per element.
    """
    primes = factorize(math.prod(factors))
    if sum((p ** sum(f % p == 0 for f in factors) - 1) // (p - 1) for p in primes) > _MAX_MASKS:
        return None
    digits = _digits(factors)
    masks = []
    for p in primes:
        axes = [column for _, f, column in digits if f % p == 0]
        for lead, first in enumerate(axes):
            for coeffs in itertools.product(range(p), repeat=len(axes) - lead - 1):
                values = first
                for a, column in zip(coeffs, axes[lead + 1:]):
                    values = [v + a * c for v, c in zip(values, column)]
                masks.append(sum(1 << x for x, v in enumerate(values) if v % p == 0))
    return tuple(masks)


def _anchor_generators(factors: tuple[int, ...]) -> Iterator[list[int]]:
    """The 2(r - 1) adjacent transvections of rank r, as index permutations
    whose orbits `_anchor_representatives` merges, yielded one at a time.

    Each adds k*x_i to x_j for j = i +- 1, k = f_j / gcd(f_i, f_j), so
    f_i*k*e_j = 0 and e_i -> e_i + k*e_j is an automorphism with inverse -k.
    Their commutators give every other transvection, as k_ij*k_jl = k_il
    going up ((f_j/f_i)(f_l/f_j) = f_l/f_i) and every k is 1 going down.
    The unit scalings are merged by `_anchor_representatives` itself.
    """
    digits = _digits(factors)
    for i, (_, f, column) in enumerate(digits):
        for j in (i - 1, i + 1):
            if 0 <= j < len(digits):
                s, fj, target = digits[j]
                k = fj // math.gcd(f, fj)
                yield [x + ((t + k * c) % fj - t) * s for x, (t, c) in enumerate(zip(target, column))]


def _anchor_representatives(factors: tuple[int, ...]) -> tuple[int, ...]:
    """The least index of every orbit of g -> sigma(g); 0 is the first.

    sigma runs over the automorphisms generated by unit scalings x_i -> u*x_i
    and `_anchor_generators`' transvections.  Union-find merges the orbits
    over the generators and, as c and gcd(c, f) are unit multiples mod f, over
    x_i -> gcd(x_i, f_i) for each f_i > 2.  Each map keeps what the search asks
    of an anchor: if A misses g in its expansion then sigma(A) misses sigma(g),
    and sigma(A) holds 0 or generates when A does.  Maps short of all of
    Aut(G) leave more anchors, never another value.
    """
    root = list(range(math.prod(factors)))
    links = ([x + (math.gcd(c, f) % f - c) * s for x, c in enumerate(column)]
             for s, f, column in _digits(factors) if f > 2)

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for perm in itertools.chain(links, _anchor_generators(factors)):
        for x, y in enumerate(perm):
            a, b = find(x), find(y)
            if a != b:
                root[max(a, b)] = min(a, b)
    return tuple(x for x in range(len(root)) if find(x) == x)


def _expansion(layout, kind: CriticalKind, bits: int) -> int:
    """Mask of the expansion a kind measures: hA, [0,s]A or Sum(A)."""
    if kind.mode == "hfold":
        return hfold_bits(layout, bits, kind.param)
    if kind.mode == "interval":
        return interval_bits(layout, bits, kind.param)
    return subset_sums_bits(layout, bits)


def _preimages(factors: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]]:
    """The kernel mask K of y -> j*y and, per m, the least root of j*y = m or n.

    Both are read off the table of multiples.  The roots of j*y_i = m_i
    step by K's period p_i = f_i / gcd(j, f_i) from one below p_i, so
    {y : j*y = m} = K << least[m] with no carry; K << n drops nothing
    below n.
    """
    multiples = _multiples(factors, j)
    least = [len(multiples)] * len(multiples)
    for y in reversed(range(len(multiples))):
        least[multiples[y]] = y
    return sum(1 << y for y, m in enumerate(multiples) if not m), tuple(least)


def _greedy_matching(layout, neg, layer: int, cand: int, need: int) -> dict[int, int]:
    """A greedy matching in the conflict graph on cand, as a map from each
    matched candidate's bit to its partner's bit.

    y and z conflict when y + z lies in layer, so the neighbours of y are
    (layer - y) & cand: one translation, by neg[y], per candidate taken in
    index order.  Each pair is taken out of the free candidates as it is
    matched, so no vertex is in two pairs.  The matching stops growing
    once it has need pairs or the free candidates left cannot bring it
    there.
    """
    free = cand
    left = cand.bit_count()
    mate: dict[int, int] = {}
    matched = 0
    while matched < need <= matched + left // 2:
        y = free & -free
        free ^= y
        left -= 1
        partners = translate_bits(layout, layer, neg[y.bit_length() - 1]) & free
        if partners:
            z = partners & -partners
            free ^= z
            left -= 1
            mate[y] = z
            mate[z] = y
            matched += 1
    return mate


def search_critical_witness(
    query: OracleQuery, *, budget: int | None = None
) -> tuple[int, GroupSubset | None]:
    """The critical value and a largest qualifying incomplete set, by search.

    Same value and conventions as `brute_critical_witness` (value 1 and no
    witness when no set qualifies; the empty set is a witness for
    `cr_star`), but the witness may be a different extremal set; for
    every kind but `chi_hat_h` and `cr_star` it holds 0.

    For each anchor g, one per orbit of `_anchor_representatives` (the
    automorphisms generated by per-coordinate unit scalings and
    transvections), a depth-first search adds pool elements one at a time to
    a root set and keeps the layers D[k] = g - [0,k]A (interval kinds) or
    g - kA (h-fold kinds) for k < param, where the new set's layers are
    D'[0] = {g} and D'[k] = D[k] | (D'[k-1] - x).  Holding 0 keeps a largest
    set, as [0,s]A = [0,s](A | {0}), Sum(A | {0}) = Sum(A), and hA misses g
    exactly when h(A - a) misses g - h*a for a in A.  So every kind but two
    starts from {0}, whose layers are all {g}, never branches on 0 and drops
    the anchor 0, which its expansions all hold.  `chi_hat_h` (0 can change
    hA, and a translate need not generate) and `cr_star` (0 lies outside its
    domain) start from the empty set; `cr_star` drops the anchor 0, which
    every Sum(A) holds.  The expansion of A + {y} reaches g exactly when j*y
    lies in D[param - j] for some 1 <= j <= param, so each node, the root
    included, filters the candidates its parent left against its layers on
    entry; a filtered candidate never returns, because the layers only grow.
    For the same reason a node tests only what is new to its layers since
    its parent's (all empty above the root): j = 1 is one mask operation,
    and for 2 <= j <= param each element m new to D[param - j] drops its
    preimages {y : j*y = m}, a shifted kernel (`_preimages`).  For subset
    sums the single layer is D = g - Sum(A) with D' = D | (D - x).

    A node branches on its lowest candidate, except that for the generating
    kinds it takes, among the masks that still contain its set, the one
    leaving the fewest candidates outside, and branches on the lowest of
    those unless the lowest candidate is one.  The popped element joins the
    child and leaves the rest of the loop, so every order is exhaustive.

    Every node, the root included, takes its own set as the best on entry
    when it is larger than the best found for any anchor so far and, for
    the generating kinds, generates.  Three cuts end a branch whose sets
    cannot beat that best:
    - size: its size plus its candidates;
    - matching: two candidates y, z cannot both join when y + z lies in
      D[param - 2] (the layer D for subset sums), so the sets grow by an
      independent set of that conflict graph and a matching M of it bounds
      them by size + |cand| - |M|.  A node runs `_greedy_matching` when
      |cand| // 2 pairs would be enough and best has grown since its last
      run; in between, each pop drops only its own pair, if it has one;
    - generation (generating kinds only): the set and all its candidates
      lie in one maximal subgroup.
    Each node keeps the masks of `_maximal_subgroups` that contain its set,
    so a set generates when none is left; past `_MAX_MASKS` masks there is
    no generation cut or generation-first branch, and a would-be new best
    is tested by `closure_bits`.
    The result passes `witnesses._verified` before it is returned.  Every
    table the search reads lives and dies with the group's `Layout`.  It
    nests one call per set element, so a set past the interpreter's
    recursion limit (about 1,000 elements) raises BudgetExceeded.
    """
    group = query.group
    n = group.order
    _check_budget(n, budget)
    layout = layout_for(group)
    full = layout.full
    neg = layout.table(_multiples, -1)
    kind = query.kind
    mode = kind.mode
    param = kind.param
    deeper = range(1, param or 1)  # the layers past D[0]; subset sums have none
    restrict = kind.restricts_to_generating
    # h terms of a generating set: 0 can change hA, and a translate need not generate
    free = restrict and mode == "hfold"
    held = 0 if free or kind.excludes_zero else 1
    pool = full if free else full ^ 1
    # 0 lies in Sum(A) and in every expansion of a set holding 0
    anchors = layout.table(_anchor_representatives)[0 if free else 1:]
    # Candidate y is dropped when j*y lands in layer param - j; the layer
    # D[0] = {g} that j = param reads is new only at the root.
    middle = [(param - j, *layout.table(_preimages, j)) for j in range(2, param + 1)] if param else []

    maxes = layout.table(_maximal_subgroups) if restrict else ()  # None: test new bests by closure
    # two candidates y, z conflict when y + z lies in this layer
    conflict_level = 0 if mode == "sums" else param - 2 if param >= 2 else None

    best = -1
    best_bits = 0

    def descend(bits: int, cand: int, before: list[int], layers: list[int], around: list[int]) -> None:
        # cand: the parent's remaining candidates; before: the parent's layers;
        # around: the masks of the maximal subgroups that contain bits
        nonlocal best, best_bits
        size = bits.bit_count()
        if size > best and not around and (maxes is not None or closure_bits(layout, bits) == full):
            best, best_bits = size, bits
        cand &= ~layers[-1]
        for level, kernel, least in middle:
            fresh = layers[level] & ~before[level]
            while fresh:
                z = fresh & -fresh
                fresh ^= z
                cand &= ~(kernel << least[z.bit_length() - 1])
        # a matching in cand's conflict graph, computed when best was
        # paired_at; popping a matched candidate takes its pair out
        mate, paired_at = {}, None
        while cand:
            count = cand.bit_count()
            if size + count - len(mate) // 2 <= best:
                return
            x = cand & -cand
            if around:
                # branch outside the mask that leaves the fewest candidates
                # outside; none left means bits | cand lies inside it
                outside = min((cand & ~m for m in around), key=int.bit_count)
                if not outside:
                    return
                if not x & outside:
                    x = outside & -outside
            need = size + count - best
            if conflict_level is not None and paired_at != best and count // 2 >= need:
                mate, paired_at = _greedy_matching(layout, neg, layers[conflict_level], cand, need), best
                if len(mate) // 2 >= need:
                    return
            cand ^= x
            if x in mate:
                del mate[mate.pop(x)]
            minus_x = neg[x.bit_length() - 1]
            prev = layers[0]
            if mode == "sums":  # D' = D | (D - x)
                prev |= translate_bits(layout, prev, minus_x)
            new_layers = [prev]
            for k in deeper:
                prev = layers[k] | translate_bits(layout, prev, minus_x)
                new_layers.append(prev)
            descend(bits | x, cand, layers, new_layers, [m for m in around if m & x] if around else around)

    try:
        for g in anchors:
            anchor = 1 << g
            # g - k{0} = g - [0,k]{0} = {g} for every k; g - k{} is empty for k >= 1
            layers = [anchor] + [anchor if held else 0] * len(deeper)
            descend(held, pool, [0] * len(layers), layers, list(maxes or ()))
    except RecursionError:
        raise BudgetExceeded(f"the {kind.tag} search on {group} nests one call per set element "
                             f"and passed the recursion limit {sys.getrecursionlimit()}") from None

    if best < 0:
        return 1, None
    _verified(f"search_critical_witness({kind.tag}, {param})", layout, best_bits, best,
              _expansion(layout, kind, best_bits), generating=restrict, zero_free=kind.excludes_zero)
    return best + 1, GroupSubset(group, best_bits)


def brute_critical(query: OracleQuery, *, budget: int | None = None, workers: int = 1) -> int:
    """The critical value, computed by `search_critical_witness`.

    The search runs in the calling process.  `workers` must be an integer
    >= 1 (InvalidWorkers otherwise) but does not change the work.
    """
    if not _is_int(workers) or workers < 1:
        raise InvalidWorkers(f"worker count must be an integer >= 1, got {workers!r}")
    value, _ = search_critical_witness(query, budget=budget)
    return value


def brute_max_sumfree(n: int, *, budget: int | None = None) -> int:
    """Maximum size of a subset of the cyclic group disjoint from its double.

    Depth-first search shaped as `search_critical_witness`: each node takes
    its sum-free set's size as the best, then pops its lowest candidate into
    a child while its size plus its candidates can beat the best.  It never
    consults the closed form.  It nests one call per set element, so a set
    past the recursion limit (about 1,000 elements) raises BudgetExceeded.
    """
    if not _is_int(n) or n < 2:
        raise InvalidOrder(f"sum-free search needs a cyclic order >= 2, got {n!r}")
    _check_budget(n, budget)
    layout = layout_for(GroupType((n,)))
    kernel, least = layout.table(_preimages, 2)
    best = 0

    def descend(bits: int, size: int, cand: int) -> None:
        nonlocal best
        best = max(best, size)
        while size + cand.bit_count() > best:
            x = cand & -cand
            cand ^= x
            e, grown = x.bit_length() - 1, bits | x
            # Pops go lowest first, so y lies above all of grown and y + a, a in bits,
            # misses x and x + n: only x + grown, grown - x and the halves of x drop y.
            drop = translate_bits(layout, grown, e) | translate_bits(layout, grown, n - e) | kernel << least[e]
            descend(grown, size + 1, cand & ~drop)

    try:
        descend(0, 0, layout.full ^ 1)
    except RecursionError:
        raise BudgetExceeded(f"the sum-free search on order {n} nests one call per set element "
                             f"and passed the recursion limit {sys.getrecursionlimit()}") from None
    return best
