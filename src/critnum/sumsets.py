"""Subsets of a finite abelian group and their sumsets.

Subsets are stored as Python integers used as bitmasks: bit i is set when
the element with flat index i belongs to the set.  Translating a set by a
group element then becomes a handful of shift-and-mask operations per
coordinate, and a pairwise sumset A+B is the union of |A| translates of B.
All higher operations (h-fold sumsets, interval sumsets, subset sums) are
built from that kernel, which is what makes exhaustive search over all
subsets feasible at small orders.

The h-fold kernel adds one fold at a time over a transversal P of A
modulo its axis-aligned stabilizer K = <m_1 e_1> + ... + <m_r e_r>:
every kA is K-periodic, so (k+1)A = kA + P, and |P| = |A|/|K|.  The
extremal sets the witnesses build are unions of cosets, so P is often a
handful of elements where A has thousands.  A fold stops early with the
whole group once |kA| + |A| > n, because then g - A meets kA for every g.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd

from .errors import EmptySetError, InvalidElement, InvalidOrder, InvalidS, SpecMismatch
from .formulas import _check_h
from .groups import GroupType, _is_int, factorize

# The largest order a Layout is built for.  It fits Z65536 (acceptance
# tier A13) with room to spare; at the limit a Layout takes about 0.25 s
# and 60-82 MB on a 2-vCPU x86_64 VM, growing linearly with the order.
MAX_LAYOUT_ORDER = 1 << 18


def _multiples(factors: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Flat index of k*x for every flat index x, one coordinate at a time."""
    table = [0]
    stride = 1
    for f in factors:
        table = [(k * c % f) * stride + prev for c in range(f) for prev in table]
        stride *= f
    return tuple(table)


class Layout:
    """Precomputed bit-level tables for one group shape.

    shift_ops[e] is a sequence of (keep, wrap, up, down) tuples; applying
    bits = ((bits << up) & keep) | ((bits & wrap) >> down) in order
    translates the set by the element with index e.  Each tuple rotates one
    mixed-radix coordinate within its blocks: `keep` drops the bits shifted
    out of their block, and `wrap` (the top `up` bits of each block) brings
    them back down.  The last coordinate's block is the whole mask, so its
    shifts are plain rotations sharing keep = wrap = full; a lower
    coordinate f holds two n-bit masks per shift, 2n(f - 1) bits in all.
    axes[i] is (stride, f, primes, rep) for coordinate i: the flat index of
    e_i, the factor, its primes, and the mask with one bit at the base of
    every block of stride * f bits.

    Orders above MAX_LAYOUT_ORDER are refused with InvalidOrder before any
    table is built.  Other modules' per-shape tables live in `tables`.
    """

    __slots__ = ("factors", "order", "full", "shift_ops", "axes", "tables")

    def __init__(self, factors: tuple[int, ...]):
        group = GroupType(factors)
        n = group.order
        if n > MAX_LAYOUT_ORDER:
            raise InvalidOrder(f"group order {n} exceeds the largest supported order {MAX_LAYOUT_ORDER}")
        self.factors = group.factors
        self.order = n
        self.full = full = (1 << n) - 1

        # Tables indexed by flat index, extended one coordinate at a time
        # with the first coordinate varying fastest.
        ops: list[tuple] = [()]
        axes = []
        stride = 1
        for f in group.factors:
            block = stride * f
            # A repeating-unit mask with one bit at the base of every block
            # stamps out block-periodic masks by multiplication.
            rep = full // ((1 << block) - 1)
            axes.append((stride, f, tuple(factorize(f)), rep))
            tails = [()]
            for up in range(stride, block, stride):
                if block == n:
                    tails.append(((full, full, up, n - up),))
                else:
                    low = rep * ((1 << (block - up)) - 1)
                    tails.append(((low << up, full ^ low, up, block - up),))
            ops = [prev + tail for tail in tails for prev in ops]
            stride = block
        self.shift_ops = tuple(ops)
        self.axes = tuple(axes)
        self.tables: dict[tuple, object] = {}

    def table(self, build, *args):
        """build(factors, *args), built on first use and dropped with this Layout."""
        if (build, args) not in self.tables:
            self.tables[build, args] = build(self.factors, *args)
        return self.tables[build, args]


_layouts: dict[GroupType, Layout] = {}


def layout_for(group: GroupType) -> Layout:
    """The cached Layout of a group.

    The cache is bounded by memory, which grows with the order: it keeps
    Layouts, each with its `Layout.table` tables, while their orders sum to
    at most 4 * MAX_LAYOUT_ORDER; a miss evicts the oldest until it fits.
    """
    layout = _layouts.get(group)
    if layout is None:
        layout = Layout(group.factors)
        held = layout.order + sum(kept.order for kept in _layouts.values())
        while held > 4 * MAX_LAYOUT_ORDER:
            held -= _layouts.pop(next(iter(_layouts))).order
        _layouts[group] = layout
    return layout


def translate_bits(layout: Layout, bits: int, index: int) -> int:
    """Mask of {a + g : a in bits} where g is the element with flat index."""
    for keep, wrap, up, down in layout.shift_ops[index]:
        bits = ((bits << up) & keep) | ((bits & wrap) >> down)
    return bits


def pairwise_bits(layout: Layout, a: int, b: int) -> int:
    """Mask of the sumset {x + y : x in a, y in b}."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    full = layout.full
    ops = layout.shift_ops
    acc = 0
    x = a
    while x:
        lowbit = x & -x
        x ^= lowbit
        y = b
        for keep, wrap, up, down in ops[lowbit.bit_length() - 1]:
            y = ((y << up) & keep) | ((y & wrap) >> down)
        acc |= y
        if acc == full:
            break
    return acc


def axis_periods(layout: Layout, bits: int) -> tuple[int, ...]:
    """The m_i of the largest K = <m_1 e_1> + ... + <m_r e_r> with A + K = A.

    The stabilizer of a nonempty A along axis i is a cyclic subgroup
    <m e_i> of <e_i>, so dividing m_i = f_i by each prime p of f_i while
    (m_i / p) e_i still fixes A reaches it.  A candidate K' is tried only
    when |K'| divides |A|, and only when the lowest element a of A has
    a + (m_i / p) e_i in A; the full translation test comes last.  The
    empty set gets the trivial K.
    """
    size = bits.bit_count()
    if not size:
        return layout.factors
    low = (bits & -bits).bit_length() - 1
    periods = []
    k = 1
    for stride, f, primes, _ in layout.axes:
        m = f
        for p in primes:
            while size % (k * p) == 0 and m % p == 0:
                t = m // p
                digit = low // stride % f
                if not bits >> (low + ((digit + t) % f - digit) * stride) & 1:
                    break
                if translate_bits(layout, bits, t * stride) != bits:
                    break
                m = t
                k *= p
        periods.append(m)
    return tuple(periods)


def transversal_bits(layout: Layout, bits: int) -> int:
    """A ∩ {x : x_i < m_i for every i}, one element of A per coset of K.

    K is the stabilizer `axis_periods` finds, so A is the disjoint union
    of the translates of this set by K.
    """
    periods = axis_periods(layout, bits)
    if periods == layout.factors:
        return bits
    mask = layout.full
    for (stride, f, _, rep), m in zip(layout.axes, periods):
        if m < f:
            # the low m * stride bits of every block of stride * f bits
            mask &= (rep << m * stride) - rep
    return bits & mask


def hfold_bits(layout: Layout, bits: int, h: int) -> int:
    """Mask of the h-fold sumset of a nonempty set: all sums of h terms.

    Each fold adds a transversal of A modulo its axis stabilizer, since
    kA is periodic under that stabilizer.  Once |kA| + |A| > n, every
    g - A meets kA, so (k+1)A and all later folds are the whole group.
    """
    n = layout.order
    size = bits.bit_count()
    step = bits
    # K is trivial when gcd(|A|, n) = 1, and no fold runs when h = 1 or
    # the first fold already fills G
    if h > 1 and 2 * size <= n and gcd(size, n) > 1:
        step = transversal_bits(layout, bits)
    cur = bits
    for _ in range(h - 1):
        if cur.bit_count() + size > n:
            return layout.full
        cur = pairwise_bits(layout, cur, step)
    return cur


def interval_bits(layout: Layout, bits: int, s: int) -> int:
    """Mask of the union of the 0-fold through s-fold sumsets.

    That union is the s-fold sumset of the set with zero added.
    """
    return hfold_bits(layout, bits | 1, s) if s else 1


def subset_sums_bits(layout: Layout, bits: int) -> int:
    """Mask of all sums over subsets of the set; the empty subset gives 0."""
    acc = 1
    x = bits
    while x:
        lowbit = x & -x
        x ^= lowbit
        acc |= translate_bits(layout, acc, lowbit.bit_length() - 1)
        if acc == layout.full:
            break
    return acc


class GroupSubset(namedtuple("GroupSubset", "group bits")):
    """An immutable subset of a fixed group, stored as a bitmask."""

    __slots__ = ()

    def __new__(cls, group: GroupType, bits: int) -> GroupSubset:
        if not _is_int(bits) or bits < 0 or bits >> group.order:
            raise InvalidElement(f"bitmask {bits!r} does not fit order {group.order}")
        return tuple.__new__(cls, (group, bits))

    @classmethod
    def _make(cls, fields: Iterable) -> GroupSubset:
        """Build through `__new__`, so that `_replace` validates too."""
        return cls(*fields)

    @classmethod
    def from_indices(cls, group: GroupType, indices: Iterable[int]) -> "GroupSubset":
        bits = 0
        n = group.order
        for i in indices:
            if not _is_int(i) or not 0 <= i < n:
                raise InvalidElement(f"index {i!r} out of range for order {n}")
            bits |= 1 << i
        return cls(group, bits)

    @classmethod
    def from_elements(cls, group: GroupType, elements: Iterable[Sequence[int]]) -> "GroupSubset":
        return cls.from_indices(group, (group.encode(e) for e in elements))

    @classmethod
    def empty(cls, group: GroupType) -> "GroupSubset":
        return cls(group, 0)

    @classmethod
    def whole(cls, group: GroupType) -> "GroupSubset":
        return cls(group, (1 << group.order) - 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        out = []
        x = self.bits
        while x:
            low = x & -x
            x ^= low
            out.append(low.bit_length() - 1)
        return out

    def elements(self) -> list[tuple[int, ...]]:
        return [self.group.decode(i) for i in self.indices()]

    def contains_index(self, i: int) -> bool:
        return 0 <= i < self.group.order and bool(self.bits >> i & 1)

    def contains(self, element: Sequence[int]) -> bool:
        return bool(self.bits >> self.group.encode(element) & 1)

    def translated(self, element: Sequence[int]) -> "GroupSubset":
        idx = self.group.encode(element)
        return GroupSubset(self.group, translate_bits(layout_for(self.group), self.bits, idx))

    def _same_group(self, other: "GroupSubset") -> None:
        if self.group != other.group:
            raise SpecMismatch(f"subsets live in different groups: {self.group} vs {other.group}")

    def union(self, other: "GroupSubset") -> "GroupSubset":
        self._same_group(other)
        return GroupSubset(self.group, self.bits | other.bits)

    def intersect(self, other: "GroupSubset") -> "GroupSubset":
        self._same_group(other)
        return GroupSubset(self.group, self.bits & other.bits)

    def issubset(self, other: "GroupSubset") -> bool:
        self._same_group(other)
        return self.bits & ~other.bits == 0

    # Serialization.  The element-list form is a sorted list of coordinate
    # lists; the hex form is the bitmask in lowercase hex, padded so its
    # length depends only on the group order.

    def to_element_list(self) -> list[list[int]]:
        return [list(e) for e in self.elements()]

    def to_hex(self) -> str:
        width = (self.group.order + 3) // 4
        return format(self.bits, f"0{width}x")

    @classmethod
    def from_hex(cls, group: GroupType, text: str) -> "GroupSubset":
        width = (group.order + 3) // 4
        if len(text) != width or any(c not in "0123456789abcdef" for c in text):
            raise InvalidElement(
                f"hex mask {text!r} should be {width} lowercase hex digits for order {group.order}"
            )
        return cls(group, int(text, 16))

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elements()) + "}"


def pairwise_sumset(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """The sumset A + B = {x + y : x in A, y in B}."""
    a._same_group(b)
    return GroupSubset(a.group, pairwise_bits(layout_for(a.group), a.bits, b.bits))


def hfold_sumset(a: GroupSubset, h: int) -> GroupSubset:
    """The h-fold sumset hA: all sums of exactly h elements of A (h >= 1)."""
    _check_h(h)
    if a.bits == 0:
        raise EmptySetError("h-fold sumset of the empty set is undefined")
    return GroupSubset(a.group, hfold_bits(layout_for(a.group), a.bits, h))


def interval_sumset(a: GroupSubset, s: int) -> GroupSubset:
    """The interval sumset [0,s]A: union of kA for 0 <= k <= s.

    The 0-fold term is {0}, so the result always contains zero.
    """
    if not _is_int(s) or s < 0:
        raise InvalidS(f"interval length must be an integer >= 0, got {s!r}")
    if a.bits == 0:
        raise EmptySetError("interval sumset of the empty set is undefined")
    return GroupSubset(a.group, interval_bits(layout_for(a.group), a.bits, s))


def subset_sums(a: GroupSubset) -> GroupSubset:
    """All sums over subsets of A; the empty subset contributes 0."""
    return GroupSubset(a.group, subset_sums_bits(layout_for(a.group), a.bits))


def is_complete(a: GroupSubset) -> bool:
    """True when the subset is the whole group."""
    return a.bits == layout_for(a.group).full
