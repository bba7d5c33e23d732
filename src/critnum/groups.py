"""Finite abelian groups in invariant-factor form.

A group is a tuple of invariant factors (n1, ..., nr) with n1 | n2 | ... | nr
and every ni >= 2.  Elements are coordinate tuples, one coordinate per factor.
Elements also carry a flat index in [0, n): the first coordinate is the least
significant digit of a mixed-radix expansion, so index 0 is the zero element
and the index order is the iteration order everywhere in this package.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .errors import InvalidElement, InvalidFactor, InvalidOrder


def _is_int(x) -> bool:
    """An int but not a bool: the type test every argument guard shares."""
    return isinstance(x, int) and not isinstance(x, bool)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if not _is_int(n) or n < 1:
        raise InvalidOrder(f"cannot factor {n!r}; need an integer >= 1")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    if not _is_int(n) or n < 1:
        raise InvalidOrder(f"divisors need an integer >= 1, got {n!r}")
    small = []
    large = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def is_prime(n: int) -> bool:
    if not _is_int(n):
        raise InvalidOrder(f"primality needs an integer, got {n!r}")
    return n >= 2 and smallest_prime_factor(n) == n


def smallest_prime_factor(n: int) -> int:
    if not _is_int(n) or n < 2:
        raise InvalidOrder(f"no prime factor for {n!r}")
    return min(factorize(n))


def _invariant_factors(entries: Sequence[int]) -> tuple[int, ...]:
    """Rewrite a list of cyclic orders as an invariant-factor chain.

    The input group Z_{e1} x ... x Z_{ek} is regrouped by collecting, for
    each prime, the exponents in decreasing order and multiplying matching
    positions back together.  The result satisfies the divisibility chain.
    """
    by_prime: dict[int, list[int]] = {}
    for e in entries:
        for p, a in factorize(e).items():
            by_prime.setdefault(p, []).append(a)
    rank = max(len(v) for v in by_prime.values())
    chain = []
    for j in range(rank):
        f = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if j < len(exps_sorted):
                f *= p ** exps_sorted[j]
        chain.append(f)
    return tuple(chain[::-1])


class GroupType(namedtuple("GroupType", "factors")):
    """A finite abelian group, normalized to invariant-factor form.

    The constructor accepts any tuple of integers >= 2 and normalizes it, so
    GroupType((4, 2)) == GroupType((2, 4)).  The trivial group is excluded.
    """

    __slots__ = ()

    def __new__(cls, factors: Sequence[int]) -> GroupType:
        fs = tuple(factors)
        if not fs:
            raise InvalidFactor("a group needs at least one factor")
        for f in fs:
            if not _is_int(f) or f < 2:
                raise InvalidFactor(f"factor {f!r} is not an integer >= 2")
        ok_chain = all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
        if not ok_chain:
            fs = _invariant_factors(fs)
        return tuple.__new__(cls, (fs,))

    @classmethod
    def _make(cls, fields: Iterable) -> GroupType:
        """Build through `__new__`, so that `_replace` validates too."""
        return cls(*fields)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[-1]

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) == 1

    @property
    def is_elementary_two(self) -> bool:
        """True for Z_2^r, the groups of exponent 2."""
        return self.exponent == 2

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def check_element(self, a: Sequence[int]) -> tuple[int, ...]:
        """Validate a coordinate tuple; returns it as a plain tuple."""
        t = tuple(a)
        if len(t) != len(self.factors):
            raise InvalidElement(f"{t!r} has {len(t)} coordinates, group has rank {self.rank}")
        for c, f in zip(t, self.factors):
            if not _is_int(c) or not 0 <= c < f:
                raise InvalidElement(f"coordinate {c!r} out of range for factor {f}")
        return t

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        a = self.check_element(a)
        b = self.check_element(b)
        return tuple((x + y) % f for x, y, f in zip(a, b, self.factors))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        a = self.check_element(a)
        return tuple((-x) % f for x, f in zip(a, self.factors))

    def scalar(self, k: int, a: Sequence[int]) -> tuple[int, ...]:
        """k-fold multiple of a; k may be any integer, including negatives."""
        a = self.check_element(a)
        return tuple((k * x) % f for x, f in zip(a, self.factors))

    def encode(self, a: Sequence[int]) -> int:
        """Flat index of an element; first coordinate is least significant."""
        a = self.check_element(a)
        idx = 0
        for c, f in zip(reversed(a), reversed(self.factors)):
            idx = idx * f + c
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        if not _is_int(index) or not 0 <= index < self.order:
            raise InvalidElement(f"index {index!r} out of range for order {self.order}")
        coords = []
        x = index
        for f in self.factors:
            x, c = divmod(x, f)
            coords.append(c)
        return tuple(coords)

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements in index order."""
        for i in range(self.order):
            yield self.decode(i)

    def __str__(self) -> str:
        return ",".join(str(f) for f in self.factors)


def cyclic(n: int) -> GroupType:
    """The cyclic group of order n >= 2."""
    if not _is_int(n) or n < 2:
        raise InvalidOrder(f"cyclic group order must be an integer >= 2, got {n!r}")
    return GroupType((n,))


def parse_group(text: str) -> GroupType:
    """Parse a group literal: "12" is cyclic Z_12, "2,2,4" is a product.

    Factor lists are normalized, so "4,2" parses to the group (2, 4).
    """
    s = text.strip()
    if not s:
        raise InvalidFactor("empty group literal")
    if "," not in s:
        try:
            n = int(s)
        except ValueError:
            raise InvalidOrder(f"group literal {text!r} is not an integer") from None
        return cyclic(n)
    parts = []
    for tok in s.split(","):
        tok = tok.strip()
        try:
            parts.append(int(tok))
        except ValueError:
            raise InvalidFactor(f"factor {tok!r} in {text!r} is not an integer") from None
    return GroupType(tuple(parts))


def _partitions(k: int) -> Iterator[tuple[int, ...]]:
    """All partitions of k as weakly decreasing tuples."""
    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(k, k)


def abelian_types(n: int) -> list[GroupType]:
    """Every abelian group of order n, one GroupType per isomorphism class.

    Classes correspond to a choice of partition of the exponent of each
    prime in n.  Sorted by invariant-factor tuple for deterministic sweeps.
    """
    if not _is_int(n) or n < 2:
        raise InvalidOrder(f"abelian_types needs an integer order >= 2, got {n!r}")
    primes = sorted(factorize(n).items())
    per_prime: list[list[tuple[int, ...]]] = [list(_partitions(e)) for _, e in primes]
    out = []
    for combo in itertools.product(*per_prime):
        entries: list[int] = []
        for (p, _), part in zip(primes, combo):
            entries.extend(p ** a for a in part)
        out.append(GroupType(tuple(entries)))
    return sorted(out, key=lambda g: g.factors)
