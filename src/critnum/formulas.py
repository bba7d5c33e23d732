"""Closed-form values of the critical numbers.

A subset is h-incomplete when its h-fold sumset misses part of the group.
The basic quantity is the largest h-incomplete size in a group of order n,
computed as a maximum of a one-parameter bound over the divisors of n; the
critical numbers here are that maximum plus one, with variants restricting
to generating subsets, interval sumsets, or subset sums.

Every function validates its domain and raises a named error rather than
returning a wrong number; ranges that a theorem does not cover are refused.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import (
    InvalidDivisor,
    InvalidH,
    InvalidOrder,
    InvalidS,
    OutsideTheoremDomain,
    WrongGroupClass,
    OutsideValidatedDomain,
)
from .groups import GroupType, _is_int, divisors, factorize, is_prime, smallest_prime_factor

KIND_TAGS = ("chi_h", "chi_interval", "chi_hat_h", "chi_hat_interval", "cr", "cr_star")


class CriticalKind(namedtuple("CriticalKind", "tag param")):
    """Which critical number a query refers to.

    Sumset kinds carry a parameter (fold count or interval length); the
    subset-sum kinds carry none.  The hat variants restrict attention to
    generating subsets; cr_star additionally excludes zero from the domain.
    """

    __slots__ = ()

    def __new__(cls, tag: str, param: int | None = None) -> CriticalKind:
        if tag not in KIND_TAGS:
            raise ValueError(f"unknown critical-number tag {tag!r}")
        if tag in ("cr", "cr_star"):
            if param is not None:
                raise ValueError(f"{tag} takes no parameter")
        elif tag in ("chi_h", "chi_hat_h"):
            _check_h(param)
        else:
            _check_s(param)
        return tuple.__new__(cls, (tag, param))

    @classmethod
    def _make(cls, fields: Iterable) -> CriticalKind:
        """Build through `__new__`, so that `_replace` validates too."""
        return cls(*fields)

    @property
    def restricts_to_generating(self) -> bool:
        return self.tag in ("chi_hat_h", "chi_hat_interval")

    @property
    def excludes_zero(self) -> bool:
        return self.tag == "cr_star"

    @property
    def mode(self) -> str:
        """Underlying sumset operation: "hfold", "interval", or "sums"."""
        if self.tag in ("chi_h", "chi_hat_h"):
            return "hfold"
        if self.tag in ("chi_interval", "chi_hat_interval"):
            return "interval"
        return "sums"


def _check_h(h: int) -> None:
    if not _is_int(h) or h < 1:
        raise InvalidH(f"fold count must be an integer >= 1, got {h!r}")


def _check_s(s: int) -> None:
    if not _is_int(s) or s < 1:
        raise InvalidS(f"interval length must be an integer >= 1, got {s!r}")


def _check_order(n: int) -> None:
    if not _is_int(n) or n < 2:
        raise InvalidOrder(f"group order must be an integer >= 2, got {n!r}")


def divisor_bound(n: int, d: int, h: int) -> int:
    """Size of the largest h-incomplete set built from cosets mod index d.

    Equals (floor((d-2)/h) + 1) * n/d.  The floor is taken toward minus
    infinity, so d = 1 contributes 0.
    """
    _check_h(h)
    if not _is_int(n) or n < 1:
        raise InvalidOrder(f"order must be an integer >= 1, got {n!r}")
    if not _is_int(d) or d < 1 or n % d:
        raise InvalidDivisor(f"{d!r} is not a positive divisor of {n}")
    return ((d - 2) // h + 1) * (n // d)


def max_incomplete_size(n: int, h: int) -> int:
    """Largest size of an h-incomplete subset in any group of order n."""
    return max_incomplete_divisors(n, h)[0]


def _divisor_max(n: int, h: int, least: int) -> tuple[int, tuple[int, ...]]:
    """Largest divisor bound over divisors d >= least, with the d attaining it.

    Takes checked arguments and computes each bound inline, as
    `divisor_bound` does after its guards.  An empty range of divisors
    gives (0, ()).
    """
    bounds = {d: ((d - 2) // h + 1) * (n // d) for d in divisors(n) if d >= least}
    best = max(bounds.values(), default=0)
    return best, tuple(d for d, v in bounds.items() if v == best)


def max_incomplete_divisors(n: int, h: int) -> tuple[int, tuple[int, ...]]:
    """The maximum divisor bound together with all divisors attaining it."""
    _check_order(n)
    _check_h(h)
    return _divisor_max(n, h, 1)


def critical_number(n: int, h: int) -> int:
    """Smallest m so that every m-subset has h-fold sumset equal to G.

    Depends only on the order n, not on the group structure.
    """
    return max_incomplete_size(n, h) + 1


def _subset_sum_branch(group: GroupType) -> tuple[bool, int]:
    """Whether the subset-sum pair takes the square-root form, and p.

    p is the least prime factor of the order.  The form holds only for a
    cyclic group of order p, or pq with p <= q odd primes, q close to p.
    """
    n = group.order
    if n < 10:
        raise OutsideTheoremDomain(f"subset-sum critical numbers need order >= 10, got {n}")
    p = smallest_prime_factor(n)
    if not group.is_cyclic:
        return False, p
    q = n // p
    return (q == 1 or is_prime(q) and 3 <= p <= q <= p + math.isqrt(4 * (p - 2)) + 1), p


def subset_sum_uses_sqrt_branch(group: GroupType) -> bool:
    """Whether the subset-sum pair takes the square-root form."""
    return _subset_sum_branch(group)[0]


def subset_sum_critical_pair(group: GroupType) -> tuple[int, int]:
    """(zero-free value, unrestricted value) for subset-sum completeness.

    Proven for n >= 10 only; smaller orders raise OutsideTheoremDomain.
    The two values always differ by exactly one.
    """
    n = group.order
    sqrt_form, p = _subset_sum_branch(group)
    star = math.isqrt(4 * (n - 2)) if sqrt_form else n // p + p - 2
    return star, star + 1


def interval3_branch_divisor(group: GroupType) -> int | None:
    """Smallest qualifying subgroup order for the interval-3 formula.

    Returns the least divisor m of the order with m congruent to 2 mod 3
    for which the group has a subgroup of order m and exponent > 2, or
    None when the floor branch applies.  No domain guards.

    The test is arithmetic.  Every divisor of the order is the order of a
    subgroup, and an odd prime factor of m forces exponent > 2.  For
    m = 2^k, which is 2 or at least 8 when m is 2 mod 3, a subgroup of
    order m with an element of order 4 exists exactly when k >= 2 and 4
    divides the exponent of the group.
    """
    for m in divisors(group.order):
        if m % 3 == 2 and (m & (m - 1) or (m > 2 and group.exponent % 4 == 0)):
            return m
    return None


def interval3_piecewise_value(group: GroupType) -> int:
    """Piecewise value for interval length 3, with no domain guards.

    Callers wanting the validated quantity should use the guarded
    function below; this raw form exists so reports can still show
    what the piecewise expression yields outside its domain.
    """
    n = group.order
    m = interval3_branch_divisor(group)
    if m is not None:
        return (m + 1) // 3 * (n // m) + 1
    return n // 3 + 1


def generating_interval_critical_s3(group: GroupType) -> int:
    """Generating-restricted interval value at length 3.

    Structure-sensitive: if the group has a subgroup of order congruent to
    2 mod 3 that is not an elementary 2-group, the smallest such order m
    gives (1 + 1/m) * n/3 + 1; otherwise the value is floor(n/3) + 1.
    Elementary 2-groups are excluded (see the rank formula instead), and
    orders up to 4 are refused because exhaustive search contradicts the
    formula there; see the package docs.
    """
    if group.is_elementary_two:
        raise WrongGroupClass(f"group {group} has exponent 2; use the rank-based formula")
    n = group.order
    if n <= 4:
        raise OutsideValidatedDomain(f"interval-3 formula is not asserted for order {n} <= 4")
    return interval3_piecewise_value(group)


def generating_interval_cyclic_divisors(n: int, s: int) -> tuple[int, tuple[int, ...]]:
    """Generating-restricted interval value of Z_n, with the divisors attaining it.

    The value is one more than the divisor bound maximized over divisors
    d >= s+2.  When n <= s+1 no divisor qualifies, so the value is 1 (every
    generating subset is complete) and the divisor tuple is empty.
    """
    if not _is_int(n) or n < 1:
        raise InvalidOrder(f"order must be an integer >= 1, got {n!r}")
    _check_s(s)
    best, attained = _divisor_max(n, s, s + 2)
    return best + 1, attained


def generating_interval_critical_two_group(r: int, s: int) -> int:
    """Generating-restricted interval value for groups of exponent 2.

    Proven for s >= 2.  Returns 1 when the rank r is at most s, and
    (s+2) * 2^(r-s-1) + 1 otherwise.
    """
    if not _is_int(r) or r < 1:
        raise InvalidOrder(f"rank must be an integer >= 1, got {r!r}")
    if not _is_int(s) or s < 2:
        raise OutsideTheoremDomain(f"rank formula needs interval length >= 2, got {s!r}")
    if r <= s:
        return 1
    return (s + 2) * (1 << (r - s - 1)) + 1


def sumfree_branch_prime(n: int) -> int | None:
    """Smallest prime divisor of n congruent to 2 mod 3, if any."""
    _check_order(n)
    qualifying = [p for p in factorize(n) if p % 3 == 2]
    return min(qualifying) if qualifying else None


def max_sumfree_size(n: int) -> int:
    """Largest size of a sum-free set in the cyclic group of order n.

    Equals (1 + 1/p) * n/3 when n has a prime divisor congruent to 2 mod 3
    (p the smallest such), and floor(n/3) otherwise; this is also the
    divisor-bound maximum at fold count 3.
    """
    p = sumfree_branch_prime(n)
    if p is not None:
        return (p + 1) * n // (3 * p)
    return n // 3
