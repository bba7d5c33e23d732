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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CriticalKind:
    """Which critical number a query refers to.

    Sumset kinds carry a parameter (fold count or interval length); the
    subset-sum kinds carry none.  The hat variants restrict attention to
    generating subsets; cr_star additionally excludes zero from the domain.
    """

    tag: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in KIND_TAGS:
            raise ValueError(f"unknown critical-number tag {self.tag!r}")
        if self.tag in ("cr", "cr_star"):
            if self.param is not None:
                raise ValueError(f"{self.tag} takes no parameter")
        elif self.tag in ("chi_h", "chi_hat_h"):
            _check_h(self.param)
        else:
            _check_s(self.param)

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


def max_incomplete_divisors(n: int, h: int) -> tuple[int, tuple[int, ...]]:
    """The maximum divisor bound together with all divisors attaining it."""
    _check_order(n)
    _check_h(h)
    vals = [(divisor_bound(n, d, h), d) for d in divisors(n)]
    best = max(v for v, _ in vals)
    return best, tuple(d for v, d in vals if v == best)


def critical_number(n: int, h: int) -> int:
    """Smallest m so that every m-subset has h-fold sumset equal to G.

    Depends only on the order n, not on the group structure.
    """
    return max_incomplete_size(n, h) + 1


def subset_sum_uses_sqrt_branch(group: GroupType) -> bool:
    """Whether the subset-sum pair takes the square-root form.

    That happens only for cyclic groups whose order is prime, or a product
    of two odd primes p <= q with q not much larger than p.
    """
    n = group.order
    if n < 10:
        raise OutsideTheoremDomain(f"subset-sum critical numbers need order >= 10, got {n}")
    if not group.is_cyclic:
        return False
    p = smallest_prime_factor(n)
    if n == p:
        return True
    q = n // p
    return is_prime(q) and 3 <= p <= q <= p + math.isqrt(4 * (p - 2)) + 1


def subset_sum_critical_pair(group: GroupType) -> tuple[int, int]:
    """(zero-free value, unrestricted value) for subset-sum completeness.

    Proven for n >= 10 only; smaller orders raise OutsideTheoremDomain.
    The two values always differ by exactly one.
    """
    n = group.order
    if subset_sum_uses_sqrt_branch(group):
        star = math.isqrt(4 * (n - 2))
    else:
        star = n // smallest_prime_factor(n) + smallest_prime_factor(n) - 2
    return star, star + 1


def _two_part(group: GroupType) -> tuple[int, int]:
    """(order, exponent) of the 2-primary part of the group."""
    order = 1
    exponent = 1
    for f in group.factors:
        two = f & -f
        order *= two
        exponent = max(exponent, two)
    return order, exponent


def has_qualifying_subgroup(group: GroupType, m: int) -> bool:
    """Does the group contain a subgroup of order m of exponent > 2?

    For m with an odd prime factor this holds whenever m divides the order,
    since abelian groups have subgroups of every dividing order and such a
    subgroup cannot have exponent 2.  For m = 2^k the subgroup must pick up
    an element of order 4, which is possible exactly when k >= 2, 2^k
    divides the 2-primary part, and that part has exponent at least 4.
    """
    n = group.order
    if m < 1 or n % m:
        return False
    if m == 1:
        return False
    if m & (m - 1):
        return True
    k = m.bit_length() - 1
    two_order, two_exponent = _two_part(group)
    return k >= 2 and two_order % m == 0 and two_exponent >= 4


def interval3_branch_divisor(group: GroupType) -> int | None:
    """Smallest qualifying subgroup order for the interval-3 formula.

    Returns the least divisor m of the order with m congruent to 2 mod 3
    for which the group has a subgroup of order m and exponent > 2, or
    None when the floor branch applies.  No domain guards.
    """
    n = group.order
    for m in divisors(n):
        if m % 3 == 2 and has_qualifying_subgroup(group, m):
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


def generating_interval_critical_cyclic(n: int, s: int) -> int:
    """Generating-restricted interval value for cyclic groups.

    Returns 1 when n <= s+1 (every generating subset is complete), and
    otherwise the divisor bound maximized over divisors d >= s+2.
    """
    return generating_interval_cyclic_divisors(n, s)[0]


def generating_interval_cyclic_divisors(n: int, s: int) -> tuple[int, tuple[int, ...]]:
    """Cyclic interval value with the divisors attaining it.

    The divisor tuple is empty exactly on the small-order branch where the
    value is 1 and no divisor contributes.
    """
    if not _is_int(n) or n < 1:
        raise InvalidOrder(f"order must be an integer >= 1, got {n!r}")
    _check_s(s)
    if n <= s + 1:
        return 1, ()
    vals = [(divisor_bound(n, d, s) + 1, d) for d in divisors(n) if d >= s + 2]
    value = max(v for v, _ in vals)
    return value, tuple(d for v, d in vals if v == value)


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
