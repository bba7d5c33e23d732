"""Closed-form values: divisor bounds, critical numbers, branch selectors."""

import math

import pytest

from critnum import (
    CriticalKind,
    GroupType,
    InvalidDivisor,
    InvalidH,
    InvalidOrder,
    InvalidS,
    OutsideTheoremDomain,
    OutsideValidatedDomain,
    WrongGroupClass,
    critical_number,
    cyclic,
    divisor_bound,
    divisors,
    generating_interval_critical_s3,
    generating_interval_critical_two_group,
    generating_interval_cyclic_divisors,
    interval3_branch_divisor,
    interval3_piecewise_value,
    max_incomplete_divisors,
    max_incomplete_size,
    max_sumfree_size,
    subset_sum_critical_pair,
    subset_sum_uses_sqrt_branch,
    sumfree_branch_prime,
)


def test_divisor_bound_values():
    assert divisor_bound(10, 10, 2) == 5
    assert divisor_bound(10, 5, 3) == 4
    assert divisor_bound(10, 2, 2) == 5
    assert divisor_bound(16, 4, 2) == 8
    # d = 1 contributes nothing: floor((1-2)/h) = -1 regardless of h
    for n in (2, 9, 30):
        for h in (1, 2, 5):
            assert divisor_bound(n, 1, h) == 0


def test_divisor_bound_errors():
    with pytest.raises(InvalidDivisor):
        divisor_bound(10, 3, 2)
    with pytest.raises(InvalidDivisor):
        divisor_bound(10, 20, 2)
    with pytest.raises(InvalidH):
        divisor_bound(10, 5, 0)
    for n in (0, -4, 2.0):
        with pytest.raises(InvalidOrder):
            divisor_bound(n, 1, 2)
    # the bare bound tolerates n = 1; the maximum over divisors does not
    assert divisor_bound(1, 1, 2) == 0
    with pytest.raises(InvalidOrder):
        max_incomplete_size(1, 2)


def test_max_incomplete_size_examples():
    assert max_incomplete_size(10, 2) == 5
    assert max_incomplete_size(7, 2) == 3
    assert max_incomplete_size(16, 2) == 8
    for n in range(2, 60):
        assert max_incomplete_size(n, 1) == n - 1


def test_max_incomplete_divisors():
    best, attained = max_incomplete_divisors(16, 2)
    assert best == 8
    assert attained == (2, 4, 8, 16)
    best, attained = max_incomplete_divisors(10, 2)
    assert best == 5
    assert attained == (2, 10)
    # brute maximum over the explicit divisor list
    for n in (12, 18, 24):
        for h in (2, 3, 4):
            want = max(divisor_bound(n, d, h) for d in divisors(n))
            assert max_incomplete_size(n, h) == want
            got, att = max_incomplete_divisors(n, h)
            assert got == want
            assert all(divisor_bound(n, d, h) == want for d in att)


def test_critical_number_examples():
    assert critical_number(10, 2) == 6
    assert critical_number(8, 2) == 5
    assert critical_number(7, 2) == 4
    assert critical_number(2, 1) == 2
    for n in range(2, 40):
        for h in (1, 2, 3, 6):
            assert critical_number(n, h) == max_incomplete_size(n, h) + 1
            assert max_incomplete_divisors(n, h)[0] + 1 == critical_number(n, h)


def test_parameter_validation():
    with pytest.raises(InvalidH):
        critical_number(10, 0)
    with pytest.raises(InvalidS):
        CriticalKind("chi_interval", 0)
    with pytest.raises(InvalidOrder):
        critical_number(1, 2)
    with pytest.raises(InvalidOrder):
        max_sumfree_size(1)


def test_subset_sum_critical_pair_examples():
    cases = {
        (10,): (5, 6),
        (11,): (6, 7),
        (12,): (6, 7),
        (13,): (6, 7),
        (14,): (7, 8),
        (15,): (7, 8),
        (25,): (9, 10),
        (33,): (12, 13),
        (2, 6): (6, 7),
        (2, 2, 2, 2): (8, 9),
        (5, 5): (8, 9),
    }
    for factors, want in cases.items():
        assert subset_sum_critical_pair(GroupType(factors)) == want
    for factors, (star, full) in cases.items():
        assert full == star + 1


def test_subset_sum_branch_selector():
    assert subset_sum_uses_sqrt_branch(cyclic(11))
    assert subset_sum_uses_sqrt_branch(cyclic(15))
    assert subset_sum_uses_sqrt_branch(cyclic(25))
    assert not subset_sum_uses_sqrt_branch(cyclic(10))  # 10 = 2*5, smallest prime < 3
    assert not subset_sum_uses_sqrt_branch(cyclic(33))  # q = 11 too far from p = 3
    assert not subset_sum_uses_sqrt_branch(cyclic(12))  # 12/2 = 6 not prime
    assert not subset_sum_uses_sqrt_branch(GroupType((5, 5)))
    # when the sqrt branch applies to pq, both expressions agree
    assert math.isqrt(4 * (15 - 2)) == 15 // 3 + 3 - 1


def test_subset_sum_domain_guard():
    for n in (2, 5, 9):
        with pytest.raises(OutsideTheoremDomain):
            subset_sum_critical_pair(cyclic(n))
        with pytest.raises(OutsideTheoremDomain):
            subset_sum_uses_sqrt_branch(cyclic(n))
    with pytest.raises(OutsideTheoremDomain):
        subset_sum_critical_pair(GroupType((2, 2, 2)))


def test_interval3_values():
    cases = {
        (5,): 3,
        (6,): 3,
        (7,): 3,
        (8,): 4,
        (2, 4): 4,
        (9,): 4,
        (3, 3): 4,
        (10,): 5,
        (11,): 5,
        (12,): 5,
        (2, 6): 5,
        (13,): 5,
        (14,): 6,
        (15,): 7,
        (16,): 7,
        (2, 8): 7,
        (4, 4): 7,
        (2, 2, 4): 7,
    }
    for factors, want in cases.items():
        assert generating_interval_critical_s3(GroupType(factors)) == want


def test_interval3_branch_divisor():
    assert interval3_branch_divisor(cyclic(10)) == 5
    assert interval3_branch_divisor(cyclic(8)) == 8
    assert interval3_branch_divisor(GroupType((2, 4))) == 8
    assert interval3_branch_divisor(cyclic(6)) is None  # 2 alone does not qualify
    assert interval3_branch_divisor(cyclic(9)) is None
    assert interval3_branch_divisor(cyclic(7)) is None


def test_interval3_guards():
    for factors in ((2,), (2, 2), (2, 2, 2), (2, 2, 2, 2)):
        with pytest.raises(WrongGroupClass):
            generating_interval_critical_s3(GroupType(factors))
    for n in (3, 4):
        with pytest.raises(OutsideValidatedDomain):
            generating_interval_critical_s3(cyclic(n))


def test_interval3_piecewise_outside_domain():
    # the unguarded piecewise value is still defined below n = 5
    assert interval3_piecewise_value(cyclic(3)) == 2
    assert interval3_piecewise_value(cyclic(4)) == 2
    assert interval3_piecewise_value(cyclic(5)) == 3


def test_interval3_agrees_with_cyclic_formula():
    for n in range(5, 201):
        assert generating_interval_critical_s3(cyclic(n)) == generating_interval_cyclic_divisors(n, 3)[0]


def test_cyclic_interval_formula():
    assert generating_interval_cyclic_divisors(4, 3)[0] == 1
    assert generating_interval_cyclic_divisors(10, 3)[0] == 5
    assert generating_interval_cyclic_divisors(5, 3)[0] == 3
    # no divisor d >= s+2 exists, so the empty maximum gives the value 1
    for s in range(1, 7):
        for n in range(1, s + 2):
            assert generating_interval_cyclic_divisors(n, s) == (1, ())
    with pytest.raises(InvalidS):
        generating_interval_cyclic_divisors(10, 0)
    for n in (0, -3, 4.0):
        with pytest.raises(InvalidOrder):
            generating_interval_cyclic_divisors(n, 2)


def test_cyclic_interval_attaining_divisors():
    value, attained = generating_interval_cyclic_divisors(10, 3)
    assert value == 5
    assert attained == (5,)
    value, attained = generating_interval_cyclic_divisors(4, 3)
    assert value == 1
    assert attained == ()
    value, attained = generating_interval_cyclic_divisors(16, 2)
    assert value == 9
    assert set(attained) <= {d for d in divisors(16) if d >= 4}
    assert all(divisor_bound(16, d, 2) == value - 1 for d in attained)


def test_cyclic_interval_never_exceeds_unrestricted():
    for n in range(2, 201):
        for s in range(1, 7):
            assert generating_interval_cyclic_divisors(n, s)[0] <= critical_number(n, s)


def test_two_group_interval_formula():
    assert generating_interval_critical_two_group(4, 2) == 9
    assert generating_interval_critical_two_group(2, 3) == 1
    assert generating_interval_critical_two_group(3, 2) == 5
    assert generating_interval_critical_two_group(1, 2) == 1
    for s in range(2, 7):
        for r in range(1, s + 1):
            assert generating_interval_critical_two_group(r, s) == 1
    with pytest.raises(OutsideTheoremDomain):
        generating_interval_critical_two_group(3, 1)
    with pytest.raises(InvalidOrder):
        generating_interval_critical_two_group(0, 2)


def test_sumfree_values():
    assert max_sumfree_size(10) == 5
    assert max_sumfree_size(9) == 3
    assert max_sumfree_size(2) == 1
    assert max_sumfree_size(8) == 4
    assert max_sumfree_size(7) == 2
    assert sumfree_branch_prime(10) == 2
    assert sumfree_branch_prime(35) == 5
    assert sumfree_branch_prime(9) is None
    assert sumfree_branch_prime(7) is None


def test_sumfree_matches_three_fold_bound():
    for n in range(2, 2001):
        assert max_sumfree_size(n) == max_incomplete_size(n, 3)


def test_critical_kind_validation():
    k = CriticalKind("chi_h", 2)
    assert k.mode == "hfold"
    assert not k.restricts_to_generating
    assert not k.excludes_zero
    k = CriticalKind("chi_hat_interval", 3)
    assert k.mode == "interval"
    assert k.restricts_to_generating
    k = CriticalKind("cr_star")
    assert k.mode == "sums"
    assert k.excludes_zero
    assert not CriticalKind("cr").excludes_zero
    with pytest.raises(ValueError):
        CriticalKind("nope", 1)
    with pytest.raises(ValueError):
        CriticalKind("cr", 2)
    with pytest.raises(InvalidH):
        CriticalKind("chi_h", 0)
    with pytest.raises(InvalidS):
        CriticalKind("chi_interval", 0)
    with pytest.raises(InvalidH):
        CriticalKind("chi_hat_h", None)
