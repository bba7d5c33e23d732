"""Group types: invariant factors, element arithmetic, enumeration."""

import pytest

from critnum import (
    CriticalKind,
    GroupSubset,
    GroupType,
    InvalidElement,
    InvalidFactor,
    InvalidH,
    InvalidOrder,
    OracleQuery,
    abelian_types,
    best_interval_bound,
    cyclic,
    divisors,
    factorize,
    hfold_witness,
    is_prime,
    parse_group,
    quotient_spec,
    smallest_prime_factor,
)
from reference import add_indices, neg_index


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(InvalidOrder):
        factorize(0)


def test_divisors_sorted():
    assert divisors(1) == [1]
    assert divisors(10) == [1, 2, 5, 10]
    assert divisors(16) == [1, 2, 4, 8, 16]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_primality():
    small = [n for n in range(2, 60) if is_prime(n)]
    assert small == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert smallest_prime_factor(2) == 2
    assert smallest_prime_factor(35) == 5
    assert smallest_prime_factor(49) == 7
    for n in range(2, 5001):
        assert smallest_prime_factor(n) == next(d for d in range(2, n + 1) if n % d == 0), n


@pytest.mark.parametrize("bad", [True, 2.5, 7.0], ids=repr)
def test_number_guards_refuse_non_integers(bad):
    # bools and floats are refused by the shared integer test, not computed on
    for guard in (factorize, divisors, is_prime, smallest_prime_factor):
        with pytest.raises(InvalidOrder):
            guard(bad)


def test_invariant_factor_normalization():
    # any list of cyclic orders is regrouped into a divisibility chain
    assert GroupType((4, 2)).factors == (2, 4)
    assert GroupType((2, 3)).factors == (6,)
    assert GroupType((6, 4)).factors == (2, 12)
    assert GroupType((2, 2, 3)).factors == (2, 6)
    assert GroupType((2, 4)).factors == (2, 4)
    assert GroupType([6, 10]).factors == (2, 30)


def test_invalid_factors():
    with pytest.raises(InvalidFactor):
        GroupType(())
    with pytest.raises(InvalidFactor):
        GroupType((1, 4))
    with pytest.raises(InvalidFactor):
        GroupType((2, 0))
    with pytest.raises(InvalidOrder):
        cyclic(1)
    with pytest.raises(InvalidOrder):
        cyclic(0)


def test_structure_flags():
    g = GroupType((2, 4))
    assert g.order == 8
    assert g.rank == 2
    assert g.exponent == 4
    assert not g.is_cyclic
    assert not g.is_elementary_two
    assert GroupType((2, 2, 2)).is_elementary_two
    assert GroupType((2,)).is_elementary_two
    assert cyclic(5).is_cyclic
    assert cyclic(2).is_elementary_two


def test_element_arithmetic():
    g = GroupType((2, 4))
    assert g.zero() == (0, 0)
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 3)) == (1, 1)
    assert g.neg((0, 0)) == (0, 0)
    assert g.scalar(3, (1, 2)) == (1, 2)
    assert g.scalar(-1, (0, 1)) == (0, 3)
    assert g.scalar(0, (1, 3)) == (0, 0)
    with pytest.raises(InvalidElement):
        g.add((1, 4), (0, 0))
    with pytest.raises(InvalidElement):
        g.check_element((1,))
    with pytest.raises(InvalidElement):
        g.check_element((1, -1))


def test_encode_decode_roundtrip():
    for g in (cyclic(12), GroupType((2, 4)), GroupType((2, 2, 2)), GroupType((3, 9))):
        seen = set()
        for i in range(g.order):
            e = g.decode(i)
            assert g.encode(e) == i
            seen.add(e)
        assert len(seen) == g.order
    # first coordinate is least significant
    g = GroupType((2, 4))
    assert g.encode((1, 0)) == 1
    assert g.encode((0, 1)) == 2
    assert g.decode(7) == (1, 3)
    for bad in (-1, 8, 2.0, True):
        with pytest.raises(InvalidElement):
            g.decode(bad)


def test_index_arithmetic_matches_elements():
    g = GroupType((3, 3))
    for i in range(g.order):
        assert g.decode(neg_index(g, i)) == g.neg(g.decode(i))
        for j in range(g.order):
            assert g.decode(add_indices(g, i, j)) == g.add(g.decode(i), g.decode(j))


def test_elements_enumeration():
    g = GroupType((2, 3))
    elems = list(g.elements())
    assert len(elems) == 6
    assert len(set(elems)) == 6
    assert all(g.encode(e) == i for i, e in enumerate(elems))


def test_parse_and_format():
    assert parse_group("12") == cyclic(12)
    assert parse_group("2,2,4").factors == (2, 2, 4)
    assert parse_group("4,2").factors == (2, 4)
    assert str(GroupType((2, 4))) == "2,4"
    assert str(cyclic(7)) == "7"
    assert parse_group(str(GroupType((6, 10)))) == GroupType((6, 10))
    with pytest.raises(InvalidOrder):
        parse_group("0")
    with pytest.raises(InvalidOrder):
        parse_group("x")
    with pytest.raises(InvalidFactor):
        parse_group("2,x")
    with pytest.raises(InvalidFactor):
        parse_group("")
    with pytest.raises(InvalidFactor):
        parse_group("4,1")


def test_abelian_types_small_orders():
    assert [g.factors for g in abelian_types(4)] == [(2, 2), (4,)]
    assert [g.factors for g in abelian_types(8)] == [(2, 2, 2), (2, 4), (8,)]
    assert [g.factors for g in abelian_types(12)] == [(2, 6), (12,)]
    assert [g.factors for g in abelian_types(7)] == [(7,)]
    assert len(abelian_types(16)) == 5
    assert len(abelian_types(36)) == 4
    assert len(abelian_types(64)) == 11
    with pytest.raises(InvalidOrder):
        abelian_types(1)


def test_abelian_types_are_valid_chains():
    for n in range(2, 40):
        types = abelian_types(n)
        assert len(set(types)) == len(types)
        for g in types:
            assert g.order == n
            fs = g.factors
            assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))


def _value_types():
    g = GroupType((2, 4))
    return [
        g,
        CriticalKind("chi_h", 2),
        GroupSubset(g, 0b1011),
        quotient_spec(g, 2),
        OracleQuery(g, CriticalKind("cr")),
        hfold_witness(g, 3),
        best_interval_bound(GroupType((2, 2, 2, 2)), 2),
    ]


def test_value_types_read_hash_and_compare_by_their_fields():
    assert repr(GroupType((4, 2))) == "GroupType(factors=(2, 4))"
    assert repr(CriticalKind("chi_h", 2)) == "CriticalKind(tag='chi_h', param=2)"
    assert repr(CriticalKind("cr")) == "CriticalKind(tag='cr', param=None)"
    for x in _value_types():
        fields = tuple(getattr(x, name) for name in x._fields)
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(x._fields, fields))
        assert repr(x) == f"{type(x).__name__}({shown})"
        assert hash(x) == hash(fields)
        assert x == fields and tuple(x) == fields


def test_value_types_refuse_every_assignment():
    for x in _value_types():
        for name in x._fields + ("order", "size", "unused_name"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)


def test_value_types_normalize_and_validate_keywords():
    assert GroupType(factors=(4, 2)) == GroupType((2, 4))
    assert GroupType(factors=[2, 3]).factors == (6,)
    assert GroupType(factors=(4, 2)).order == 8
    with pytest.raises(InvalidFactor, match="is not an integer >= 2"):
        GroupType(factors=(1, 4))
    with pytest.raises(InvalidFactor, match="at least one factor"):
        GroupType(factors=())
    assert CriticalKind(tag="chi_h", param=2) == CriticalKind("chi_h", 2)
    assert CriticalKind(tag="cr").param is None
    with pytest.raises(ValueError, match="cr takes no parameter"):
        CriticalKind(tag="cr", param=1)
    with pytest.raises(ValueError, match="unknown critical-number tag"):
        CriticalKind(tag="chi")
    with pytest.raises(InvalidH):
        CriticalKind(tag="chi_h", param=0)
    g = GroupType((2, 4))
    assert GroupSubset(group=g, bits=0b1011).size == 3
    for bits in (1 << 8, -1, True, 1.0):
        with pytest.raises(InvalidElement, match="does not fit order 8"):
            GroupSubset(group=g, bits=bits)
        with pytest.raises(InvalidElement, match="does not fit order 8"):
            GroupSubset(g, 1)._replace(bits=bits)
    # _replace and _make go through the same checks as the constructor
    assert g._replace(factors=(4, 2)) == GroupType._make([(4, 2)]) == g
    with pytest.raises(InvalidFactor):
        g._replace(factors=(1,))
    assert CriticalKind("chi_h", 2)._replace(tag="chi_hat_h") == CriticalKind("chi_hat_h", 2)
    with pytest.raises(ValueError, match="cr takes no parameter"):
        CriticalKind("chi_h", 2)._replace(tag="cr")
