"""Field construction and arithmetic, checked exhaustively for small orders."""

import pytest

from embedrank.errors import (
    NoDefaultIrreducible,
    NoField,
    NonPrimeModulus,
    ReduciblePolynomial,
    ZeroInverse,
)
from embedrank.fields import (
    field_from_order,
    field_make,
    is_prime,
    pow_element,
    prime_power,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    spec = field_from_order(q)
    add, mul = spec.add, spec.mul
    for a in range(q):
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        assert add[a][spec.neg(a)] == 0
        if a:
            assert mul[a][spec.inv(a)] == 1
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in range(q):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_multiplicative_group_order(q):
    spec = field_from_order(q)
    for a in range(1, q):
        assert pow_element(spec, a, q - 1) == 1
    # some element generates the full multiplicative group
    assert any(
        len({pow_element(spec, g, e) for e in range(q - 1)}) == q - 1 for g in range(2, q)
    )


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(25) == (5, 2)
    assert prime_power(7) == (7, 1)
    with pytest.raises(NoField):
        prime_power(12)
    with pytest.raises(NoField):
        prime_power(1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_construction_errors():
    with pytest.raises(NonPrimeModulus):
        field_make(4, 2)
    with pytest.raises(NoField):
        field_make(2, 0)
    with pytest.raises(ReduciblePolynomial):
        field_make(2, 2, poly=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ReduciblePolynomial):
        field_make(2, 2, poly=(1, 1))  # wrong degree
    with pytest.raises(NoDefaultIrreducible):
        field_make(2, 7)
    with pytest.raises(NoField):
        field_from_order(6)


def test_custom_polynomial_agrees_with_default():
    # x^2 + x + 2 is the other monic irreducible shape over GF(3)
    spec = field_make(3, 2, poly=(2, 1, 1))
    assert spec.order == 9
    for a in range(9):
        if a:
            assert spec.mul[a][spec.inv(a)] == 1


def test_negative_exponent_is_inverse_power():
    spec = field_from_order(9)
    for a in range(1, 9):
        assert pow_element(spec, a, -1) == spec.inv(a)
        assert pow_element(spec, a, -3) == pow_element(spec, spec.inv(a), 3)
    with pytest.raises(ZeroInverse):
        spec.inv(0)
