"""Field construction and arithmetic, checked exhaustively for small orders."""

import pytest

from embedrank.errors import NoDefaultIrreducible, NoField
from embedrank.fields import _DEFAULT_IRREDUCIBLE, field_from_order, is_prime, prime_power


# GF(p)[x]/(f) is a field exactly when f is irreducible, so checking every
# table entry's field axioms checks that the entry is irreducible.
@pytest.mark.parametrize("q", sorted({2, 3, 5, 7} | set(_DEFAULT_IRREDUCIBLE)))
def test_field_axioms_exhaustive(q):
    spec = field_from_order(q)
    add, mul = spec.add, spec.mul
    for a in range(q):
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        assert add[a].count(0) == 1
        if a:
            assert mul[a].count(1) == 1
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in range(q):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def _powers(mul, a, q):
    """a^0, a^1, ..., a^(q-1) by repeated table multiplication."""
    out = [1]
    for _ in range(q - 1):
        out.append(mul[out[-1]][a])
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_multiplicative_group_order(q):
    mul = field_from_order(q).mul
    for a in range(1, q):
        assert _powers(mul, a, q)[-1] == 1
    # some element generates the full multiplicative group
    assert any(len(set(_powers(mul, g, q)[:-1])) == q - 1 for g in range(2, q))


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
    with pytest.raises(NoField):
        field_from_order(6)
    with pytest.raises(NoDefaultIrreducible):
        field_from_order(128)
