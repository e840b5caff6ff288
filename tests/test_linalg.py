"""Matrix rank/RREF over GF(p) against a plain dense elimination oracle."""

import random

import numpy as np
import pytest

from embedrank.errors import BadDimension, NonPrimeModulus
from embedrank.linalg import MatGFp, mat_rank, mat_rref, support_from_bitmask


def _rank_oracle(rows: list[list[int]], p: int) -> int:
    """Textbook Gaussian elimination, no packing tricks."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] % p:
                c = m[i][col]
                m[i] = [(x - c * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _random_rows(rng: random.Random, nrows: int, ncols: int, p: int) -> list[list[int]]:
    return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_oracle(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        nrows = rng.randrange(1, 13)
        ncols = rng.randrange(1, 16)
        rows = _random_rows(rng, nrows, ncols, p)
        m = MatGFp.from_rows(rows, len(rows[0]), p)
        assert mat_rank(m) == _rank_oracle(rows, p)


def test_rref_idempotent_and_pivots():
    rng = random.Random(5)
    for _ in range(40):
        rows = _random_rows(rng, rng.randrange(1, 9), rng.randrange(1, 11), 3)
        m = MatGFp.from_rows(rows, len(rows[0]), 3)
        rref, pivots = mat_rref(m)
        assert list(pivots) == sorted(pivots)
        again, pivots2 = mat_rref(rref)
        assert again.to_lists() == rref.to_lists()
        assert list(pivots2) == list(pivots)
        # pivot columns carry exactly one 1
        r = rref.to_lists()
        for i, c in enumerate(pivots):
            col = [row[c] for row in r]
            assert col[i] == 1 and sum(col) == 1


def test_bitrows_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        ncols = rng.randrange(1, 70)
        bits = [rng.getrandbits(ncols) for _ in range(rng.randrange(1, 8))]
        m = MatGFp.from_bitrows(bits, ncols)
        assert m.p == 2
        assert list(m.bits) == bits
        dense = m.to_lists()
        rebuilt = MatGFp.from_rows(dense, ncols, 2)
        assert list(rebuilt.bits) == bits


def test_packed_agrees_with_dense_rank():
    rng = random.Random(17)
    for _ in range(60):
        nrows = rng.randrange(1, 14)
        ncols = rng.randrange(1, 80)
        bits = [rng.getrandbits(ncols) for _ in range(nrows)]
        m = MatGFp.from_bitrows(bits, ncols)
        dense = [[(w >> j) & 1 for j in range(ncols)] for w in bits]
        assert mat_rank(m) == _rank_oracle(dense, 2)


def test_incidence_rank_fano(fano):
    m = fano.incidence_matrix(2)
    assert mat_rank(m) == 4
    dense = [[(w >> j) & 1 for j in range(m.ncols)] for w in m.bits]
    assert _rank_oracle(dense, 2) == 4
    # over GF(7) the incidence matrix has full rank
    assert mat_rank(fano.incidence_matrix(7)) == 7


def test_shape_and_modulus_errors():
    with pytest.raises(NonPrimeModulus):
        MatGFp.from_rows([[1, 0]], 2, 4)
    with pytest.raises(BadDimension):
        MatGFp.from_rows([[1, 0], [1]], 2, 2)


def test_support_round_trip():
    rng = random.Random(23)
    for _ in range(100):
        sup = sorted(rng.sample(range(90), rng.randrange(0, 12)))
        assert support_from_bitmask(sum(1 << j for j in sup)) == sup


def test_numpy_rank_cross_check():
    # float SVD rank equals GF(p) rank for 0/1 matrices that stay unimodular;
    # use random permutation matrices where both are provably the size
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randrange(2, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        for p in (2, 3, 5):
            assert mat_rank(MatGFp.from_rows(rows, len(rows[0]), p)) == n
        assert np.linalg.matrix_rank(np.array(rows)) == n
