"""Linear codes over GF(p): enumeration, weights, bounds, classical families."""

import random
from collections import Counter
from itertools import product
from math import inf

import numpy as np
import pytest

import embedrank.codes as codes_module
from embedrank.codes import (
    DEFAULT_CAP,
    bent_quadratic,
    code_from_cols,
    code_from_bitrows,
    code_from_rows,
    codewords_of_weight,
    hill_newton_holds,
    is_bent,
    iter_codewords,
    johnson_restricted,
    min_weight,
    min_weight_design,
    punctured_rm_code,
    rm_code,
    rudolph_bound,
    sdp_code,
    walsh_spectrum,
    weight_distribution,
)
from embedrank.designs import Resolution, residual, verify_tdesign
from embedrank.embedding import embedding_search, parallel_union_codewords
from embedrank.errors import (
    CapExceeded,
    NotACodeword,
    NotBent,
    TooLarge,
    WrongParameters,
)
from embedrank.linalg import MatGFp, mat_rank


def _span_bits(rows):
    """Brute-force GF(2) span of integer bit-rows."""
    words = set()
    for coeffs in product((0, 1), repeat=len(rows)):
        w = 0
        for c, row in zip(coeffs, rows):
            if c:
                w ^= row
        words.add(w)
    return words


def _span_mod(rows, length, p):
    words = set()
    for coeffs in product(range(p), repeat=len(rows)):
        vec = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(length))
        words.add(vec)
    return words


def test_enumeration_matches_brute_force_gf2():
    rng = random.Random(101)
    for _ in range(25):
        length = rng.randrange(1, 11)
        rows = [rng.getrandbits(length) for _ in range(rng.randrange(1, 6))]
        code = code_from_bitrows(rows, length)
        oracle = _span_bits(rows)
        got = list(iter_codewords(code))
        assert got[0] == 0
        assert len(got) == len(set(got)) == code.size
        assert set(got) == oracle
        assert code.size == len(oracle)


def test_enumeration_matches_brute_force_gf3():
    rng = random.Random(102)
    for _ in range(10):
        length = rng.randrange(2, 7)
        nrows = rng.randrange(1, 4)
        rows = [[rng.randrange(3) for _ in range(length)] for _ in range(nrows)]
        code = code_from_rows(MatGFp.from_rows(rows, length, 3))
        oracle = _span_mod(rows, length, 3)
        got = [tuple(int(x) for x in vec) for vec in iter_codewords(code)]
        assert got[0] == tuple([0] * length)
        assert set(got) == oracle and len(got) == len(oracle)


def test_contains():
    rng = random.Random(103)
    rows = [rng.getrandbits(12) for _ in range(5)]
    code = code_from_bitrows(rows, 12)
    members = _span_bits(rows)
    for word in members:
        assert code.contains(word)
    for _ in range(200):
        w = rng.getrandbits(12)
        assert code.contains(w) == (w in members)


def test_weight_distribution_counts():
    rng = random.Random(104)
    for _ in range(15):
        length = rng.randrange(1, 11)
        rows = [rng.getrandbits(length) for _ in range(rng.randrange(1, 6))]
        code = code_from_bitrows(rows, length)
        wd = weight_distribution(code)
        oracle: dict[int, int] = {}
        for w in _span_bits(rows):
            oracle[w.bit_count()] = oracle.get(w.bit_count(), 0) + 1
        assert wd.counts == oracle
        assert wd.total() == code.size
        assert wd[0] == 1
        if code.dim:
            assert wd.min_nonzero() == min_weight(code)


def test_weight_distribution_permutation_invariant():
    rng = random.Random(105)
    length = 10
    rows = [rng.getrandbits(length) for _ in range(5)]
    perm = list(range(length))
    rng.shuffle(perm)
    permuted = [
        sum(((row >> j) & 1) << perm[j] for j in range(length)) for row in rows
    ]
    wd1 = weight_distribution(code_from_bitrows(rows, length))
    wd2 = weight_distribution(code_from_bitrows(permuted, length))
    assert wd1.counts == wd2.counts


def test_weight_distribution_csv():
    code = rm_code(1, 3)
    text = weight_distribution(code).as_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "weight,count"
    assert lines[1:] == ["0,1", "4,14", "8,1"]


def test_rm_parameters():
    for r, m, k, d in [(1, 3, 4, 4), (1, 4, 5, 8), (2, 4, 11, 4), (2, 5, 16, 8)]:
        code = rm_code(r, m)
        assert code.length == 1 << m
        assert code.dim == k
        assert min_weight(code) == d
    assert rm_code(0, 4).dim == 1
    assert list(iter_codewords(rm_code(0, 2))) == [0, 0b1111]
    assert rm_code(3, 3).dim == 8
    with pytest.raises(WrongParameters):
        rm_code(4, 3)


def test_punctured_rm_is_hamming():
    code = punctured_rm_code(1, 3)
    assert (code.length, code.dim) == (7, 4)
    assert weight_distribution(code).counts == {0: 1, 3: 7, 4: 7, 7: 1}
    # puncturing position is irrelevant up to equivalence
    for coord in range(8):
        assert weight_distribution(punctured_rm_code(1, 3, coord)).counts == {
            0: 1, 3: 7, 4: 7, 7: 1,
        }


def test_walsh_and_bent():
    for m in (1, 2, 3):
        tt = bent_quadratic(m)
        assert len(tt) == 1 << (2 * m)
        assert is_bent(tt)
        spec = walsh_spectrum(tt)
        n = len(tt)
        assert sum(x * x for x in spec) == n * n
    assert not is_bent([0, 0, 0, 0])  # constant
    assert not is_bent([0, 1, 0, 1, 0, 1, 0, 1])  # odd variable count
    with pytest.raises(WrongParameters):
        walsh_spectrum([0, 1, 1])
    # m = 0 is the constant on one point, which is not bent; m < 0 is no function
    with pytest.raises(NotBent):
        sdp_code(bent_quadratic(0))
    with pytest.raises(WrongParameters):
        bent_quadratic(-1)


def test_sdp_design():
    code = sdp_code(bent_quadratic(2))
    assert (code.length, code.dim) == (16, 6)
    wd = weight_distribution(code)
    assert wd.counts == {0: 1, 6: 16, 8: 30, 10: 16, 16: 1}
    design = min_weight_design(code)
    params = verify_tdesign(design, 2)
    assert (params.v, params.k, params.lam) == (16, 6, 2)
    assert params.symmetric
    assert mat_rank(design.incidence_matrix(2)) == 6
    res = residual(design, 0)
    assert verify_tdesign(res, 2) is not None
    assert mat_rank(res.incidence_matrix(2)) == 5


def test_residual_and_hill_newton():
    code = rm_code(1, 3)
    word = next(w for w in iter_codewords(code) if w and w.bit_count() == 4)
    report = hill_newton_holds(code, word)
    assert report.guaranteed
    assert report.dim == 4 and report.residual_dim == 3 and report.drop == 1
    # the all-ones word is heavier than the minimum, so nothing is promised
    allones = (1 << 8) - 1
    report2 = hill_newton_holds(code, allones)
    assert not report2.guaranteed
    assert report2.drop == report2.dim - report2.residual_dim
    with pytest.raises(NotACodeword):
        hill_newton_holds(code, 0b111)


def test_rudolph_bound_values():
    assert rudolph_bound(5, 1) == 2
    assert rudolph_bound(3, 1) == 1
    assert rudolph_bound(21, 5) == 2
    assert rudolph_bound(1, 1) == 0
    with pytest.raises(WrongParameters):
        rudolph_bound(0, 1)
    with pytest.raises(WrongParameters):
        rudolph_bound(5, 0)


def test_johnson_restricted_values():
    assert johnson_restricted(85, 32, 21) == 85
    assert johnson_restricted(7, 4, 3) == 7
    assert johnson_restricted(10, 2, 10) == 1  # w = n leaves one word
    assert johnson_restricted(20, 2, 10) == inf  # denominator <= 0
    with pytest.raises(WrongParameters):
        johnson_restricted(5, 4, 6)
    with pytest.raises(WrongParameters):
        johnson_restricted(5, 0, 3)


def test_caps_raise_too_large(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked past the cap")

    monkeypatch.setattr(codes_module, "_walk", no_walk)
    code = code_from_bitrows([1 << j for j in range(29)], 29)  # the identity code: 2^29 words
    assert code.size > DEFAULT_CAP >= 1 << 20
    with pytest.raises(CapExceeded):
        list(iter_codewords(code))
    with pytest.raises(TooLarge):
        weight_distribution(code)
    for w in (0, 4, 30):
        with pytest.raises(TooLarge):
            codewords_of_weight(code, w)
    with pytest.raises(TooLarge):
        min_weight(code)
    singletons = Resolution(tuple((j,) for j in range(29)))
    with pytest.raises(CapExceeded):
        parallel_union_codewords(code, singletons, 2)


def test_codewords_of_weight_zero_and_out_of_range_do_not_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked for a weight the length decides")

    monkeypatch.setattr(codes_module, "_walk", no_walk)
    monkeypatch.setattr(codes_module, "_odometer", no_walk)
    code = rm_code(2, 4)
    assert codewords_of_weight(code, 0) == [0]
    for w in (-1, code.length + 1):
        assert codewords_of_weight(code, w) == []
    ternary = code_from_rows(MatGFp(2, 4, 3, arr=np.array([[1, 0, 1, 2], [0, 1, 1, 1]])))
    (zero,) = codewords_of_weight(ternary, 0)
    assert zero.dtype == np.int64 and not zero.any() and zero.shape == (4,)
    for w in (-1, 5):
        assert codewords_of_weight(ternary, w) == []


def test_codewords_of_weight_matches_enumeration():
    code = rm_code(2, 4)
    direct = [w for w in iter_codewords(code) if w.bit_count() == 4]
    assert codewords_of_weight(code, 4) == direct
    assert codewords_of_weight(code, 5) == []


def test_workers_other_than_one_raise(ag34):
    # the keyword stays only for callers that pass workers=1
    code = rm_code(2, 5)
    for workers in (2, 0):
        with pytest.raises(WrongParameters):
            weight_distribution(code, workers=workers)
        with pytest.raises(WrongParameters):
            codewords_of_weight(code, 8, workers=workers)
        with pytest.raises(WrongParameters):
            embedding_search(ag34, 0, workers=workers)


def _gray_walk(rows):
    """Reference GF(2) enumeration: one XOR per step of the Gray sequence."""
    word = 0
    yield word
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        yield word


def _random_code(rng, length, dim):
    while True:
        code = code_from_bitrows([rng.getrandbits(length) for _ in range(dim)], length)
        if code.dim == dim:
            return code


def test_span_kernel_matches_gray_walk(monkeypatch):
    # lengths around the 64-bit limb boundaries, dims around the chunk width k
    # (small widths and the shipped one); word i of the walk lies in chunk i >> k
    rng = random.Random(107)
    split = absent = 0
    for k, length in product((1, 4, codes_module._CHUNK_BITS), (1, 63, 64, 65, 129, 336)):
        monkeypatch.setattr(codes_module, "_CHUNK_BITS", k)
        for dim in sorted({0, 1, k - 1, k, k + 1, k + 4}):
            if dim > length:
                continue
            code = _random_code(rng, length, dim)
            ref = list(_gray_walk(code.basis_bits))
            hist = Counter(w.bit_count() for w in ref)
            assert weight_distribution(code).counts == dict(sorted(hist.items()))
            assert list(iter_codewords(code)) == ref
            common = max(hist, key=hist.get)
            missing = [w for w in range(1, length + 1) if w not in hist][:1]
            for w in [0, min(hist.keys() - {0}, default=1), common, length] + missing:
                assert codewords_of_weight(code, w) == [x for x in ref if x.bit_count() == w]
            split += len({i >> k for i, x in enumerate(ref) if x.bit_count() == common}) > 1
            absent += len(missing)
            if dim:
                assert min_weight(code) == min(hist.keys() - {0})
    assert split and absent


def test_parallel_union_filter_matches_gray_walk(monkeypatch):
    # codes spanned mostly by unions of classes, across limb and chunk boundaries
    rng = random.Random(108)
    shipped = codes_module._CHUNK_BITS
    split = 0
    for length, dim in ((12, 5), (65, 9), (130, 13), (336, 14)):
        coords = list(range(length))
        rng.shuffle(coords)
        cuts = sorted(rng.sample(range(1, length), length // 5))
        classes = [tuple(sorted(coords[a:b])) for a, b in zip([0] + cuts, cuts + [length])]
        masks = [sum(1 << j for j in cls) for cls in classes]
        rows = [sum(m for m in masks if rng.random() < 0.4) for _ in range(dim - 2)]
        rows += [rng.getrandbits(length) for _ in range(2)]
        code = code_from_bitrows(rows, length)
        ref = list(_gray_walk(code.basis_bits))
        unions = [x for x in ref if all(x & m in (0, m) for m in masks)]
        assert len(unions) > 2
        res = Resolution(tuple(classes))
        hist = Counter(x.bit_count() for x in unions)
        # small widths: the commonest nonzero weight and a weight with no words;
        # more than two words of one weight fill several 2-word chunks at k = 1
        common = max(hist.keys() - {0}, key=hist.get)
        split += hist[common] > 2
        few = (common, min(set(range(1, length + 1)) - hist.keys()))
        for k, weights in ((1, few), (4, few), (shipped, {0, length} | hist.keys())):
            monkeypatch.setattr(codes_module, "_CHUNK_BITS", k)
            for w in weights:
                want = [x for x in unions if x.bit_count() == w]
                assert sorted(parallel_union_codewords(code, res, w)) == sorted(want)
    assert split


def test_column_code_is_row_code_of_transpose(fano):
    m = fano.incidence_matrix(2)
    assert code_from_cols(m).dim == code_from_rows(m.transpose()).dim
    assert code_from_cols(m).basis_bits == code_from_rows(m.transpose()).basis_bits
