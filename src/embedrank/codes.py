"""Linear codes over GF(p) and their weight enumeration.

A LinearCode stores a reduced-row-echelon basis.  Codeword enumeration over
GF(2) follows the reflected-binary Gray sequence over the basis rows, so lists
of codewords come out in a fixed order.  One numpy kernel walks that sequence
in chunks of 2^13 words: the span of the low 13 basis rows, held as limb-major
uint64 words, XORed with one offset per chunk, with weights from
`bitwise_count`.  Weight distributions, words of one weight, minimum weights
and the GF(2) enumeration all read its chunks.  For p > 2 a mixed-radix
odometer plays the same role.  Every enumerator refuses, with CapExceeded,
a code of more than DEFAULT_CAP = 2^28 codewords, read at call time;
embedding.parallel_union_codewords walks only a subcode but compares the whole
code's size with the same cap.  The one override is weight_distribution's
`cap`, which backs `embedrank wdist --cap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf

import numpy as np

from .designs import IncidenceStructure
from .errors import (
    BadDimension,
    CapExceeded,
    NotACodeword,
    NotBent,
    WrongParameters,
)
from .linalg import MatGFp, mat_rref, support_from_bitmask

DEFAULT_CAP = 1 << 28


# A chunk of the GF(2) kernel holds 2^_CHUNK_BITS words.  The per-chunk XOR
# broadcasts one offset column over the buffer, and numpy runs it at 0.21-0.23
# ns per uint64 limb-word once a limb row is at least its 8192-element ufunc
# buffer wide, against 0.59-0.70 ns at 4096 (numpy 2.4 on a 2-core x86-64 VM).
# Wider chunks keep bigger buffers resident: on a [336,24] code a 2^13 chunk
# holds 6 limbs x 2^13 x 8 B = 384 KiB of words, where chunks of 2^16 words
# raised peak memory by 7 MB.
_CHUNK_BITS = 13


def _check_cap(code: LinearCode, cap: int | None = None) -> None:
    """CapExceeded when the code has more than `cap` words (None: DEFAULT_CAP)."""
    limit = DEFAULT_CAP if cap is None else cap
    if code.size > limit:
        raise CapExceeded(f"{code.size} codewords exceed the cap {limit}")


@dataclass
class LinearCode:
    """A code given by an RREF basis (bit-rows when p = 2)."""

    length: int
    p: int
    basis_bits: list[int] | None = None
    basis_arr: np.ndarray | None = None
    pivots: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        if self.p == 2:
            return len(self.basis_bits)
        return int(self.basis_arr.shape[0])

    @property
    def size(self) -> int:
        return self.p**self.dim

    def contains(self, word) -> bool:
        if self.p == 2:
            return self._residue(int(word)) == 0
        r = np.asarray(word, dtype=np.int64) % self.p
        for i, piv in enumerate(self.pivots):
            c = int(r[piv])
            if c:
                r = (r - c * self.basis_arr[i].astype(np.int64)) % self.p
        return not r.any()

    def _residue(self, word: int) -> int:
        """A GF(2) word reduced against the RREF basis; 0 exactly for codewords."""
        r = word
        for row, piv in zip(self.basis_bits, self.pivots):
            if (r >> piv) & 1:
                r ^= row
        return r


def code_from_rows(m: MatGFp) -> LinearCode:
    rref, pivots = mat_rref(m)
    if m.p == 2:
        return LinearCode(length=m.ncols, p=2, basis_bits=list(rref.bits), pivots=tuple(pivots))
    return LinearCode(length=m.ncols, p=m.p, basis_arr=rref.arr.copy(), pivots=tuple(pivots))


def code_from_cols(m: MatGFp) -> LinearCode:
    return code_from_rows(m.transpose())


def code_from_bitrows(rows, length: int) -> LinearCode:
    return code_from_rows(MatGFp.from_bitrows(list(rows), length))


# ---------------------------------------------------------------------------
# GF(2) span kernel
#
# Word i of the walk is the XOR of the basis rows j at the set bits of
# gray(i) = i ^ (i >> 1).  Split i = h * 2^k + l over k low rows: the low k bits
# of gray(i) are gray(l) with bit k - 1 flipped when h is odd, and the high
# bits are gray(h).  So chunk h is the Gray-ordered span table of the low rows
# XORed with one offset, and consecutive offsets differ by two basis rows: the
# walk XORs that difference into one buffer in place.


def _limbs(words, length: int) -> np.ndarray:
    """GF(2) words of the given length as limb-major uint64 columns.

    Row l holds bits 64l .. 64l + 63 of every word; there is at least one row.
    """
    nlimbs = max(1, -(-length // 64))
    raw = b"".join(w.to_bytes(8 * nlimbs, "little") for w in words)
    cols = np.frombuffer(raw, dtype="<u8").reshape(len(words), nlimbs).T
    return np.ascontiguousarray(cols, dtype=np.uint64)


def _words(cols: np.ndarray) -> list[int]:
    """The inverse of _limbs: limb-major uint64 columns as Python ints."""
    size = 8 * cols.shape[0]
    raw = np.ascontiguousarray(cols.T, dtype="<u8").tobytes()
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def _span_table(rows: np.ndarray) -> np.ndarray:
    """The span of the limb-major columns `rows`, in Gray-walk order.

    Built by reflection: the second half of the first 2^(b+1) entries is the
    first half reversed, XORed with row b.
    """
    nlimbs, k = rows.shape
    table = np.zeros((nlimbs, 1 << k), dtype=np.uint64)
    for b in range(k):
        half = 1 << b
        np.bitwise_xor(table[:, half - 1 :: -1], rows[:, b : b + 1], out=table[:, half : 2 * half])
    return table


def _walk(basis: list[int], length: int):
    """Yield (words, weights) chunk by chunk over the Gray walk of the whole code.

    `words` is a limb-major uint64 array with one column per codeword, in walk
    order, and `weights` their Hamming weights.  Both buffers are overwritten
    by the next chunk.
    """
    rows = _limbs(basis, length)
    k = min(_CHUNK_BITS, len(basis))
    words = _span_table(rows[:, :k])
    steps = rows[:, k:] ^ rows[:, k - 1 : k]
    wdtype = np.uint16 if length < 1 << 16 else np.uint32
    counts = np.empty(words.shape, dtype=np.uint8)
    weights = np.empty(words.shape[1], dtype=wdtype)
    for h in range(1 << (len(basis) - k)):
        if h:
            j = (h & -h).bit_length() - 1
            np.bitwise_xor(words, steps[:, j : j + 1], out=words)
        np.bitwise_count(words, out=counts)
        np.add.reduce(counts, axis=0, dtype=wdtype, out=weights)
        yield words, weights


def _histogram(basis: list[int], length: int) -> np.ndarray:
    hist = np.zeros(length + 1, dtype=np.int64)
    for _, weights in _walk(basis, length):
        hist += np.bincount(weights, minlength=length + 1)
    return hist


def _weight_words(basis: list[int], length: int, w: int) -> list[int]:
    """The weight-w words of the code, in walk order.

    Only the words of weight w become Python ints.
    """
    out: list[int] = []
    for words, weights in _walk(basis, length):
        hits = np.flatnonzero(weights == w)
        if hits.size:
            out += _words(words[:, hits])
    return out


def _single_process(workers: int) -> None:
    """Every walk and search runs in the calling process: `workers` must be 1."""
    if workers != 1:
        raise WrongParameters(f"workers must be 1, got {workers}")


def _odometer(code: LinearCode):
    """Every codeword of a code over GF(p), p > 2, zero first, as a mixed-radix count.

    Yields one numpy vector that the consumer must not mutate; the caller
    checks the cap.
    """
    k = code.dim
    vec = np.zeros(code.length, dtype=np.int64)
    yield vec
    if k == 0:
        return
    digits = [0] * k
    basis = code.basis_arr.astype(np.int64)
    for _ in range(code.p**k - 1):
        i = 0
        while digits[i] == code.p - 1:
            # roll a maxed digit back to 0: subtract (p-1) copies = add one copy
            digits[i] = 0
            vec = (vec + basis[i]) % code.p
            i += 1
        digits[i] += 1
        vec = (vec + basis[i]) % code.p
        yield vec


def iter_codewords(code: LinearCode):
    """Yield every codeword once, zero first, in the fixed enumeration order.

    GF(2) words are ints (bit j = coordinate j); other fields yield numpy
    vectors that must not be mutated by the consumer.
    """
    _check_cap(code)
    if code.p == 2:
        for words, _ in _walk(code.basis_bits, code.length):
            yield from _words(words)
    else:
        yield from _odometer(code)


@dataclass
class WeightDistribution:
    length: int
    p: int
    dim: int
    counts: dict[int, int]

    def __getitem__(self, w: int) -> int:
        return self.counts.get(w, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def min_nonzero(self) -> int:
        return min(w for w in self.counts if w > 0)

    def as_csv(self) -> str:
        lines = ["weight,count"]
        for w in sorted(self.counts):
            lines.append(f"{w},{self.counts[w]}")
        return "\n".join(lines) + "\n"


def weight_distribution(code: LinearCode, cap: int | None = None, workers: int = 1) -> WeightDistribution:
    """Exact weight distribution by full enumeration; `cap` overrides DEFAULT_CAP."""
    _single_process(workers)
    _check_cap(code, cap)
    if code.p == 2:
        hist = _histogram(code.basis_bits, code.length)
        counts = {w: int(c) for w, c in enumerate(hist) if c}
    else:
        counts = {}
        for vec in _odometer(code):
            w = int(np.count_nonzero(vec))
            counts[w] = counts.get(w, 0) + 1
    return WeightDistribution(length=code.length, p=code.p, dim=code.dim, counts=dict(sorted(counts.items())))


def min_weight(code: LinearCode) -> int:
    """Smallest nonzero codeword weight (full enumeration)."""
    if code.dim == 0:
        raise WrongParameters("the zero code has no nonzero codeword")
    return weight_distribution(code).min_nonzero()


def codewords_of_weight(code: LinearCode, w: int, workers: int = 1) -> list:
    """All codewords of the given weight, in enumeration order."""
    _single_process(workers)
    _check_cap(code)
    if w == 0:
        return [0] if code.p == 2 else [np.zeros(code.length, dtype=np.int64)]
    if not 0 < w <= code.length:
        return []
    if code.p == 2:
        return _weight_words(code.basis_bits, code.length, w)
    return [vec.copy() for vec in _odometer(code) if int(np.count_nonzero(vec)) == w]


def residual_code(code: LinearCode, word) -> LinearCode:
    """Puncture the code on the support of one of its codewords."""
    if not code.contains(word):
        raise NotACodeword("the vector is not in the code")
    if code.p == 2:
        word = int(word)
        keep = [j for j in range(code.length) if not (word >> j) & 1]
        pos = {j: i for i, j in enumerate(keep)}
        rows = []
        for row in code.basis_bits:
            r = 0
            m = row
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if j in pos:
                    r |= 1 << pos[j]
                m ^= low
            rows.append(r)
        return code_from_rows(MatGFp(len(rows), len(keep), 2, bits=rows))
    vec = np.asarray(word, dtype=np.int64) % code.p
    keep = [j for j in range(code.length) if not vec[j]]
    arr = code.basis_arr[:, keep]
    return code_from_rows(MatGFp(arr.shape[0], len(keep), code.p, arr=arr.copy()))


@dataclass(frozen=True)
class DimensionDrop:
    """Observed vs guaranteed dimension loss when puncturing on a codeword."""

    guaranteed: bool
    drop: int
    dim: int
    residual_dim: int


def hill_newton_holds(code: LinearCode, word) -> DimensionDrop:
    """Check the minimum-weight dimension-drop criterion on one codeword.

    When wt(word) equals the minimum weight d, the strict inequality
    d < p*d/(p-1) holds automatically and the punctured code loses exactly one
    dimension.  The actual drop is computed alongside for comparison.
    """
    res = residual_code(code, word)
    if code.p == 2:
        wt = int(word).bit_count()
    else:
        wt = int(np.count_nonzero(np.asarray(word) % code.p))
    guaranteed = wt == min_weight(code)
    return DimensionDrop(
        guaranteed=guaranteed,
        drop=code.dim - res.dim,
        dim=code.dim,
        residual_dim=res.dim,
    )


def rudolph_bound(r: int, lam: int) -> int:
    """floor((r + lambda - 1) / (2 lambda)), the majority-logic error bound."""
    if r < 1 or lam < 1:
        raise WrongParameters("need r >= 1 and lambda >= 1")
    return (r + lam - 1) // (2 * lam)


def johnson_restricted(n: int, d: int, w: int):
    """Upper bound on binary constant-weight-w codes with minimum distance d.

    Constant-weight codes have even pairwise distances, so odd d is rounded up.
    Returns the bound n*delta / (w^2 - w*n + n*delta) when the denominator is
    positive, else math.inf (the bound gives no information there).
    """
    if not 0 < w <= n or d < 1:
        raise WrongParameters("need 0 < w <= n and d >= 1")
    delta = (d + 1) // 2
    den = w * w - w * n + n * delta
    if den <= 0:
        return inf
    return (n * delta) // den


def rm_code(r: int, m: int) -> LinearCode:
    """The binary Reed-Muller code RM(r, m) of length 2^m.

    Generator rows are monomial evaluations; coordinate j is the point whose
    i-th variable is bit i of j.  Monomials ordered by degree, then by
    variable subset.
    """
    if not 0 <= r <= m:
        raise WrongParameters("need 0 <= r <= m")
    n = 1 << m
    rows = []
    for deg in range(r + 1):
        for subset in combinations(range(m), deg):
            mask = 0
            for i in subset:
                mask |= 1 << i
            row = 0
            for point in range(n):
                if point & mask == mask:
                    row |= 1 << point
            rows.append(row)
    return code_from_bitrows(rows, n)


def punctured_rm_code(r: int, m: int, coord: int = 0) -> LinearCode:
    """RM(r, m) with one coordinate deleted."""
    base = rm_code(r, m)
    n = base.length
    if not 0 <= coord < n:
        raise BadDimension(f"coordinate {coord} outside 0..{n - 1}")
    rows = []
    low_mask = (1 << coord) - 1
    for row in base.basis_bits:
        rows.append((row & low_mask) | ((row >> (coord + 1)) << coord))
    return code_from_bitrows(rows, n - 1)


def walsh_spectrum(truth_table) -> list[int]:
    """Walsh-Hadamard transform of (-1)^f for a Boolean truth table."""
    n = len(truth_table)
    if n & (n - 1):
        raise WrongParameters("truth table length must be a power of two")
    vals = [1 - 2 * int(x) for x in truth_table]
    h = 1
    while h < n:
        for i in range(0, n, h * 2):
            for j in range(i, i + h):
                x, y = vals[j], vals[j + h]
                vals[j], vals[j + h] = x + y, x - y
        h *= 2
    return vals


def is_bent(truth_table) -> bool:
    """Flat Walsh spectrum test; requires length 2^(2m)."""
    n = len(truth_table)
    if n & (n - 1) or n < 4:
        return False
    two_m = n.bit_length() - 1
    if two_m % 2:
        return False
    level = 1 << (two_m // 2)
    return all(abs(x) == level for x in walsh_spectrum(truth_table))


def bent_quadratic(m: int) -> tuple[int, ...]:
    """The inner-product bent function x1 x2 + x3 x4 + ... on 2m variables."""
    n = 1 << (2 * m)
    tt = []
    for point in range(n):
        acc = 0
        for i in range(m):
            acc ^= ((point >> (2 * i)) & 1) & ((point >> (2 * i + 1)) & 1)
        tt.append(acc)
    return tuple(tt)


def sdp_code(truth_table) -> LinearCode:
    """Span of a bent function's truth table together with RM(1, 2m).

    The resulting [2^(2m), 2m + 2] code has the symmetric-difference property;
    its minimum-weight supports carry a symmetric 2-design.
    """
    if not is_bent(truth_table):
        raise NotBent("truth table fails the flat-spectrum test")
    n = len(truth_table)
    two_m = n.bit_length() - 1
    bent_row = sum((int(x) & 1) << i for i, x in enumerate(truth_table))
    rows = [bent_row] + list(rm_code(1, two_m).basis_bits)
    code = code_from_bitrows(rows, n)
    if code.dim != two_m + 2:
        raise NotBent("bent row is dependent on the affine functions")
    return code


def min_weight_design(code: LinearCode) -> IncidenceStructure:
    """Blocks are the supports of the minimum-weight codewords."""
    if code.p != 2:
        raise WrongParameters("support designs are implemented over GF(2)")
    d = min_weight(code)
    blocks = [tuple(support_from_bitmask(wd)) for wd in codewords_of_weight(code, d)]
    return IncidenceStructure(code.length, blocks, name=f"minwt({code.length},{code.dim})")
