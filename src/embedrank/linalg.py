"""Matrices over GF(p): rank and reduced row echelon form.

Two storage paths share one interface.  For p = 2 each row is a Python int
used as a bit vector (bit j = column j), so a row operation is a single XOR
on machine words.  For 2 < p < 256 rows live in a numpy uint8 array and
elimination uses vectorized row updates mod p.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import BadDimension, NonPrimeModulus, TooLarge
from .fields import is_prime


class MatGFp:
    """A dense matrix over GF(p) with p prime and p < 256."""

    __slots__ = ("nrows", "ncols", "p", "bits", "arr")

    def __init__(self, nrows: int, ncols: int, p: int, bits=None, arr=None):
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if p >= 256:
            raise TooLarge("byte storage limits the modulus to p < 256")
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        self.bits: list[int] | None = bits
        self.arr: np.ndarray | None = arr

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]], ncols: int, p: int) -> "MatGFp":
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != ncols:
                raise BadDimension("ragged rows")
        if p == 2:
            bits = [sum((int(x) & 1) << j for j, x in enumerate(r)) for r in rows]
            return cls(len(rows), ncols, 2, bits=bits)
        # checks p before the reduction divides by it
        out = cls(len(rows), ncols, p)
        out.arr = (np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % p).astype(np.uint8)
        return out

    @classmethod
    def from_bitrows(cls, bitrows: Sequence[int], ncols: int) -> "MatGFp":
        return cls(len(bitrows), ncols, 2, bits=list(bitrows))

    def to_lists(self) -> list[list[int]]:
        if self.p == 2:
            return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.bits]
        return self.arr.astype(int).tolist()

    def transpose(self) -> "MatGFp":
        if self.p == 2:
            cols = [0] * self.ncols
            for i, r in enumerate(self.bits):
                while r:
                    low = r & -r
                    cols[low.bit_length() - 1] |= 1 << i
                    r ^= low
            return MatGFp(self.ncols, self.nrows, 2, bits=cols)
        return MatGFp(self.ncols, self.nrows, self.p, arr=self.arr.T.copy())

    def __repr__(self) -> str:
        return f"MatGFp({self.nrows}x{self.ncols} over GF({self.p}))"


def _rref_bits(bits: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """RREF for bit-rows; returns (nonzero rows in pivot order, pivot columns)."""
    basis: dict[int, int] = {}
    for row in bits:
        r = row
        while r:
            piv = (r & -r).bit_length() - 1
            if piv in basis:
                r ^= basis[piv]
            else:
                basis[piv] = r
                break
    pivots = sorted(basis)
    # back-substitute so every pivot column is zero elsewhere
    for i in range(len(pivots) - 1, -1, -1):
        p_i = pivots[i]
        for p_j in pivots[:i]:
            if (basis[p_j] >> p_i) & 1:
                basis[p_j] ^= basis[p_i]
    return [basis[p] for p in pivots], pivots


def _rref_generic(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    a = arr.astype(np.int64) % p
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        for j in other:
            if j != r:
                a[j] = (a[j] - a[j, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)].astype(np.uint8), pivots


def mat_rref(m: MatGFp) -> tuple[MatGFp, list[int]]:
    """Reduced row echelon form (nonzero rows only) and its pivot columns."""
    if m.p == 2:
        rows, pivots = _rref_bits(m.bits, m.ncols)
        return MatGFp(len(rows), m.ncols, 2, bits=rows), pivots
    arr, pivots = _rref_generic(m.arr, m.p)
    return MatGFp(arr.shape[0], m.ncols, m.p, arr=arr), pivots


def mat_rank(m: MatGFp) -> int:
    return len(mat_rref(m)[1])


def support_from_bitmask(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
