"""Designs from finite affine and projective geometries.

AG_d(n, q): points are the vectors of GF(q)^n, blocks the cosets of all
d-dimensional linear subspaces.  PG_d(n, q): points are the 1-dimensional
subspaces of GF(q)^(n+1) (normalized representatives, first nonzero
coordinate 1), blocks the (d+1)-dimensional subspaces.

Everything is enumerated in a fixed order so repeated runs are identical:
field elements by their integer encoding, vectors lexicographically (a
vector's index is its base-q value, first coordinate most significant), and
subspaces by their reduced-row-echelon canonical matrices (pivot columns in
lexicographic order, then free entries odometer-style).

Vectors are numpy digit rows, and field arithmetic is a gather from the
field's addition and multiplication tables.  A subspace's q^d vectors are
its RREF basis combined with every coefficient row, in `product` order.  The
least point of an AG coset is its one point that is zero at the basis's pivot
columns, so the cosets of a subspace are listed from those points upward:
by least contained point, as a walk over uncovered start points lists them.
A PG subspace's normalized vectors are the combinations whose first nonzero
coefficient is 1, since that coefficient is the vector's value at its pivot.
Blocks are handed over unsorted; IncidenceStructure sorts each one.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .designs import IncidenceStructure, Resolution
from .errors import WrongParameters
from .fields import FieldSpec, field_from_order


def _rref_subspaces(spec: FieldSpec, ambient: int, dim: int):
    """Yield bases (tuples of rows) of all dim-subspaces of GF(q)^ambient.

    One basis per subspace, in RREF canonical form.  Deterministic order:
    pivot column sets lexicographically, free entries counted row-major.
    """
    q = spec.order
    for pivots in combinations(range(ambient), dim):
        pivot_set = set(pivots)
        free_pos = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, ambient)
            if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free_pos)):
            rows = [[0] * ambient for _ in range(dim)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), val in zip(free_pos, values):
                rows[i][j] = val
            yield tuple(tuple(r) for r in rows)


def _field(q: int):
    """GF(q) with its addition and multiplication tables as int16 arrays."""
    spec = field_from_order(q)
    return spec, np.array(spec.add, dtype=np.int16), np.array(spec.mul, dtype=np.int16)


def _coefficients(q: int, k: int) -> np.ndarray:
    """All q^k rows over 0..q-1 in `product` order, first entry most significant."""
    return np.indices((q,) * k, dtype=np.int16).reshape(k, -1).T


def _combine(add: np.ndarray, mul: np.ndarray, coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The combination of the basis rows by each coefficient row, as digit rows."""
    vecs = np.zeros((len(coeffs), basis.shape[1]), dtype=np.int16)
    for c, row in zip(coeffs.T, basis):
        vecs = add[vecs, mul[c[:, None], row]]
    return vecs


def _places(q: int, length: int) -> np.ndarray:
    """Place values of a base-q digit row, first digit most significant."""
    return np.array([q**e for e in range(length - 1, -1, -1)], dtype=np.int32)


def ag_design(n: int, q: int, d: int) -> tuple[IncidenceStructure, Resolution]:
    """The 2-design of d-flats of AG(n, q), plus its classical resolution.

    Points are indexed lexicographically; the cosets of each subspace form one
    parallel class, ordered by least contained point.  For d = n - 1 the
    returned resolution is the unique one.
    """
    if not 1 <= d < n:
        raise WrongParameters("need 1 <= d < n")
    spec, add, mul = _field(q)
    places = _places(q, n)
    coeffs = _coefficients(q, d)
    offsets = _coefficients(q, n - d)
    blocks: list[list[int]] = []
    classes: list[tuple[int, ...]] = []
    for rows in _rref_subspaces(spec, n, d):
        basis = np.array(rows, dtype=np.int16)
        members = _combine(add, mul, coeffs, basis)
        # The cosets' least points: zero at the pivots, ascending.
        free = np.ones(n, dtype=bool)
        free[[row.index(1) for row in rows]] = False
        starts = np.zeros((len(offsets), n), dtype=np.int16)
        starts[:, free] = offsets
        cosets = add[starts[:, None, :], members] @ places
        classes.append(tuple(range(len(blocks), len(blocks) + len(cosets))))
        blocks.extend(cosets.tolist())
    design = IncidenceStructure(q**n, blocks, name=f"AG_{d}({n},{q})")
    return design, Resolution(classes=tuple(classes))


def pg_design(n: int, q: int, d: int) -> IncidenceStructure:
    """The 2-design of d-subspaces of PG(n, q)."""
    if not 1 <= d < n:
        raise WrongParameters("need 1 <= d < n")
    spec, add, mul = _field(q)
    ambient = n + 1
    # The normalized vectors in point order: those with e free trailing
    # coordinates are the values q^e .. 2q^e - 1, for e = 0, 1, ...
    values = np.concatenate([np.arange(q**e, 2 * q**e, dtype=np.int32) for e in range(ambient)])
    index = np.zeros(q**ambient, dtype=np.int32)
    index[values] = np.arange(len(values), dtype=np.int32)
    places = _places(q, ambient)
    coeffs = _coefficients(q, d + 1)
    normal = coeffs[[next(filter(None, c), 0) == 1 for c in coeffs.tolist()]]
    blocks = [
        index[_combine(add, mul, normal, np.array(rows, dtype=np.int16)) @ places].tolist()
        for rows in _rref_subspaces(spec, ambient, d + 1)
    ]
    return IncidenceStructure(len(values), blocks, name=f"PG_{d}({n},{q})")
