"""Finite-geometry designs: flats of AG(n, q) and subspaces of PG(n, q)."""

from itertools import product

import pytest

from embedrank.designs import (
    IncidenceStructure,
    Resolution,
    is_affine_resolvable,
    make_resolution,
    verify_tdesign,
)
from embedrank.errors import WrongParameters
from embedrank.fields import field_from_order
from embedrank.geometry import _rref_subspaces, ag_design, pg_design
from embedrank.iso import are_isomorphic


# Reference builders: one vector at a time in pure Python, from the field's
# tuple tables.  The numpy builders must reproduce them exactly.

def _vec_add(spec, a, b):
    return tuple(spec.add[x][y] for x, y in zip(a, b))


def _vec_scale(spec, s, a):
    return tuple(spec.mul[s][x] for x in a)


def _span(spec, basis):
    """All GF(q)-combinations of the basis rows, coefficients in `product` order."""
    out = []
    for coeffs in product(range(spec.order), repeat=len(basis)):
        vec = tuple([0] * len(basis[0]))
        for c, row in zip(coeffs, basis):
            if c:
                vec = _vec_add(spec, vec, _vec_scale(spec, c, row))
        out.append(vec)
    return out


def _point_index(vec, q):
    idx = 0
    for x in vec:
        idx = idx * q + x
    return idx


def _index_point(idx, q, n):
    digits = []
    for _ in range(n):
        digits.append(idx % q)
        idx //= q
    return tuple(reversed(digits))


def _reference_ag_design(n, q, d):
    """Cosets of each subspace, from the least uncovered start point upward."""
    spec = field_from_order(q)
    npoints = q**n
    blocks, classes = [], []
    for basis in _rref_subspaces(spec, n, d):
        members = sorted(_point_index(v, q) for v in _span(spec, basis))
        covered = [False] * npoints
        cls = []
        for start in range(npoints):
            if covered[start]:
                continue
            rep = _index_point(start, q, n)
            coset = sorted(
                _point_index(_vec_add(spec, rep, _index_point(m, q, n)), q) for m in members
            )
            for x in coset:
                covered[x] = True
            cls.append(len(blocks))
            blocks.append(tuple(coset))
        classes.append(tuple(cls))
    design = IncidenceStructure(npoints, blocks, name=f"AG_{d}({n},{q})")
    return design, Resolution(classes=tuple(classes))


def _reference_pg_design(n, q, d):
    """Each subspace's nonzero vectors, scaled to first nonzero coordinate 1."""
    spec = field_from_order(q)
    ambient = n + 1
    points = []
    for lead in range(ambient - 1, -1, -1):
        for rest in product(range(q), repeat=ambient - 1 - lead):
            points.append(tuple([0] * lead) + (1,) + rest)
    index = {v: i for i, v in enumerate(points)}
    inv = [0] + [spec.mul[a].index(1) for a in range(1, q)]
    blocks = []
    for basis in _rref_subspaces(spec, ambient, d + 1):
        members = set()
        for vec in _span(spec, basis):
            first = next((x for x in vec if x), 0)
            if first:
                members.add(index[_vec_scale(spec, inv[first], vec)])
        blocks.append(tuple(sorted(members)))
    return IncidenceStructure(len(points), blocks, name=f"PG_{d}({n},{q})")


AG_GRID = [
    (2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1), (2, 7, 1), (2, 8, 1), (2, 9, 1),
    (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (3, 4, 1), (3, 5, 1), (3, 5, 2),
    (3, 7, 2), (3, 8, 2), (3, 9, 2), (4, 2, 1), (4, 2, 2), (4, 2, 3), (4, 3, 1),
    (4, 3, 3), (5, 2, 1), (5, 2, 2), (5, 2, 3), (5, 2, 4), (5, 3, 4),
]
PG_GRID = [
    (2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1), (2, 7, 1), (2, 8, 1), (2, 9, 1),
    (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (3, 4, 1), (3, 5, 2), (4, 2, 1),
    (4, 2, 2), (4, 2, 3), (4, 3, 3), (5, 2, 2), (5, 2, 4),
]


@pytest.mark.parametrize("n,q,d", AG_GRID)
def test_ag_matches_reference(n, q, d):
    design, resolution = ag_design(n, q, d)
    ref, ref_resolution = _reference_ag_design(n, q, d)
    assert (design.v, design.blocks, design.name) == (ref.v, ref.blocks, ref.name)
    assert resolution.classes == ref_resolution.classes
    assert all(type(x) is int for blk in design.blocks for x in blk)


@pytest.mark.parametrize("n,q,d", PG_GRID)
def test_pg_matches_reference(n, q, d):
    design, ref = pg_design(n, q, d), _reference_pg_design(n, q, d)
    assert (design.v, design.blocks, design.name) == (ref.v, ref.blocks, ref.name)
    assert all(type(x) is int for blk in design.blocks for x in blk)


def gauss(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient: number of k-subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("n,q,d", [
    (2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1),
    (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (3, 4, 2),
    (4, 2, 1), (4, 2, 2), (4, 2, 3),
])
def test_ag_parameters(n, q, d):
    design, resolution = ag_design(n, q, d)
    params = verify_tdesign(design, 2)
    assert params is not None
    assert params.v == q**n
    assert params.k == q**d
    assert params.b == q ** (n - d) * gauss(n, d, q)
    assert params.lam == gauss(n - 1, d - 1, q)
    # the classical resolution really is one
    check = make_resolution(design, resolution.classes)
    assert check.num_classes == gauss(n, d, q)
    assert check.class_size == q ** (n - d)


@pytest.mark.parametrize("n,q,d", [
    (2, 2, 1), (2, 3, 1), (2, 4, 1),
    (3, 2, 1), (3, 2, 2), (3, 3, 2), (3, 4, 2),
])
def test_pg_parameters(n, q, d):
    design = pg_design(n, q, d)
    params = verify_tdesign(design, 2)
    assert params is not None
    assert params.v == gauss(n + 1, 1, q)
    assert params.k == gauss(d + 1, 1, q)
    assert params.b == gauss(n + 1, d + 1, q)
    assert params.lam == gauss(n - 1, d - 1, q)
    assert params.symmetric == (d == n - 1)


def test_ag34_headline(ag34, ag34_resolution):
    params = verify_tdesign(ag34, 2)
    assert (params.v, params.k, params.lam, params.b, params.r) == (64, 16, 5, 84, 21)
    aff = is_affine_resolvable(ag34)
    assert aff is not None and aff[:2] == (4, 4)
    assert ag34_resolution.num_classes == 21 and ag34_resolution.class_size == 4


def test_pg34_headline(pg34):
    params = verify_tdesign(pg34, 2)
    assert (params.v, params.k, params.lam) == (85, 21, 5)
    assert params.symmetric


def test_ag_planes_three_design():
    planes, _ = ag_design(3, 2, 2)
    params = verify_tdesign(planes, 3)
    assert (params.v, params.k, params.lam) == (8, 4, 1)


def test_hyperplane_designs_affine_resolvable():
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        design, resolution = ag_design(n, q, n - 1)
        aff = is_affine_resolvable(design)
        assert aff is not None
        assert aff[0] == q and aff[1] == q ** (n - 2)
        assert aff[2].as_sets() == resolution.as_sets()


def test_lines_of_ag32_not_affine():
    lines, resolution = ag_design(3, 2, 1)
    assert lines.b == 28 and lines.uniform_k() == 2
    # k^2 does not divide v, so the affine resolvability test must say no,
    # even though the coset resolution is perfectly valid
    assert is_affine_resolvable(lines) is None
    assert make_resolution(lines, resolution.classes)


def test_pg22_is_fano(fano):
    assert are_isomorphic(pg_design(2, 2, 1), fano)


def test_determinism():
    a1, r1 = ag_design(3, 3, 2)
    a2, r2 = ag_design(3, 3, 2)
    assert a1.blocks == a2.blocks and r1.classes == r2.classes
    assert pg_design(2, 4, 1).blocks == pg_design(2, 4, 1).blocks


def test_names():
    design, _ = ag_design(3, 4, 2)
    assert design.name == "AG_2(3,4)"
    assert pg_design(3, 4, 2).name == "PG_2(3,4)"


def test_dimension_validation():
    with pytest.raises(WrongParameters):
        ag_design(3, 2, 0)
    with pytest.raises(WrongParameters):
        ag_design(3, 2, 3)
    with pytest.raises(WrongParameters):
        pg_design(2, 2, 2)


def test_blocks_are_flats():
    # every AG block is closed under the affine line through any two points
    design, _ = ag_design(2, 5, 1)
    for blk in design.blocks[:10]:
        pts = [divmod(x, 5) for x in blk]
        a, b = pts[0], pts[1]
        for t in range(5):
            x = ((a[0] + t * (b[0] - a[0])) % 5, (a[1] + t * (b[1] - a[1])) % 5)
            assert x[0] * 5 + x[1] in blk
