"""Incidence structures: verification, restrictions, resolutions, block types."""

import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import relabel
from embedrank.designs import (
    GoodBlock,
    IncidenceStructure,
    Resolution,
    affine_family,
    derived,
    emit_des,
    emit_json,
    good_block,
    is_affine_resolvable,
    make_resolution,
    parallel_classes,
    parse_des,
    parse_json,
    residual,
    resolutions,
    verify_tdesign,
)
from embedrank.errors import BadIndex, CapExceeded, NonUniformBlockSize, WrongParameters
from embedrank.geometry import ag_design, pg_design


def test_verify_fano(fano):
    params = verify_tdesign(fano, 2)
    assert (params.v, params.k, params.lam) == (7, 3, 1)
    assert params.b == 7 and params.r == 3
    assert params.symmetric and params.fisher_ok
    assert params.lambdas == (7, 3, 1)
    assert verify_tdesign(fano, 3) is None


def test_verify_three_design():
    planes, _ = ag_design(3, 2, 2)
    p2 = verify_tdesign(planes, 2)
    assert (p2.v, p2.k, p2.lam) == (8, 4, 3)
    p3 = verify_tdesign(planes, 3)
    assert p3.lam == 1
    assert p3.lambdas == (14, 7, 3, 1)


def test_verify_rejects_near_designs(fano):
    broken = IncidenceStructure(7, fano.blocks[:-1])
    assert verify_tdesign(broken, 2) is None
    ragged = IncidenceStructure(4, [(0, 1), (2, 3), (0, 1, 2)])
    assert verify_tdesign(ragged, 2) is None


def test_k4_edge_design(k4_edges):
    params = verify_tdesign(k4_edges, 2)
    assert (params.v, params.k, params.lam) == (4, 2, 1)
    aff = is_affine_resolvable(k4_edges)
    assert aff is not None
    q, mu, res = aff
    assert (q, mu) == (2, 1)
    assert res.num_classes == 3
    assert len(parallel_classes(k4_edges)) == 3
    assert len(resolutions(k4_edges)) == 1


def test_residual_and_derived_fano(fano):
    res = residual(fano, 0)
    assert res.v == 4 and res.b == 6
    assert set(res.block_sizes()) == {2}
    der = derived(fano, 0)
    assert der.v == 3 and der.b == 6
    assert set(der.block_sizes()) == {1}
    # restriction sizes partition each block
    for j in range(1, fano.b):
        cut = sum(1 for x in fano.blocks[j] if x in fano.blocks[0])
        assert cut + len(res.blocks[j - 1]) == len(fano.blocks[j])


def test_keep_empty_flag(ag34):
    der_drop = derived(ag34, 0)
    der_keep = derived(ag34, 0, keep_empty=True)
    assert der_drop.b == 80
    assert der_keep.b == 83
    assert sum(1 for blk in der_keep.blocks if not blk) == 3
    res_keep = residual(ag34, 0, keep_empty=True)
    assert res_keep.b == 83
    with pytest.raises(BadIndex):
        residual(ag34, 84)


def test_intersection_profile(fano, ag34):
    def profile(design):
        """Histogram of |B_i cap B_j| over unordered block pairs."""
        return Counter((a & b).bit_count() for a, b in combinations(design.block_masks(), 2))

    assert profile(fano) == {1: 21}
    prof = profile(ag34)
    # affine resolvable: non-parallel blocks meet in mu = 4, parallel in 0
    assert set(prof) == {0, 4}
    assert prof[0] == 21 * 6  # 21 classes, C(4,2) disjoint pairs each


def test_affine_resolvable_detection(fano, ag34, ag34_resolution, pg34):
    assert is_affine_resolvable(fano) is None
    assert is_affine_resolvable(pg34) is None
    aff = is_affine_resolvable(ag34)
    assert aff is not None
    q, mu, res = aff
    assert (q, mu) == (4, 4)
    assert res.num_classes == 21 and res.class_size == 4
    assert res.as_sets() == ag34_resolution.as_sets()


def test_resolutions_of_affine_geometry(dpp_resolutions):
    planes, resolution = ag_design(3, 2, 2)
    assert len(parallel_classes(planes)) == 7
    sols = resolutions(planes)
    assert len(sols) == 1
    assert sols[0].as_sets() == resolution.as_sets()
    # the search lists the resolutions of D'' in lexicographic order of their
    # classes, each class ascending; the scan benchmark's case order rests on it
    keys = [r.classes for r in dpp_resolutions]
    assert len(keys) == 32
    assert keys == sorted(keys)
    assert all(r.classes == tuple(sorted(r.classes)) for r in dpp_resolutions)


def test_resolutions_limit(k4_edges):
    assert len(resolutions(k4_edges, limit=1)) == 1
    with pytest.raises(CapExceeded):
        resolutions(k4_edges, limit=0)


def test_resolution_is_a_partition():
    res = Resolution(((2, 0), (1, 3)))
    assert res.masks() == [0b101, 0b1010]
    assert Resolution(()).masks() == []
    for classes in [((0, 1), (1, 2)), ((0, 2),), ((-1, 0),), ((0, 0),), ((1,),)]:
        with pytest.raises(WrongParameters):
            Resolution(classes)


def test_make_resolution_validation(k4_edges):
    good = [(0, 5), (1, 4), (2, 3)]
    res = make_resolution(k4_edges, good)
    assert res.num_classes == 3
    with pytest.raises(WrongParameters):
        make_resolution(k4_edges, [(0, 1), (2, 3), (4, 5)])  # blocks 0,1 share a point
    with pytest.raises(WrongParameters):
        make_resolution(k4_edges, [(0, 5), (1, 4)])  # does not partition
    with pytest.raises(BadIndex):
        make_resolution(k4_edges, [(0, 9), (1, 4), (2, 3)])
    with pytest.raises(BadIndex):
        make_resolution(k4_edges, [(0, 9), (0, 4), (2, 3)])  # the range check comes first
    with pytest.raises(WrongParameters):
        make_resolution(k4_edges, [])  # partitions no blocks, not all six


def test_good_block_structure(ag34, ag34_gb):
    gb = ag34_gb
    assert affine_family(ag34)[:3] == (4, 3, 4)
    s_params = verify_tdesign(gb.s, 2)
    assert (s_params.v, s_params.k, s_params.lam) == (16, 4, 1)
    # simple: no repeated block and no two points on the same blocks
    assert len(set(gb.s.blocks)) == gb.s.b and len(set(gb.s.point_masks())) == gb.s.v
    assert gb.substructure.v == 48 and gb.substructure.b == 80
    assert set(gb.substructure.block_sizes()) == {12}
    assert gb.resolution.num_classes == 20 and gb.resolution.class_size == 4
    assert len(gb.parallel) == 3


def test_good_block_grid():
    for n, q in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        design, _ = ag_design(n, q, n - 1)
        for j in range(design.b):
            assert good_block(design, j) is not None, (n, q, j)


def test_good_block_requires_family(fano, pg34):
    with pytest.raises(WrongParameters):
        good_block(fano, 0)
    with pytest.raises(WrongParameters):
        good_block(pg34, 0)
    with pytest.raises(BadIndex):
        good_block(fano, 7)


def test_good_blocks_of_bundled_designs(e1, e2):
    for design in (e1, e2):
        goods = [j for j in range(design.b) if good_block(design, j) is not None]
        assert len(goods) == 4


# ---------------------------------------------------------------------------
# good blocks against the restriction-based construction


def _reference_good_block(design, block_idx):
    """good_block built from the keep_empty derived and residual designs, remapped to the parent."""
    if not 0 <= block_idx < design.b:
        raise BadIndex(f"block index {block_idx} outside 0..{design.b - 1}")
    q, _, mu, params, _ = affine_family(design)
    der = derived(design, block_idx, keep_empty=True)
    groups, order, parallel = {}, [], []
    for i, cut in enumerate(der.blocks):
        j = i + (i >= block_idx)
        if not cut:
            parallel.append(j)
            continue
        if cut not in groups:
            groups[cut] = []
            order.append(cut)
        groups[cut].append(j)
    if any(len(g) != q for g in groups.values()):
        return None
    s = IncidenceStructure(der.v, order, name=f"{design.name or 'design'} cut @{block_idx}")
    if len(set(s.blocks)) != s.b or len(set(s.point_masks())) != s.v:
        return None
    expect_k = params.k // q
    if expect_k == 1:
        if s.b != s.v or any(len(blk) != 1 for blk in s.blocks):
            return None
    else:
        s_params = verify_tdesign(s, 2)
        expect_lam = (expect_k - 1) // (q - 1) if (expect_k - 1) % (q - 1) == 0 else None
        if s_params is None or s_params.k != expect_k or expect_lam is None or s_params.lam != expect_lam:
            return None
    res = residual(design, block_idx, keep_empty=True)
    sub_ids = [i for i, blk in enumerate(res.blocks) if len(blk) == params.k - mu]
    sub = IncidenceStructure(
        res.v, [res.blocks[i] for i in sub_ids],
        name=f"{design.name or 'design'} sub @{block_idx}",
    )
    by_parent = {i + (i >= block_idx): pos for pos, i in enumerate(sub_ids)}
    classes = [tuple(sorted(by_parent[j] for j in groups[cut])) for cut in order]
    try:
        resolution = make_resolution(sub, classes)
    except WrongParameters:
        return None
    return GoodBlock(s=s, resolution=resolution, substructure=sub, parallel=tuple(parallel))


def _structure_fields(d):
    """Every field of a structure; IncidenceStructure equality compares (v, blocks) only."""
    return (d.v, d.blocks, d.name)


def _good_block_fields(gb):
    if gb is None:
        return None
    fields = {f: getattr(gb, f) for f in GoodBlock.__dataclass_fields__}
    fields["s"] = _structure_fields(gb.s)
    fields["substructure"] = _structure_fields(gb.substructure)
    return fields


def test_good_block_matches_restriction_reference(ag34, e1, e2):
    sizes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
    family = [ag_design(n, q, n - 1)[0] for n, q in sizes] + [e1, e2]
    labelings = ((1, None), (2, "shuffled"), (3, None), (4, "labeled"))
    family += [relabel(ag34, random.Random(seed), name) for seed, name in labelings]
    family += [relabel(e1, random.Random(5)), relabel(e2, random.Random(6), "e2 shuffled")]
    blocks = goods = 0
    for design in family:
        for j in range(design.b):
            got = good_block(design, j)
            assert _good_block_fields(got) == _good_block_fields(_reference_good_block(design, j)), (design.name, j)
            blocks += 1
            goods += got is not None
    assert (blocks, goods) == (997, 677)


def test_good_block_errors_match_reference(fano, pg34):
    cases = [(fano, 7), (fano, -1), (fano, 0), (pg34, 0), (pg34, 85), (IncidenceStructure(4, [(0, 1), (2, 3)]), 0)]
    for design, j in cases:
        with pytest.raises(Exception) as want:
            _reference_good_block(design, j)
        with pytest.raises(type(want.value)) as got:
            good_block(design, j)
        assert str(got.value) == str(want.value)


def test_des_round_trip(fano, ag34):
    rng = random.Random(31)
    for design in (fano, ag34):
        text = emit_des(design)
        back = parse_des(text)
        assert back.v == design.v and back.blocks == design.blocks
        assert emit_des(back) == text
    # random structures round-trip too, including empty blocks
    for _ in range(20):
        v = rng.randrange(1, 12)
        blocks = []
        for _ in range(rng.randrange(1, 8)):
            blocks.append(tuple(sorted(rng.sample(range(v), rng.randrange(0, v + 1)))))
        d = IncidenceStructure(v, blocks)
        assert parse_des(emit_des(d)).blocks == d.blocks


def test_json_round_trip(fano):
    text = emit_json(fano)
    back = parse_json(text)
    assert back.v == fano.v and back.blocks == fano.blocks and back.name == fano.name


def test_uniform_k_error():
    d = IncidenceStructure(4, [(0, 1), (0, 1, 2)])
    with pytest.raises(NonUniformBlockSize):
        d.uniform_k()


def test_block_constructor_validation():
    with pytest.raises(BadIndex):
        IncidenceStructure(3, [(0, 3)])
    with pytest.raises(BadIndex):
        IncidenceStructure(3, [(1, 1)])
    # the least out-of-range point is named, and the range check comes before the repeat check
    with pytest.raises(BadIndex, match=r"^point 7 outside 0\.\.4$"):
        IncidenceStructure(5, [(0, 1), (9, 1, 7)])
    with pytest.raises(BadIndex, match=r"^point 7 outside 0\.\.4$"):
        IncidenceStructure(5, [(9, 2, 7, 2)])
    with pytest.raises(BadIndex, match=r"^point -2 outside 0\.\.4$"):
        IncidenceStructure(5, [(3, -1, -2)])
    with pytest.raises(BadIndex, match="^repeated point inside a block$"):
        IncidenceStructure(5, [(4, 0, 4)])
