"""Embeddability ranks, necessary conditions and symmetric completions."""

import itertools
import random

import pytest

from embedrank import designs
from embedrank.codes import code_from_bitrows, code_from_cols, codewords_of_weight, min_weight
from embedrank.designs import (
    IncidenceStructure,
    affine_family,
    good_block,
    is_affine_resolvable,
    make_resolution,
    residual,
    verify_tdesign,
)
from embedrank.embedding import (
    _fill,
    _room,
    _search_context,
    embeddability,
    embedding_search,
    parallel_union_codewords,
    quasi_residual_params,
    sym_embedding_code,
    sym_embedding_search,
    thm1_certify,
    thm5_necessary,
    thm_taf_necessary,
)
from embedrank.errors import (
    BadIndex,
    InfeasibleInstance,
    NotGoodBlock,
    WrongParameters,
)
from embedrank.geometry import ag_design, pg_design
from embedrank.iso import are_isomorphic
from embedrank.linalg import mat_rank


def test_embeddability_fano(fano):
    report = embeddability(fano, 0)
    assert report.rank_full == 4
    assert report.rank_residual == 3
    assert report.embeddable
    # the rank inequality holds at every block
    for j in range(fano.b):
        rep = embeddability(fano, j)
        assert rep.rank_full >= rep.rank_residual + 1


def test_embeddability_validation(fano):
    with pytest.raises(BadIndex):
        embeddability(fano, 7)
    skinny = IncidenceStructure(3, [(0,), (1, 2)])
    with pytest.raises(WrongParameters):
        embeddability(skinny, 0)


def test_thm1_certifies_fano(fano):
    code = code_from_cols(fano.incidence_matrix(2))
    assert min_weight(code) == 3
    report = thm1_certify(fano)
    assert report == [(j, True) for j in range(7)]


def test_thm1_uncertified_when_min_weight_drops(fano):
    # one extra fat block pushes words of weight 1 into the column code,
    # so no block size matches the minimum any more
    aug = IncidenceStructure(7, fano.blocks + ((0, 1, 2, 3),))
    assert min_weight(code_from_cols(aug.incidence_matrix(2))) == 1
    assert thm1_certify(aug) == [(j, False) for j in range(8)]


def test_quasi_residual_params():
    assert quasi_residual_params(64, 16, 5) == (85, 21, 5)
    assert quasi_residual_params(8, 4, 3) == (15, 7, 3)
    assert quasi_residual_params(4, 2, 1) == (7, 3, 1)
    assert quasi_residual_params(7, 3, 1) is None  # r = 3 != k + lam
    assert quasi_residual_params(6, 4, 2) is None  # r not integral
    assert quasi_residual_params(5, 1, 1) is None
    assert quasi_residual_params(5, 2, 0) is None


def test_parallel_union_words_k4(k4_edges):
    res = make_resolution(k4_edges, [(0, 5), (1, 4), (2, 3)])
    code = code_from_bitrows(k4_edges.point_masks(), 6)
    masks = [0b100001, 0b010010, 0b001100]
    words = parallel_union_codewords(code, res, 4)
    assert len(words) == 3
    for w in words:
        assert w.bit_count() == 4
        used = [m for m in masks if w & m]
        assert len(used) == 2 and w == used[0] | used[1]
    assert parallel_union_codewords(code, res, 2) == []
    assert parallel_union_codewords(code, res, 6) == []


def test_parallel_union_validation(k4_edges):
    code = code_from_bitrows(k4_edges.point_masks(), 6)
    from embedrank.designs import Resolution

    with pytest.raises(WrongParameters):
        parallel_union_codewords(code, Resolution(classes=((0, 1), (1, 2))), 4)
    with pytest.raises(WrongParameters):
        parallel_union_codewords(code, Resolution(classes=((0, 9),)), 4)


def test_thm5_on_hyperplane_design(ag34):
    cond = thm5_necessary(ag34, 0)
    assert cond == (120, 130, True)
    assert cond.required == 120 and cond.found == 130 and cond.passes


def test_thm5_words_are_eight_class_unions(ag34, ag34_gb):
    gb = ag34_gb
    code = code_from_bitrows(gb.substructure.point_masks(), gb.substructure.b)
    words = parallel_union_codewords(code, gb.resolution, 32)
    assert len(words) == 130
    class_masks = [
        sum(1 << j for j in cls) for cls in gb.resolution.classes
    ]
    for w in words:
        assert sum(1 for m in class_masks if w & m == m) == 8


def test_thm5_guards(fano, e1):
    planes, _ = ag_design(3, 2, 2)
    with pytest.raises(WrongParameters):
        thm5_necessary(planes, 0)  # q = 2 < 4
    with pytest.raises(WrongParameters):
        thm5_necessary(fano, 0)  # not affine resolvable
    with pytest.raises(NotGoodBlock):
        thm5_necessary(e1, 0)


def test_taf_condition(ag34, e1, e2):
    assert thm_taf_necessary(ag34) == (210, 210, True)
    assert thm_taf_necessary(e1) == (210, 130, False)
    assert thm_taf_necessary(e2) == (210, 130, False)


def test_sym_embedding_code_dimension(ag34):
    code = sym_embedding_code(ag34)
    assert code.length == ag34.b + 1
    assert code.dim == mat_rank(ag34.incidence_matrix(2)) + 1
    # bordered point rows and the all-ones word all belong to the code
    for row in ag34.point_masks():
        assert code.contains(row)
    assert code.contains((1 << (ag34.b + 1)) - 1)
    with pytest.raises(WrongParameters):
        sym_embedding_code(ag34, p=3)


def test_sym_embedding_small_case():
    planes, _ = ag_design(3, 2, 2)
    result = sym_embedding_search(planes)
    assert result.target_params == (15, 7, 3)
    assert result.weight_count == 15
    assert len(result.designs) == 1
    completion = result.designs[0]
    params = verify_tdesign(completion, 2)
    assert params.symmetric and (params.v, params.k, params.lam) == (15, 7, 3)
    assert are_isomorphic(completion, pg_design(3, 2, 2))
    # removing the new point's block gives back a residual with planes' params
    back = residual(completion, completion.b - 1, keep_empty=True)
    assert verify_tdesign(back, 2) is not None


def test_sym_embedding_rejects_non_quasi_residual(fano):
    with pytest.raises(WrongParameters):
        sym_embedding_search(fano)
    with pytest.raises(WrongParameters):
        sym_embedding_search(IncidenceStructure(4, [(0, 1), (1, 2, 3)]))  # not a 2-design


def test_embedding_search_guards(e1):
    planes, _ = ag_design(3, 2, 2)
    with pytest.raises(InfeasibleInstance):
        embedding_search(planes, 0)  # good block, wrong (q, n)
    with pytest.raises(NotGoodBlock):
        embedding_search(e1, 0)


def _fill_oracle(cands, need, lam, room):
    """Every need-subset, in combinations order, meeting pairwise in lam and filling room."""
    out = []
    for combo in itertools.combinations(cands, need):
        if any((a & b).bit_count() != lam for a, b in itertools.combinations(combo, 2)):
            continue
        if all(sum(w >> j & 1 for w in combo) == c for j, c in enumerate(room)):
            out.append(combo)
    return out


def test_fill_matches_brute_force_on_planes():
    planes, _ = ag_design(3, 2, 2)
    vp, kp, lamp = quasi_residual_params(8, 4, 3)
    cands = codewords_of_weight(sym_embedding_code(planes), kp)
    need = vp - planes.v
    room = _room(planes.point_masks(), planes.b + 1, kp)
    assert (len(cands), need) == (15, 7)
    found = _fill(cands, need, lamp, room)
    assert found == _fill_oracle(cands, need, lamp, room)
    assert found


def test_fill_matches_brute_force_on_random_instances():
    rng = random.Random(7)
    solved = 0
    for _ in range(80):
        ncols = rng.randrange(4, 9)
        # rows of mixed weights, so a choice can stay inside the room without filling it
        cands = [
            sum(1 << j for j in rng.sample(range(ncols), rng.randrange(1, ncols)))
            for _ in range(rng.randrange(4, 12))
        ]
        need = rng.randrange(1, 5)
        # room planted from one choice, so that some instances have solutions
        planted = rng.sample(cands, need)
        lam = (planted[0] & planted[-1]).bit_count()
        room = [sum(w >> j & 1 for w in planted) for j in range(ncols)]
        found = _fill(cands, need, lam, room)
        assert found == _fill_oracle(cands, need, lam, room)
        solved += bool(found)
    assert solved >= 10


def _clear_fact_caches():
    for fn in (affine_family, is_affine_resolvable, verify_tdesign):
        fn.cache_clear()


def test_affine_facts_computed_once(monkeypatch):
    ag, _ = ag_design(3, 4, 2)
    _clear_fact_caches()
    pair_counts = []

    def counting(pool, t):
        if len(pool) == ag.v and t == 2:
            pair_counts.append(t)
        return itertools.combinations(pool, t)

    monkeypatch.setattr(designs, "combinations", counting)
    blocks = [good_block(ag, j) for j in range(ag.b)]
    taf = thm_taf_necessary(ag)
    code = sym_embedding_code(ag)
    assert len(pair_counts) == 1
    fam = affine_family(ag)
    assert (fam.q, fam.n, fam.mu) == (4, 3, 4)

    # an equal but fresh instance, with nothing cached, gives the same facts
    fresh, _ = ag_design(3, 4, 2)
    assert fresh is not ag and fresh == ag
    _clear_fact_caches()
    assert affine_family(fresh) == fam
    assert [good_block(fresh, j) for j in range(fresh.b)] == blocks
    assert thm_taf_necessary(fresh) == taf
    fresh_code = sym_embedding_code(fresh)
    assert (fresh_code.length, fresh_code.basis_bits) == (code.length, code.basis_bits)
    assert len(pair_counts) == 2


def test_search_constants_are_derived(ag34, e1_found, e1_block):
    for design, block in ((ag34, 0), (e1_found, e1_block)):
        ctx = _search_context(design, block, None)
        assert (ctx.need, ctx.lam, ctx.r, ctx.per_candidate) == (16, 5, 21, 4)
        assert ctx.ncols == design.b
        assert ctx.room.count(0) == 3 and ctx.room[-1] == ctx.need
