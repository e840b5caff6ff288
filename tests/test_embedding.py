"""Embeddability ranks, necessary conditions and symmetric completions."""

import dataclasses
import itertools
import random
from collections import Counter
from math import comb

import numpy as np
import pytest

from conftest import relabel, relabel_with_order
from embedrank import codes as codes_module
from embedrank import designs, embedding
from embedrank.codes import (
    _limbs,
    _span_table,
    _words,
    code_from_bitrows,
    code_from_cols,
    code_from_rows,
    codewords_of_weight,
    hill_newton_holds,
    min_weight,
    min_weight_design,
    rm_code,
)
from embedrank.designs import (
    IncidenceStructure,
    Resolution,
    affine_family,
    good_block,
    make_resolution,
    residual,
    verify_tdesign,
)
from embedrank.embedding import (
    _SCAN_CHUNK,
    CandidateRecord,
    EmbeddingSearchResult,
    SymEmbedding,
    _assemble,
    _classes,
    _combination_rows,
    _completions,
    _fill,
    _half_sums,
    _hit_counts,
    _parallel_free,
    _popcount,
    _room,
    _scan,
    _scan_table,
    _ScanTable,
    _search_context,
    _SearchContext,
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
    CapExceeded,
    InfeasibleInstance,
    InternalCheckFailed,
    NotGoodBlock,
    WrongParameters,
)
from embedrank.expected import E1_DIGEST, E2_DIGEST, PU_WEIGHT32_BY_ORBIT, THM5_REQUIRED_43
from embedrank.geometry import ag_design, pg_design
from embedrank.iso import are_isomorphic, automorphism_group, canonical_cert, orbits, resolution_orbits
from embedrank.linalg import MatGFp, mat_rank, mat_rref


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
    for j in (7, -1):
        with pytest.raises(BadIndex):
            embeddability(fano, j)
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
    with pytest.raises(WrongParameters):
        parallel_union_codewords(code, Resolution(classes=((-1, 0, 1, 2, 3, 4, 5),)), 4)
    # coordinates 1-4 lie in no class: no word may be called a union of classes
    with pytest.raises(WrongParameters):
        parallel_union_codewords(code, Resolution(classes=((0, 5),)), 4)
    # a partition of fewer or more indices than the code's 6 coordinates
    for m in (4, 8):
        with pytest.raises(WrongParameters):
            parallel_union_codewords(code, Resolution(classes=((*range(m),),)), 4)


def test_parallel_union_trivial_subcode(k4_edges):
    # the all-ones word is not in the K4 cut space, so only 0 is a union of the one class
    code = code_from_bitrows(k4_edges.point_masks(), 6)
    res = Resolution(classes=(tuple(range(6)),))
    assert parallel_union_codewords(code, res, 0) == [0]
    for w in range(1, 7):
        assert parallel_union_codewords(code, res, w) == []
    zero = code_from_bitrows([], 6)
    singletons = Resolution(classes=tuple((j,) for j in range(6)))
    assert parallel_union_codewords(zero, singletons, 0) == [0]
    assert parallel_union_codewords(zero, singletons, 2) == []


def test_parallel_union_walks_only_the_subcode(monkeypatch, ag34):
    # C ∩ V has dimension dim C + dim V - dim(C + V); only its 2^9 words are walked, not 2^16
    walk = codes_module._walk
    walked = []

    def spy(basis, length):
        for words, weights in walk(basis, length):
            walked.append(words.shape[1])
            yield words, weights

    monkeypatch.setattr(codes_module, "_walk", spy)
    code = code_from_bitrows(ag34.point_masks(), ag34.b)
    masks = [sum(1 << j for j in cls) for cls in affine_family(ag34).resolution.classes]
    sub_dim = code.dim + len(masks) - mat_rank(MatGFp.from_bitrows(code.basis_bits + masks, code.length))
    assert (code.dim, sub_dim) == (16, 9)
    assert thm_taf_necessary(ag34) == (210, 210, True)
    assert sum(walked) == 1 << sub_dim


def test_parallel_union_zero_and_out_of_range_do_not_walk(monkeypatch, ag34_gb):
    walk = codes_module._walk
    walked = []

    def spy(basis, length):
        walked.append(length)
        return walk(basis, length)

    monkeypatch.setattr(codes_module, "_walk", spy)
    code = code_from_bitrows(ag34_gb.substructure.point_masks(), ag34_gb.substructure.b)
    assert code.length == 80
    assert parallel_union_codewords(code, ag34_gb.resolution, 0) == [0]
    for w in (81, -1):
        assert parallel_union_codewords(code, ag34_gb.resolution, w) == []
    assert walked == []
    # a weight in 1..length still walks the subcode
    assert len(parallel_union_codewords(code, ag34_gb.resolution, 32)) == PU_WEIGHT32_BY_ORBIT[2]
    assert walked


def test_thm5_on_hyperplane_design(ag34):
    cond = thm5_necessary(ag34, 0)
    assert cond == (THM5_REQUIRED_43, PU_WEIGHT32_BY_ORBIT[2], True)
    assert cond.required == THM5_REQUIRED_43 and cond.found == PU_WEIGHT32_BY_ORBIT[2] and cond.passes


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


def test_parallel_union_conditions_need_binary_q(k4_edges):
    # the counts and the symmetric completion are over GF(2): q must be a power of 2
    ag35, _ = ag_design(3, 5, 2)
    ag33, _ = ag_design(3, 3, 2)
    with pytest.raises(WrongParameters):
        thm5_necessary(ag35, 0)
    with pytest.raises(WrongParameters):
        thm_taf_necessary(ag35)
    with pytest.raises(WrongParameters):
        sym_embedding_search(ag33)
    with pytest.raises(WrongParameters):
        sym_embedding_code(ag33)
    res = make_resolution(k4_edges, [(0, 5), (1, 4), (2, 3)])
    with pytest.raises(WrongParameters):
        parallel_union_codewords(code_from_rows(k4_edges.incidence_matrix(3)), res, 4)


def test_cap_binds_without_a_cap_argument(monkeypatch, ag34):
    monkeypatch.setattr(codes_module, "DEFAULT_CAP", 100)
    rm24 = rm_code(2, 4)  # 2^11 words
    with pytest.raises(CapExceeded):
        thm5_necessary(ag34, 0)
    with pytest.raises(CapExceeded):
        thm_taf_necessary(ag34)
    with pytest.raises(CapExceeded):
        sym_embedding_search(ag34)
    with pytest.raises(CapExceeded):
        hill_newton_holds(rm24, rm24.basis_bits[0])
    with pytest.raises(CapExceeded):
        min_weight_design(rm24)
    with pytest.raises(CapExceeded):
        thm1_certify(ag34)  # column code of 2^16 words


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


def _fill_oracle(cands, old_rows, need, lam, room):
    """Every need-subset, in combinations order, meeting pairwise in lam and filling room.

    The words meeting some old row in another number than lam are dropped first.
    """
    cands = [w for w in cands if all((w & r).bit_count() == lam for r in old_rows)]
    out = []
    for combo in itertools.combinations(cands, need):
        if any((a & b).bit_count() != lam for a, b in itertools.combinations(combo, 2)):
            continue
        if all(sum(w >> j & 1 for w in combo) == c for j, c in enumerate(room)):
            out.append(combo)
    return out


def _old_rows(rng, planted, lam, ncols, misses):
    """Up to two random rows meeting every planted row in lam, then `misses` random rows that do not."""
    fits = {x for x in range(1 << ncols) if all((x & w).bit_count() == lam for w in planted)}
    others = [x for x in range(1 << ncols) if x not in fits]
    return rng.sample(sorted(fits), min(2, len(fits))) + rng.sample(others, misses)


def test_fill_matches_brute_force_on_planes():
    """The planes' points meet the symmetric completion's rows in lambda; one more old row that does not leaves none."""
    planes, _ = ag_design(3, 2, 2)
    vp, kp, lamp = quasi_residual_params(8, 4, 3)
    cands = codewords_of_weight(sym_embedding_code(planes), kp)
    need = vp - planes.v
    room = _room(kp, planes.block_sizes())
    assert (len(cands), need) == (15, 7)
    (planted,) = _fill_oracle(cands, [], need, lamp, room)
    rng = random.Random(3)
    for misses in (0, 1, 0, 1):
        old_rows = planes.point_masks() + _old_rows(rng, planted, lamp, planes.b + 1, misses)
        found = _fill(cands, old_rows, need, lamp, room)
        assert found == _fill_oracle(cands, old_rows, need, lamp, room)
        assert found == ([] if misses else [planted])


def test_fill_matches_brute_force_on_random_instances():
    rng = random.Random(7)
    solved = pruned = 0
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
        old_rows = _old_rows(rng, planted, lam, ncols, rng.randrange(2))
        found = _fill(cands, old_rows, need, lam, room)
        assert found == _fill_oracle(cands, old_rows, need, lam, room)
        solved += bool(found)
        pruned += found != _fill_oracle(cands, [], need, lam, room)
    # the old rows decide some instances, so a fill that ignores them fails
    assert solved >= 10 and pruned >= 10


def _clear_fact_caches():
    affine_family.cache_clear()
    embedding._residual.cache_clear()


@pytest.fixture
def lift_guard(monkeypatch):
    """`lift_guard(sizes)` lets the search take the (q, n) = sizes instances for one test.

    The residuals cached meanwhile are dropped afterwards, so a later test
    outside those sizes meets the guard again.
    """
    yield lambda sizes: monkeypatch.setattr(embedding, "_SEARCH_SIZES", sizes)
    embedding._residual.cache_clear()


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


def test_completion_check_walks_pairs_once(monkeypatch, lift_guard):
    """Each completion the search checks costs one walk of its point pairs."""
    lift_guard((2, 3))
    planes, _ = ag_design(3, 2, 2)
    _clear_fact_caches()
    walks = []

    def counting(pool, t):
        if len(pool) == planes.v and t == 2:
            walks.append(t)
        return itertools.combinations(pool, t)

    monkeypatch.setattr(designs, "combinations", counting)
    assembled = _spy(monkeypatch, "_assemble")
    result = embedding_search(planes, 0)
    assert result.designs and len(assembled) >= len(result.designs)
    # the parent's facts once, then one walk per assembled completion
    assert len(walks) == 1 + len(assembled)


def test_failed_completion_check_raises(monkeypatch, lift_guard):
    """A completion failing its search's parameter check raises in both searches."""
    lift_guard((2, 3))
    planes, _ = ag_design(3, 2, 2)
    monkeypatch.setattr(embedding, "verify_tdesign", lambda design, t: None)
    assembled = _spy(monkeypatch, "_assemble")
    with pytest.raises(InternalCheckFailed, match=r"^completion \d+ does not have"):
        embedding_search(planes, 0)
    with pytest.raises(InternalCheckFailed, match="symmetric completion does not have"):
        sym_embedding_search(planes)
    assert len(assembled) == 2


def test_search_constants_are_derived(ag34, e1_found, e1_block):
    for design, block in ((ag34, 0), (e1_found, e1_block)):
        ctx = _search_context(design, block, None)
        assert (ctx.need, ctx.lam, ctx.r, ctx.per_candidate) == (16, 5, 21, 4)
        assert ctx.ncols == design.b
        assert ctx.room.count(0) == 3 and ctx.room[-1] == ctx.need


def _bit_count_room(rows, ncols, k):
    """k minus each column's sum over the point rows."""
    return [k - sum(row >> j & 1 for row in rows) for j in range(ncols)]


def test_search_rows_are_the_residual_rows(ag34, e1, e2):
    """The search's rows are the keep_empty residual's: substructure blocks, parallel blocks, a zero column."""
    cases = [(ag34, 0), (ag34, 17), (relabel(ag34, random.Random(13)), 5)]
    cases += [(d, j) for d in (e1, e2) for j in range(d.b) if good_block(d, j) is not None]
    assert len(cases) == 11
    for design, block in cases:
        parallel = good_block(design, block).parallel
        order = [j for j in range(design.b) if j != block and j not in parallel] + list(parallel)
        res_masks = residual(design, block, keep_empty=True).point_masks()
        want = [sum(1 << c for c, j in enumerate(order) if m >> (j - (j > block)) & 1) for m in res_masks]
        assert _search_context(design, block, None).rows == tuple(want), (design.name, block)


def test_room_is_k_minus_column_sums(monkeypatch, ag34, e1_found, e1_block, e1, e2):
    for design, block in ((ag34, 0), (ag34, 5), (ag34, 40), (ag34, 83), (e1_found, e1_block)):
        ctx = _search_context(design, block, None)
        assert ctx.room == tuple(_bit_count_room(ctx.rows, ctx.ncols, ctx.need))
    fills = _spy(monkeypatch, "_fill")
    for design in (ag34, e1, e2):
        kp = sym_embedding_search(design).target_params[1]
        assert fills[-1][4] == _bit_count_room(design.point_masks(), design.b + 1, kp)
    assert len(fills) == 3


# ---------------------------------------------------------------------------
# the scan: class-count table against the per-candidate XOR over the whole span


def _reference_scan(args):
    """The scan before the class-count table: XOR each candidate into every span word."""
    (combos, fixed, class_masks, lo, hi, rows, room, r, lam, need) = args
    last_bit = 1 << (len(room) - 1)
    par_mask = sum(1 << j for j, c in enumerate(room) if c == 0)
    found = []
    for idx, combo in enumerate(combos):
        y = last_bit
        for c in (fixed, *combo):
            y |= class_masks[c]
        w_lo = lo ^ np.uint64(y & 0xFFFFFFFFFFFFFFFF)
        w_hi = hi ^ np.uint64(y >> 64)
        weights = np.bitwise_count(w_lo).astype(np.uint16) + np.bitwise_count(w_hi).astype(np.uint16)
        hits = np.nonzero(weights == r)[0]
        cands = []
        for h in hits:
            w = int(w_lo[h]) | (int(w_hi[h]) << 64)
            if w & par_mask:
                continue
            if all((w & row).bit_count() == lam for row in rows):
                cands.append(w)
        if len(cands) < need:
            continue
        # the words already meet every old row in lambda
        solutions = _fill(cands, [], need, lam, room)
        if solutions:
            found.append((idx, (fixed, *combo), solutions))
    return found


def _combos(ctx):
    rest = [c for c in range(len(ctx.class_masks)) if c != ctx.fixed]
    return list(itertools.combinations(rest, ctx.per_candidate))


def _reference_args(ctx):
    """`_reference_scan`'s arguments for every candidate; one limb is padded to two."""
    span = _span_table(_limbs(ctx.basis, ctx.ncols))
    lo, hi = span if len(span) == 2 else (span[0], np.zeros_like(span[0]))
    return (
        _combos(ctx), ctx.fixed, ctx.class_masks, lo, hi,
        ctx.rows, ctx.room, ctx.r, ctx.lam, ctx.need,
    )


def _scan_all(ctx):
    return _scan(ctx, _scan_table(ctx))[1]


def _unordered(found):
    """Scan results with each candidate's solutions as a sorted list of sorted tuples.

    The scan table's word order is not part of the output, and `_fill`
    lists its choices in the order of the words it is given.
    """
    return [(idx, classes, sorted(tuple(sorted(sol)) for sol in sols)) for idx, classes, sols in found]


def _assert_scan_matches(design, block, resolution=None):
    ctx = _search_context(design, block, resolution)
    found = _scan_all(ctx)
    assert _unordered(found) == _unordered(_reference_scan(_reference_args(ctx)))
    return found


def _non_good_orbits(gb, group, res_list):
    """The Aut(D'')-orbits of resolutions that miss the good block's resolution, as lists."""
    good = gb.resolution.as_sets()
    orbs = resolution_orbits(group, res_list)
    return [[res_list[i] for i in orb] for orb in orbs if all(res_list[i].as_sets() != good for i in orb)]


def _non_good_resolutions(gb, group, res_list):
    """One resolution from each Aut(D'')-orbit that misses the good block's resolution."""
    return [orb[0] for orb in _non_good_orbits(gb, group, res_list)]


def test_scan_matches_reference_loop(ag34, ag34_gb, dpp_group, dpp_resolutions):
    found = _assert_scan_matches(ag34, 0)
    assert len(found) == 16
    others = _non_good_resolutions(ag34_gb, dpp_group, dpp_resolutions)
    assert len(others) == 2
    for res in others:
        assert _assert_scan_matches(ag34, 0, res) == []
    # a relabeled AG_2(3,4) at a seeded block; every block of it is good
    rng = random.Random(11)
    relabeled = relabel(ag34, rng)
    assert len(_assert_scan_matches(relabeled, rng.randrange(relabeled.b))) == 16


def test_scan_matches_reference_loop_on_found_e1(e1_found, e1_block):
    assert len(_assert_scan_matches(e1_found, e1_block)) == 16


@pytest.mark.parametrize(
    "name, block",
    [("ag34", 0), ("e1_found", "e1_block"), ("e2_found", "e2_block"), ("e1", 83)],
    ids=["ag34-0", "e1_found", "e2_found", "e1-83"],
)
def test_parent_is_among_its_completions(request, name, block):
    """The parent's own new rows are a viable candidate's solution, and assemble to the parent renumbered.

    An end-to-end check, with no labeling, that the class-count identity, the
    lambda filter and `_fill` drop nothing.
    """
    design = request.getfixturevalue(name)
    if isinstance(block, str):
        block = request.getfixturevalue(block)
    gb = good_block(design, block)
    ctx = _search_context(design, block, None)
    _, found = _scan(ctx, _scan_table(ctx))
    sub_ids = [j for j in range(design.b) if j != block and j not in gb.parallel]
    removed = design.blocks[block]
    # A removed point's row: its substructure columns, no parallel column, the last column.
    own = {
        sum(1 << c for c, j in enumerate(sub_ids) if x in design.blocks[j]) | 1 << (ctx.ncols - 1): x
        for x in removed
    }
    assert len(own) == len(removed)
    sols = [sol for _, _, solutions in found for sol in solutions if set(sol) == set(own)]
    assert sols
    residual_points = [x for x in range(design.v) if x not in removed]
    for sol in sols:
        index = {x: i for i, x in enumerate(residual_points + [own[row] for row in sol])}
        want = [tuple(sorted(index[x] for x in design.blocks[j])) for j in sub_ids + [*gb.parallel, block]]
        got = _assemble(ctx.rows, sol, ctx.ncols, "parent")
        assert (got.v, got.blocks) == (design.v, tuple(want))


def _assert_assembled_by_columns(assemble, calls):
    """Each recorded _assemble call gives the blocks of the column-by-column expression."""
    assert calls
    for old_rows, new_rows, ncols, tag in calls:
        rows = list(old_rows) + list(new_rows)
        want = [tuple(i for i, r in enumerate(rows) if r >> j & 1) for j in range(ncols)]
        got = assemble(old_rows, new_rows, ncols, tag)
        assert (got.v, got.blocks, got.name) == (len(rows), tuple(want), tag)


def test_search_classes_invariant_under_relabeling(ag34, monkeypatch):
    # the full search on a relabeled AG_2(3,4) at a seeded block finds the
    # same two classes, with the same multiplicities, as at block 0
    rng = random.Random(1)
    relabeled = relabel(ag34, rng)
    assemble = embedding._assemble
    assembled = _spy(monkeypatch, "_assemble")
    result = embedding_search(relabeled, rng.randrange(relabeled.b))
    classes = {digest: n for digest, _, n in result.iso_classes}
    assert classes == {canonical_cert(ag34).digest: 4, E1_DIGEST: 12}
    _assert_assembled_by_columns(assemble, assembled)


def test_sym_search_invariant_under_relabeling(ag34, pg34, e1, e2, monkeypatch):
    """A seeded relabeling of ag, e1 or e2 keeps the weight-k' count and the completions' digests."""
    assemble = embedding._assemble
    assembled = _spy(monkeypatch, "_assemble")
    for seed, design in enumerate((ag34, e1, e2), 1):
        base = sym_embedding_search(design)
        moved = sym_embedding_search(relabel(design, random.Random(seed)))
        digests = {canonical_cert(d).digest for d in base.designs}
        assert moved.weight_count == base.weight_count
        assert {canonical_cert(d).digest for d in moved.designs} == digests
        assert digests == ({canonical_cert(pg34).digest} if design is ag34 else set())
    _assert_assembled_by_columns(assemble, assembled)


def _label_every_solution(old_rows, solutions, ncols, tag, check):
    """Digest -> completion, one per isomorphism class: every solution assembled, checked and labeled."""
    out = {}
    for sol in solutions:
        d = _assemble(old_rows, sol, ncols, tag)
        assert check(d)
        out.setdefault(canonical_cert(d).digest, d)
    return out


def _reference_search(design, block):
    """embedding_search with a canonical label for every solution of every viable candidate."""
    ctx = _search_context(design, block, None)
    examined, found = _scan(ctx, _scan_table(ctx))

    def check(d):
        params = verify_tdesign(d, 2)
        return params == ctx.params and designs._affine_resolution(d, params) is not None

    completions, records, reps, tally = [], [], {}, Counter()
    for idx, class_indices, solutions in found:
        cand = _label_every_solution(ctx.rows, solutions, ctx.ncols, f"completion {idx}", check)
        completions += cand.values()
        for digest, d in cand.items():
            reps.setdefault(digest, d)
            tally[digest] += 1
        records.append(CandidateRecord(idx, class_indices, len(ctx.basis) + 1, len(cand), tuple(cand)))
    iso_classes = tuple((digest, reps[digest], n) for digest, n in tally.items())
    return EmbeddingSearchResult(examined, len(records), tuple(completions), iso_classes, tuple(records))


def _reference_sym(design):
    """sym_embedding_search with a canonical label for every solution."""
    params = affine_family(design).params
    target = quasi_residual_params(params.v, params.k, params.lam)
    vp, kp, lamp = target
    words = codewords_of_weight(sym_embedding_code(design), kp)
    cands = [w for w in words if w >> design.b & 1]
    old_rows = design.point_masks()
    solutions = _fill(cands, old_rows, vp - design.v, lamp, _room(kp, design.block_sizes()))

    def check(d):
        sp = verify_tdesign(d, 2)
        return sp is not None and (sp.v, sp.k, sp.lam) == target and sp.symmetric

    out = _label_every_solution(old_rows, solutions, design.b + 1, "symmetric completion", check)
    return SymEmbedding(tuple(out.values()), len(words), target)


def _digest_multiset(result):
    return Counter(digest for record in result.records for digest in record.cert_digests)


@pytest.mark.parametrize(
    "name, block, classes",
    [
        ("ag34", 0, {"ag": 4, "e1": 12}),
        ("e1", 20, {"e1": 12, "e2": 4}),
        ("e1", 83, {"ag": 4, "e1": 12}),
        ("e2", 0, {"e1": 12, "e2": 4}),
    ],
    ids=["ag34-0", "e1-20", "e1-83", "e2-0"],
)
def test_search_at_each_good_block_orbit(request, ag34, monkeypatch, name, block, classes):
    """One block of each good-block orbit of ag, e1 and e2: its classes, 4 labelings, and two relabelings' digests.

    Each search finds 16 completions with 4 distinct sets of new rows, and
    labels each set once.  The same search on each of two seeded
    relabelings of the design finds the same multiset of digests, with as
    many labelings.
    """
    design = request.getfixturevalue(name)
    digests = {"ag": canonical_cert(ag34).digest, "e1": E1_DIGEST, "e2": E2_DIGEST}
    labeled = _spy(monkeypatch, "canonical_cert")
    result = embedding_search(design, block)
    assert len(labeled) == 4
    assert len(result.designs) == 16
    assert {digest: n for digest, _, n in result.iso_classes} == {
        digests[k]: n for k, n in classes.items()
    }
    for seed in (5, 6):
        labeled.clear()
        moved, order = relabel_with_order(design, random.Random(seed))
        assert _digest_multiset(embedding_search(moved, order.index(block))) == _digest_multiset(result)
        assert len(labeled) == 4


@pytest.mark.parametrize("name, block", [("ag34", 0), ("e1", 83)], ids=["ag34-0", "e1-83"])
def test_search_equals_the_label_every_solution_reference(request, name, block):
    """Labeling each distinct row set once keeps records, designs, classes and representatives.

    Callers read a class's digest from its `iso_classes` entry: the entries'
    digests are the records' digests in order of first appearance, and each
    is its representative's canonical digest.
    """
    design = request.getfixturevalue(name)
    result = embedding_search(design, block)
    reference = _reference_search(design, block)
    assert result == reference
    assert [d.name for d in result.designs] == [d.name for d in reference.designs]
    assert [rep.name for _, rep, _ in result.iso_classes] == [rep.name for _, rep, _ in reference.iso_classes]
    first_seen = dict.fromkeys(digest for record in result.records for digest in record.cert_digests)
    assert [digest for digest, _, _ in result.iso_classes] == list(first_seen)
    assert all(canonical_cert(rep).digest == digest for digest, rep, _ in result.iso_classes)


@pytest.mark.parametrize("name, block", [("ag34", 0), ("e1", 83)], ids=["ag34-0", "e1-83"])
def test_search_does_not_depend_on_the_table_order(request, monkeypatch, name, block):
    """The scan table with its columns reversed gives the same candidates, records and classes.

    Only the representatives may differ; each is still of its class.
    """
    design = request.getfixturevalue(name)
    result = embedding_search(design, block)
    table = embedding._scan_table
    monkeypatch.setattr(embedding, "_scan_table", lambda ctx: _ScanTable(*(a[..., ::-1] for a in table(ctx))))
    reversed_ = embedding_search(design, block)
    assert reversed_.candidates_examined == result.candidates_examined
    assert reversed_.records == result.records
    assert [(digest, n) for digest, _, n in reversed_.iso_classes] == [(digest, n) for digest, _, n in result.iso_classes]
    assert all(canonical_cert(rep).digest == digest for digest, rep, _ in reversed_.iso_classes)


def test_sym_search_labels_nothing_and_equals_the_reference(ag34, e1, e2, monkeypatch):
    """ag has one symmetric completion and e1, e2 none: nothing to tell apart, so no labeling."""
    labeled = _spy(monkeypatch, "canonical_cert")
    for design in (ag34, e1, e2):
        result = sym_embedding_search(design)
        assert result == _reference_sym(design)
        assert len(result.designs) == (design is ag34)
    assert labeled == []


def test_classes_keep_the_first_completion_of_each_class(ag34, monkeypatch):
    """Two row sets with isomorphic completions give one design, the first assembled, each set labeled once.

    The symmetric completion takes this path when it has two or more
    completions; no known input has, so ag34's block 0 stands in.
    """
    ctx = _search_context(ag34, 0, None)
    _, found = _scan(ctx, _scan_table(ctx))
    sols = {frozenset(sol): sol for _, _, solutions in found for sol in solutions}
    # 4 row sets: the parent's own, and 3 that complete to e1
    assert len(sols) == 4
    first, second = [
        sol for sol in sols.values() if canonical_cert(_assemble(ctx.rows, sol, ctx.ncols, "")).digest == E1_DIGEST
    ][:2]

    def check(d):
        return verify_tdesign(d, 2) == ctx.params

    # the first row set again, in another order, is the same row set
    completions = _completions(ctx.rows, [first, second, first[::-1]], ctx.ncols, "t", check)
    assert list(completions) == [frozenset(first), frozenset(second)]
    assert completions[frozenset(first)] == _assemble(ctx.rows, first, ctx.ncols, "t")
    labeled = _spy(monkeypatch, "canonical_cert")
    labels = {}
    assert _classes(completions, labels) == {E1_DIGEST: completions[frozenset(first)]}
    assert len(labeled) == 2 and labels == dict.fromkeys(completions, E1_DIGEST)
    # known row sets are not labeled again
    assert _classes(completions, labels) == {E1_DIGEST: completions[frozenset(first)]}
    assert len(labeled) == 2


def _reference_hits(ctx):
    """(candidate, word) for every weight-r word s ^ y meeting no parallel column, from the full span."""
    combos, fixed, class_masks, lo, hi, _, room, r, _, _ = _reference_args(ctx)
    par_mask = sum(1 << j for j, c in enumerate(room) if c == 0)
    out = []
    for i, combo in enumerate(combos):
        y = 1 << (ctx.ncols - 1) | sum(class_masks[c] for c in (fixed, *combo))
        w_lo = lo ^ np.uint64(y & 0xFFFFFFFFFFFFFFFF)
        w_hi = hi ^ np.uint64(y >> 64)
        for h in np.flatnonzero(np.bitwise_count(w_lo) + np.bitwise_count(w_hi) == r):
            w = int(w_lo[h]) | int(w_hi[h]) << 64
            if not w & par_mask:
                out.append((i, w))
    return out


def test_class_count_hits_are_the_weight_r_words(ag34, ag34_gb, dpp_group, dpp_resolutions, lift_guard):
    """The table's hits are exactly the reference's weight-r words.

    The lambda test downstream discards words of the wrong weight, so only this
    comparison sees a hit the class-count identity should not give.
    """
    planes, _ = ag_design(3, 2, 2)
    res = _non_good_resolutions(ag34_gb, dpp_group, dpp_resolutions)[0]
    cases = ((ag34, 0, None, (4, 3)), (ag34, 0, res, (4, 3)), (planes, 3, None, (2, 3)))
    for design, block, resolution, sizes in cases:
        lift_guard(sizes)
        ctx = _search_context(design, block, resolution)
        expected = _reference_hits(ctx)
        assert expected
        assert sorted(_table_hits(ctx)) == sorted(expected)


def _candidate_rows(ctx):
    """Every candidate's non-fixed classes, one row each, in rank order."""
    return np.array(_combos(ctx), dtype=np.int8).reshape(-1, ctx.per_candidate)


def _halves(ctx):
    """`_combination_rows` over the context's non-fixed classes, as `_scan` builds it."""
    return _combination_rows([c for c in range(len(ctx.class_masks)) if c != ctx.fixed], ctx.per_candidate)


def _candidate_sums(ctx, table):
    """Every candidate's non-fixed classes, hit count and uint8 sums, from the scan's helpers on one window of all ranks."""
    total, left, right, rows = _halves(ctx)
    li, ri = rows(0, total)
    sums = np.empty((total, table.words.shape[1]), dtype=np.uint8)
    counts = _hit_counts(*_half_sums(table, left, right), li, ri, sums)
    return np.concatenate((left[li], right[ri]), axis=1), counts, sums


def _table_hits(ctx):
    """(candidate, word) for every hit of every candidate, read off the uint8 sums as s ^ y, without the count gate."""
    table = _scan_table(ctx)
    idx, _, sums = _candidate_sums(ctx, table)
    out = []
    for i, row in enumerate(idx.tolist()):
        y = 1 << (ctx.ncols - 1) | sum(ctx.class_masks[c] for c in (ctx.fixed, *row))
        out += [(i, s ^ y) for s in _words(table.words[:, sums[i] == 0])]
    return out


def _random_context(rng, nclasses, size, npar, need=2):
    """Random rows over shuffled class columns, then `npar` parallel columns and the removed block's.

    Every column but the parallel ones has room 2, which `need` rows of
    weight r never fill: the scan finds nothing here, and `_planted_context`
    gives the contexts whose scan finds completions.
    """
    width = nclasses * size
    ncols = width + npar + 1
    cols = list(range(width))
    rng.shuffle(cols)
    class_masks = [sum(1 << j for j in cols[c * size : (c + 1) * size]) for c in range(nclasses)]
    rows = [rng.getrandbits(width + npar) for _ in range(rng.randrange(8, 13))]
    rref, _ = mat_rref(MatGFp.from_bitrows(rows, ncols))
    per_candidate = rng.randrange(1, nclasses - 1)
    room = [2] * width + [0] * npar + [2]
    return _SearchContext(
        params=None, substructure=None, ncols=ncols, rows=rows, basis=rref.bits,
        free=_parallel_free(rref.bits, room, ncols), class_masks=class_masks, fixed=rng.randrange(nclasses),
        least_block=None, room=room,
        r=1 + (per_candidate + 1) * size, lam=rng.randrange(4), need=need, per_candidate=per_candidate,
    )


def _rebased(ctx, basis, **fields):
    """`ctx` with another basis and its parallel-free basis to match, and `fields` replaced."""
    return ctx._replace(basis=basis, free=_parallel_free(basis, ctx.room, ctx.ncols), **fields)


def _wide_context(rng, per_candidate):
    """A random context of 128 columns, the most the search takes, with one row on every class column.

    Nine classes of 14, one parallel column, and the removed block's column
    at bit 63 of the second limb.  The full row is a span word of weight 126
    that the table keeps for per_candidate >= 4, so a candidate's count sum
    on it reaches 14 * per_candidate.
    """
    ctx = _random_context(rng, 9, 14, 1)
    rows = [(1 << 126) - 1, *ctx.rows]
    rref, _ = mat_rref(MatGFp.from_bitrows(rows, ctx.ncols))
    r = 1 + (per_candidate + 1) * 14
    return _rebased(ctx, rref.bits, rows=rows, per_candidate=per_candidate, r=r)


def test_class_count_hits_on_random_contexts():
    """Random rows give span words of odd weight and unbalanced class counts.

    On the designs in these tests every span word meeting no parallel column
    has even weight, so only random rows show a hit the parity filter must
    drop.
    """
    rng = random.Random(5)
    total = 0
    for nclasses, size, npar, nlimbs in [(6, 3, 2, 1), (10, 7, 3, 2)] * 8:
        ctx = _random_context(rng, nclasses, size, npar)
        assert len(_limbs(ctx.basis, ctx.ncols)) == nlimbs
        expected = _reference_hits(ctx)
        assert sorted(_table_hits(ctx)) == sorted(expected)
        assert _unordered(_scan_all(ctx)) == _unordered(_reference_scan(_reference_args(ctx)))
        total += len(expected)
    for per_candidate in (4, 7) * 2:
        ctx = _wide_context(rng, per_candidate)
        assert ctx.ncols == 128 and len(_limbs(ctx.basis, ctx.ncols)) == 2
        expected = _reference_hits(ctx)
        assert sorted(_table_hits(ctx)) == sorted(expected)
        assert _unordered(_scan_all(ctx)) == _unordered(_reference_scan(_reference_args(ctx)))
        total += len(expected)
    assert total > 100


def _choosing(ctx, per_candidate):
    """A random context whose candidates take `per_candidate` non-fixed classes, its r to match."""
    size = ctx.class_masks[0].bit_count()
    return ctx._replace(per_candidate=per_candidate, r=1 + (per_candidate + 1) * size)


def _assert_hit_counts(ctx, table):
    """`_hit_counts` on every candidate, against the exact count sums; returns its counts and their largest sum.

    The uint8 sums must be the count sums minus the target, modulo 256, and
    the counts the number of count sums equal to the target.  Each half
    table's sums are its rows' count sums, the left ones less the target.
    """
    _, left, right, _ = _halves(ctx)
    low, high = _half_sums(table, left, right)
    assert (low.dtype, high.dtype) == (np.uint8, np.uint8)
    assert np.array_equal(low, (table.counts[left].sum(axis=1, dtype=np.int16) - table.target) % 256)
    assert np.array_equal(high, table.counts[right].sum(axis=1, dtype=np.int16) % 256)
    idx, counts, sums = _candidate_sums(ctx, table)
    assert np.array_equal(idx, _candidate_rows(ctx))
    exact = table.counts[idx].sum(axis=1, dtype=np.int16)
    assert (sums.dtype, sums.shape) == (np.uint8, (len(idx), table.words.shape[1]))
    assert np.array_equal(sums, (exact - table.target) % 256)
    assert np.array_equal(counts, np.count_nonzero(exact == table.target, axis=1))
    return counts, int(exact.max(initial=0))


def test_hit_counts_match_the_hit_matrix(ag34, dpp_resolutions):
    """The uint8 sums are the exact count sums minus the target, modulo 256; the counts are their zeros.

    Covers every resolution of AG_2(3,4)'s block-0 substructure, the good one
    among them, and the random, planted and wide (128-column) contexts.  The
    frozen instance's halves are one table of pairs; random contexts taking
    1, 2 and 3 classes add an empty left half and halves of two sizes, and
    the wide context at 7 halves of 3 and 4.  A table with no word has no
    sums, and every count is 0.  Which sums are zero is checked against the
    reference by the hit tests, which read the hits off the same sums.
    """
    contexts = [_search_context(ag34, 0, res) for res in dpp_resolutions]
    rng = random.Random(29)
    contexts += [_random_context(rng, nclasses, size, npar) for nclasses, size, npar in [(6, 3, 2), (10, 7, 3)] * 4]
    contexts += [_planted_context(rng, size, need, extra)[0] for need in (1, 4) for size, extra in [(3, 0), (5, 50)]]
    contexts += [_wide_context(rng, per_candidate) for per_candidate in (4, 7) * 2]
    contexts += [_choosing(_random_context(rng, 10, 7, 3), per_candidate) for per_candidate in (1, 2, 3)]
    assert {1, 2, 3, 4, 7} <= {ctx.per_candidate for ctx in contexts}
    gated, widest = 0, 0
    for ctx in contexts:
        counts, top = _assert_hit_counts(ctx, _scan_table(ctx))
        gated += np.count_nonzero(counts >= ctx.need)
        widest = max(widest, top)
    # counts at the gate are compared too: 16 in each resolution of the good orbit, and planted ones
    assert len(dpp_resolutions) == 32 and gated > 32
    # the wide contexts' full row: seven classes of 14
    assert widest == 98
    table = _scan_table(ctx)
    empty = table._replace(words=table.words[:, :0], counts=table.counts[:, :0], target=table.target[:0])
    assert not _assert_hit_counts(ctx, empty)[0].any()


def _dot(a, x):
    return (a & x).bit_count() & 1


def _planted_context(rng, size, need, extra):
    """A context whose completions include `need` planted rows; returns it and the rows.

    The columns are the points of AG(5, 2), the removed block's column being
    the origin, then `extra` columns outside the geometry.  The planted rows
    are `need` hyperplanes through the origin with independent normals, so
    they meet pairwise in lambda = 8 and weigh r = 16; the room is their
    column sums.  The old rows are hyperplanes missing the origin, which meet
    every planted row in lambda too, and span the XOR of the first planted
    row with each of the others.  The candidate is that first row: its points
    off the origin fill whole classes of `size`.  The other classes take as
    many of the other points the planted rows cover as fill whole classes, so
    no class column has room 0.  The remaining points and the extra columns
    follow the classes; those no planted row covers have room 0, as parallel
    columns do.  A few random rows join the span, not the old rows, so the
    table still meets odd weights.
    """
    points = range(1, 32)
    while True:
        normals = rng.sample(points, need)
        if len(mat_rref(MatGFp.from_bitrows(normals, 5))[1]) == need:
            break
    covered = [x for x in points if any(not _dot(a, x) for a in normals)]
    first = [x for x in covered if not _dot(normals[0], x)]
    rest = [x for x in covered if _dot(normals[0], x)]
    rng.shuffle(rest)
    nclasses = len(covered) // size
    width = nclasses * size
    class_points = first + rest[: width - len(first)]
    par_points = rest[width - len(first) :] + [x for x in points if x not in covered]
    npar = len(par_points) + extra
    ncols = width + npar + 1
    cols = list(range(width))
    rng.shuffle(cols)
    col = {0: ncols - 1, **dict(zip(class_points, cols)), **dict(zip(par_points, range(width, ncols)))}

    def hyperplane(a, side):
        return sum(1 << col[x] for x in range(32) if _dot(a, x) == side)

    planted = [hyperplane(a, 0) for a in normals]
    old = {a ^ normals[0] for a in normals[1:]}
    old |= set(rng.sample([a for a in points if a not in normals], rng.randrange(2, 6)))
    rows = [hyperplane(a, 1) for a in old]
    rng.shuffle(rows)
    spare = [rng.getrandbits(width + npar) for _ in range(rng.randrange(3))]
    rref, _ = mat_rref(MatGFp.from_bitrows(rows + spare, ncols))
    class_masks = [sum(1 << j for j in cols[c * size : (c + 1) * size]) for c in range(nclasses)]
    room = [sum(w >> j & 1 for w in planted) for j in range(ncols)]
    ctx = _SearchContext(
        params=None, substructure=None, ncols=ncols, rows=rows, basis=rref.bits,
        free=_parallel_free(rref.bits, room, ncols), class_masks=class_masks,
        fixed=rng.choice([c for c, m in enumerate(class_masks) if m & planted[0]]), least_block=None,
        room=room, r=16, lam=8, need=need, per_candidate=len(first) // size - 1,
    )
    return ctx, planted


def test_scan_finds_planted_completions():
    """Every seeded planted context finds its planted rows, as the reference scan does."""
    rng = random.Random(17)
    found_planted = 0
    cases = [(need, shape) for need in (1, 2, 3, 4) for shape in [(3, 0, 1), (5, 2, 1), (3, 40, 2), (5, 50, 2)] * 3]
    for need, (size, extra, nlimbs) in cases:
        ctx, planted = _planted_context(rng, size, need, extra)
        assert len(_limbs(ctx.basis, ctx.ncols)) == nlimbs
        assert sorted(_table_hits(ctx)) == sorted(_reference_hits(ctx))
        found = _scan_all(ctx)
        assert _unordered(found) == _unordered(_reference_scan(_reference_args(ctx)))
        found_planted += any(set(sol) == set(planted) for _, _, sols in found for sol in sols)
    assert found_planted == len(cases) == 48


def _spy(monkeypatch, name):
    """Record the arguments of every call to embedding.<name>, then make the call."""
    calls = []
    fn = getattr(embedding, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(embedding, name, spy)
    return calls


def _gated_fills(ctx, hits, gated):
    """The `_fill` calls the scan should make: each gated candidate's reference hits, sorted, with the context's old rows."""
    return [(sorted(w for j, w in hits if j == i), ctx.rows, ctx.need, ctx.lam, ctx.room) for i in gated]


def _sorted_fills(calls):
    """`_fill` calls recorded by `_spy`, each one's words sorted."""
    return [(sorted(words), *rest) for words, *rest in calls]


def test_count_gate_is_exact_at_its_boundary(monkeypatch):
    """The scan calls `_fill` once per candidate with at least `need` weight-r words, on exactly those words.

    The lambda test only removes words, so no candidate below the gate can be
    viable; one at the gate must still be expanded.
    """
    rng = random.Random(13)
    for need in (1, 2, 3, 4):
        at_gate = below_gate = 0
        for nclasses, size, npar in [(6, 3, 2), (10, 7, 3)] * 8:
            ctx = _random_context(rng, nclasses, size, npar, need)
            hits = _reference_hits(ctx)
            counts = [0] * len(_combos(ctx))
            for i, _ in hits:
                counts[i] += 1
            with monkeypatch.context() as m:
                filled = _spy(m, "_fill")
                found = _scan_all(ctx)
            assert _unordered(found) == _unordered(_reference_scan(_reference_args(ctx)))
            assert _sorted_fills(filled) == _gated_fills(ctx, hits, [i for i, c in enumerate(counts) if c >= need])
            at_gate += counts.count(need)
            below_gate += counts.count(need - 1)
        assert at_gate
        # the zero span word leaves y itself a hit, so no candidate has none
        assert below_gate if need > 1 else below_gate == 0


def test_count_gate_skips_non_good_resolutions(ag34, ag34_gb, dpp_group, dpp_resolutions, monkeypatch):
    """No candidate of a non-good resolution has `need` hits: no hit is built and `_fill` never runs."""
    others = [res for orb in _non_good_orbits(ag34_gb, dpp_group, dpp_resolutions) for res in orb]
    assert len(others) == 30
    for res in others:
        ctx = _search_context(ag34, 0, res)
        table = _scan_table(ctx)
        with monkeypatch.context() as m:
            built = _spy(m, "_words")
            filled = _spy(m, "_fill")
            assert _scan(ctx, table) == (3876, [])
        assert (built, filled) == ([], [])
    # on the good resolution, `_fill` runs on the hits of exactly the 16 viable candidates
    ctx = _search_context(ag34, 0, None)
    with monkeypatch.context() as m:
        filled = _spy(m, "_fill")
        _, found = _scan(ctx, _scan_table(ctx))
    assert len(found) == 16
    assert _sorted_fills(filled) == _gated_fills(ctx, _reference_hits(ctx), [i for i, _, _ in found])


def _skip_one(m):
    """m class indices with a gap, as the scan's non-fixed classes have one at the fixed class."""
    return [c for c in range(m + 1) if c != m // 2]


def _assert_window(halves, first, want):
    """The subsets of ranks first .. first + len(want) - 1, each its left then its right half row, are `want`."""
    _, left, right, rows = halves
    li, ri = rows(first, len(want))
    got = np.concatenate((left[li], right[ri]), axis=1)
    assert (got.dtype, got.shape) == (np.int8, (len(want), len(want[0])))
    assert got.tolist() == [list(row) for row in want]


@pytest.mark.parametrize("m, k", [(19, 4), (10, 3), (8, 1), (7, 0), (6, 6), (4, 5), (12, 12)])
def test_combination_rows_are_the_combinations(m, k):
    """`_combination_rows` gives `itertools.combinations` by rank: values, order and int8, window by window.

    The half tables are the subsets of k // 2 and of k - k // 2 items, in
    order: one empty row at k = 1, tables of two sizes at odd k.  Every
    `_SCAN_CHUNK` window is checked, the last partial one included, and
    every one-rank window.  Where there are more than `_SCAN_CHUNK`
    candidates, some window holds subsets of more than one left row.
    """
    items = _skip_one(m)
    want = list(itertools.combinations(items, k))
    halves = total, left, right, _ = _combination_rows(items, k)
    assert total == len(want) == comb(m, k)
    for table, size in ((left, k // 2), (right, k - k // 2)):
        assert table.dtype == np.int8
        assert table.tolist() == [list(row) for row in itertools.combinations(items, size)]
    for first in range(0, total, _SCAN_CHUNK):
        rows = want[first : first + _SCAN_CHUNK]
        _assert_window(halves, first, rows)
        if total > _SCAN_CHUNK:
            assert len({row[: k // 2] for row in rows}) > 1
    for first, row in enumerate(want):
        _assert_window(halves, first, [row])
    # the reference of the C(29,14) test
    assert [tuple(items[x] for x in _unrank(items, k, rank)) for rank in range(total)] == want


def _unrank(items, k, rank):
    """The subset of lexicographic rank `rank` among the k-subsets of `items`, counted off one item at a time."""
    out, x = [], 0
    for left in range(k, 0, -1):
        while comb(len(items) - 1 - x, left - 1) <= rank:
            rank -= comb(len(items) - 1 - x, left - 1)
            x += 1
        out.append(x)
        x += 1
    return out


def _successors(items, pos, n):
    """n k-subsets of `items` in lexicographic order from positions `pos` on, by the successor rule."""
    m, k, pos, out = len(items), len(pos), list(pos), []
    for _ in range(n):
        out.append(tuple(items[x] for x in pos))
        i = k - 1
        while i >= 0 and pos[i] == m - k + i:
            i -= 1
        if i < 0:
            break
        pos[i : k] = range(pos[i] + 1, pos[i] + 1 + k - i)
    return out


def test_combination_rows_at_the_planes_of_ag45():
    """At C(29,14), the first, a middle and the last window, against an unranked reference; no full enumeration.

    Each window's uint8 sums on a small random table, taken from the two
    C(29,7)-row half tables, are checked against its reference subsets'
    per-class count sums.
    """
    items = _skip_one(29)
    halves = total, left, right, rows = _combination_rows(items, 14)
    assert total == comb(29, 14) == 77558760
    first = list(itertools.islice(itertools.combinations(items, 14), _SCAN_CHUNK))
    assert _successors(items, _unrank(items, 14, 0), _SCAN_CHUNK) == first
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 2, size=(30, 8), dtype=np.uint8)
    table = _ScanTable(np.zeros((1, 8), dtype=np.uint64), counts, rng.integers(5, 10, size=8, dtype=np.uint8))
    low, high = _half_sums(table, left, right)
    assert len(low) == len(high) == comb(29, 7)
    hits = 0
    last = total - total % _SCAN_CHUNK
    for start in (0, (total // 2 // _SCAN_CHUNK) * _SCAN_CHUNK, last):
        n = min(_SCAN_CHUNK, total - start)
        want = _successors(items, _unrank(items, 14, start), n)
        assert len(want) == n
        _assert_window(halves, start, want)
        sums = np.empty((n, 8), dtype=np.uint8)
        got = _hit_counts(low, high, *rows(start, n), sums)
        exact = counts[np.array(want)].sum(axis=1, dtype=np.int16)
        assert np.array_equal(sums, (exact - table.target) % 256)
        assert np.array_equal(got, np.count_nonzero(exact == table.target, axis=1))
        hits += got.sum()
    assert hits
    _assert_window(halves, total - 1, [tuple(items[15:])])


def _assert_scan_in_order(ctx):
    """`_scan`'s result, order included: the reference's viable candidates in rank order, and their `_fill` choices.

    Each candidate's choices are `_fill`'s on its weight-r table words in
    table order, the order the scan hands them over in.  Returns the result.
    """
    table = _scan_table(ctx)
    want = []
    for idx, classes, _ in _reference_scan(_reference_args(ctx)):
        y = 1 << (ctx.ncols - 1) | sum(ctx.class_masks[c] for c in classes)
        hits = [s ^ y for s in _words(table.words) if (s ^ y).bit_count() == ctx.r]
        want.append((idx, classes, _fill(hits, ctx.rows, ctx.need, ctx.lam, ctx.room)))
    found = _scan(ctx, table)[1]
    assert found == want
    return found


def test_scan_one_limb_on_planes(ag34, lift_guard):
    """The scan's records in the reference's order, on AG_2(3,2), AG_2(3,4)'s good resolution and planted contexts."""
    assert len(_assert_scan_in_order(_search_context(ag34, 0, None))) == 16
    rng = random.Random(23)
    for need, size, extra in [(1, 3, 0), (2, 5, 2), (3, 3, 40), (4, 5, 50)]:
        ctx, planted = _planted_context(rng, size, need, extra)
        assert any(set(sol) == set(planted) for _, _, sols in _assert_scan_in_order(ctx) for sol in sols)
    # AG_2(3,2) has 14 search columns, one 64-bit limb; the search is guarded
    # to (4, 3), so the guard is lifted here only to exercise the scan.
    lift_guard((2, 3))
    planes, _ = ag_design(3, 2, 2)
    for block in (0, 5, 13):
        ctx = _search_context(planes, block, None)
        assert ctx.ncols <= 64 and len(_span_table(_limbs(ctx.basis, ctx.ncols))) == 1
        assert _assert_scan_matches(planes, block)
        _assert_scan_in_order(ctx)
    result = embedding_search(planes, 0)
    ctx = _search_context(planes, 0, None)
    assert result.candidates_examined == comb(len(ctx.class_masks) - 1, ctx.per_candidate)
    assert [rec.candidate_index for rec in result.records] == [
        idx for idx, _, _ in _reference_scan(_reference_args(ctx))
    ]


def _oracle_rows(ctx):
    """Every row of weight r with the last coordinate set that meets each old row in lambda, by backtracking over columns.

    A column with no room takes no new row, so no row of a completion meets one.
    """
    last = ctx.ncols - 1
    cols = [j for j in range(last) if ctx.room[j]]
    old = [[row >> j & 1 for j in cols] for row in ctx.rows]
    # ahead[i][t]: the columns from cols[t] on that old row i meets
    ahead = [list(itertools.accumulate(bits[::-1], initial=0))[::-1] for bits in old]
    meets = [0] * len(old)
    out = []

    def place(t, word, weight):
        if weight == ctx.r - 1:
            if all(m == ctx.lam for m in meets):
                out.append(word | 1 << last)
            return
        if len(cols) - t < ctx.r - 1 - weight or any(m + a[t] < ctx.lam for m, a in zip(meets, ahead)):
            return
        met = [i for i, bits in enumerate(old) if bits[t]]
        if all(meets[i] < ctx.lam for i in met):
            for i in met:
                meets[i] += 1
            place(t + 1, word | 1 << cols[t], weight + 1)
            for i in met:
                meets[i] -= 1
        place(t + 1, word, weight)

    place(0, 0, 0)
    return out


def _completion_oracle(ctx):
    """Every completion of the residual rows, as its set of new rows, found without the residual's code.

    Backtracks over `need`-sets of `_oracle_rows` that meet pairwise in
    lambda and fill every column's room, and keeps those whose 2-rank is one
    above the residual's.
    """
    rows = _oracle_rows(ctx)
    base = mat_rank(MatGFp.from_bitrows(list(ctx.rows), ctx.ncols))
    room = list(ctx.room)
    chosen, out = [], set()

    def place(start):
        if len(chosen) == ctx.need:
            if not any(room) and mat_rank(MatGFp.from_bitrows([*ctx.rows, *chosen], ctx.ncols)) == base + 1:
                out.add(frozenset(chosen))
            return
        for t in range(start, len(rows)):
            w = rows[t]
            cols = [j for j in range(ctx.ncols) if w >> j & 1]
            if any((w & c).bit_count() != ctx.lam for c in chosen) or not all(room[j] for j in cols):
                continue
            for j in cols:
                room[j] -= 1
            chosen.append(w)
            place(t + 1)
            chosen.pop()
            for j in cols:
                room[j] += 1

    place(0)
    return out


def _from_rows(rows, ncols):
    """The structure whose point i lies on block j when bit j of rows[i] is set."""
    return IncidenceStructure(len(rows), [[i for i, row in enumerate(rows) if row >> j & 1] for j in range(ncols)])


def test_search_equals_the_completion_oracle_on_planes(monkeypatch, lift_guard):
    """At each good-block orbit of AG_2(3,2), the oracle's completions are the searches' over every resolution.

    The oracle knows no class or candidate.  Each completion must be a
    2-design with the parent's parameters whose span holds a candidate of
    some resolution of the substructure: the fixed class of that resolution
    plus `per_candidate` others, so its new rows all come from that one
    candidate (the scan's premise).  The search under a resolution finds
    exactly the completions holding one of its candidates, and counts each
    class once per candidate with a completion in it.  Each of the 8
    resolutions finds 2 of the 16 completions, each held by 2 of its
    candidates, so only all resolutions together find every completion.
    """
    lift_guard((2, 3))
    planes, _ = ag_design(3, 2, 2)
    blocks = [next(j for j in orb if good_block(planes, j)) for orb in orbits(automorphism_group(planes), "blocks")]
    assert blocks == [0]
    for block in blocks:
        oracle = _completion_oracle(_search_context(planes, block, None))
        assert len(oracle) == 16
        found = set()
        for res in designs.resolutions(good_block(planes, block).substructure):
            ctx = _search_context(planes, block, res)
            spans = {}
            for sol in oracle:
                rows = [*ctx.rows, *sol]
                assert verify_tdesign(_from_rows(rows, ctx.ncols), 2) == ctx.params
                rank = mat_rank(MatGFp.from_bitrows(rows, ctx.ncols))
                for combo in _combos(ctx):
                    y = 1 << (ctx.ncols - 1) | sum(ctx.class_masks[c] for c in (ctx.fixed, *combo))
                    if mat_rank(MatGFp.from_bitrows([*rows, y], ctx.ncols)) == rank:
                        spans.setdefault(combo, []).append(sol)
            digest = {sol: canonical_cert(_from_rows([*ctx.rows, *sol], ctx.ncols)).digest for sols in spans.values() for sol in sols}
            multiplicity = Counter(dg for sols in spans.values() for dg in {digest[sol] for sol in sols})
            with monkeypatch.context() as m:
                assembled = _spy(m, "_completions")
                result = embedding_search(planes, block, res)
            searched = {frozenset(sol) for call in assembled for sol in call[1]}
            assert searched == set(digest) and len(searched) == 2
            assert sorted(map(len, spans.values())) == [1] * 4
            assert {frozenset(d.point_masks()[len(ctx.rows) :]) for d in result.designs} <= searched
            assert {rec.class_indices[1:] for rec in result.records} == set(spans)
            assert {dg: n for dg, _, n in result.iso_classes} == dict(multiplicity)
            found |= searched
        assert found == oracle


def _reference_table(ctx):
    """`_scan_table` the long way: the whole span, the parallel columns filtered out, the bound by a sort."""
    span = _span_table(_limbs(ctx.basis, ctx.ncols))
    par = _limbs([sum(1 << j for j, c in enumerate(ctx.room) if c == 0)], ctx.ncols)
    keep = np.ones(span.shape[1], dtype=bool)
    for limb, mask in zip(span, par[:, 0]):
        keep &= (limb & mask) == 0
    words = span[:, keep]
    counts = np.empty((len(ctx.class_masks), words.shape[1]), dtype=np.int16)
    for c, mask in enumerate(_limbs(ctx.class_masks, ctx.ncols).T):
        counts[c] = _popcount(words & mask[:, None])
    weight = _popcount(words)
    target = weight // 2 - counts[ctx.fixed]
    others = np.sort(np.delete(counts, ctx.fixed, axis=0), axis=0)
    top = others[len(others) - ctx.per_candidate :].sum(axis=0, dtype=np.int16)
    ok = (weight % 2 == 0) & (target >= 0) & (target <= top)
    return words[:, ok], counts[:, ok].astype(np.uint8), target[ok].astype(np.uint8)


def _by_word(words, counts, target):
    """A table's fields with its columns sorted by word; the words of a span are distinct."""
    order = np.lexsort(words)
    return words[:, order], counts[:, order], target[order]


def _assert_table_matches(ctx):
    """`_scan_table(ctx)` equals the reference field by field, in dtype, shape and bytes, columns sorted by word; returns its width."""
    table = _scan_table(ctx)
    for got, want in zip(_by_word(*table), _by_word(*_reference_table(ctx)), strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    return table.words.shape[1]


def test_scan_table_matches_the_whole_span(ag34, dpp_resolutions, e1_found, e1_block, lift_guard):
    """The table spanned on the parallel-free subcode holds the whole span's words, filtered.

    Covers every resolution of AG_2(3,4)'s block-0 substructure, a relabeled
    AG_2(3,4), e1 at the block its search starts from, AG_2(3,2) in one limb,
    the random and planted contexts, random contexts with no parallel column,
    random contexts where a basis row has only parallel bits, and wide
    random contexts of 128 columns.
    """
    widths = [_assert_table_matches(_search_context(ag34, 0, res)) for res in dpp_resolutions]
    rng = random.Random(3)
    relabeled = relabel(ag34, rng)
    widths.append(_assert_table_matches(_search_context(relabeled, rng.randrange(relabeled.b), None)))
    widths.append(_assert_table_matches(_search_context(e1_found, e1_block, None)))
    lift_guard((2, 3))
    planes, _ = ag_design(3, 2, 2)
    widths += [_assert_table_matches(_search_context(planes, block, None)) for block in (0, 5, 13)]
    rng = random.Random(31)
    for nclasses, size, npar in [(6, 3, 2), (10, 7, 3), (6, 3, 0), (10, 7, 0)] * 4:
        widths.append(_assert_table_matches(_random_context(rng, nclasses, size, npar)))
    for nclasses, size, npar in [(6, 3, 2), (10, 7, 3)] * 4:
        ctx = _random_context(rng, nclasses, size, npar)
        width = nclasses * size
        rref, _ = mat_rref(MatGFp.from_bitrows(ctx.rows + [rng.randrange(1, 1 << npar) << width], ctx.ncols))
        ctx = _rebased(ctx, rref.bits)
        assert any(row and not row & ((1 << width) - 1) for row in ctx.basis)
        widths.append(_assert_table_matches(ctx))
    for need in (1, 4):
        for size, extra in [(3, 0), (5, 50)]:
            widths.append(_assert_table_matches(_planted_context(rng, size, need, extra)[0]))
    widths += [_assert_table_matches(_wide_context(rng, per_candidate)) for per_candidate in (4, 7) * 2]
    assert min(widths[:32]) == 131 and max(widths[:32]) == 203
    assert sum(widths) > 5000


def test_scan_table_spans_only_the_parallel_free_subcode(ag34, monkeypatch):
    """The widest span `_scan_table` builds on AG_2(3,4) has 2^(15 - 3) words, never the whole span's 2^15."""
    ctx = _search_context(ag34, 0, None)
    par = sum(1 << j for j, c in enumerate(ctx.room) if c == 0)
    par_rank = mat_rank(MatGFp.from_bitrows([row & par for row in ctx.basis], ctx.ncols))
    assert (len(ctx.basis), par_rank) == (15, 3)
    spans = _spy(monkeypatch, "_span_table")
    _scan_table(ctx)
    assert max(1 << rows.shape[1] for rows, in spans) == 1 << 12 == 1 << (len(ctx.basis) - par_rank)


def test_residual_built_once_per_design_and_block(ag34, ag34_gb, dpp_group, dpp_resolutions, monkeypatch):
    """The 30 searches of block 0 under the non-good resolutions find the good block once; another block once more."""
    others = [res for orb in _non_good_orbits(ag34_gb, dpp_group, dpp_resolutions) for res in orb]
    assert len(others) == 30
    _clear_fact_caches()
    calls = _spy(monkeypatch, "good_block")
    for res in others:
        assert embedding_search(ag34, 0, resolution=res).candidates_examined == 3876
    assert calls == [(ag34, 0)]
    assert embedding_search(ag34, 17).viable_codes == 16
    assert calls == [(ag34, 0), (ag34, 17)]


def _result_fields(result):
    """Every field of a search result, with the names of its designs."""
    return (result, [d.name for d in result.designs], [rep.name for _, rep, _ in result.iso_classes])


def test_cached_residual_gives_the_cold_results(ag34, ag34_gb, dpp_group, dpp_resolutions, e1):
    """A search on a cached residual returns what it returns on a fresh one, in either order of resolutions.

    The resolutions are the good one, its classes reversed, and one from each
    non-good orbit.  Failing calls cache nothing and raise again.  The cached
    context holds tuples, so no caller can change it, and a caller's
    resolution replaces only its classes.
    """
    resolutions = [None, Resolution(ag34_gb.resolution.classes[::-1])]
    resolutions += _non_good_resolutions(ag34_gb, dpp_group, dpp_resolutions)
    cold = []
    for res in resolutions:
        _clear_fact_caches()
        cold.append(_result_fields(embedding_search(ag34, 0, resolution=res)))
    assert [len(fields[0].records) for fields in cold] == [16, 16, 0, 0]
    assert {dg for dg, _, _ in cold[0][0].iso_classes} == {dg for dg, _, _ in cold[1][0].iso_classes}
    for order in (range(4), range(3, -1, -1)):
        _clear_fact_caches()
        for i in order:
            assert _result_fields(embedding_search(ag34, 0, resolution=resolutions[i])) == cold[i], i
    assert embedding._residual.cache_info().currsize == 1

    planes, _ = ag_design(3, 2, 2)
    failing = [(e1, 0, NotGoodBlock), (planes, 0, InfeasibleInstance), (ag34, 84, BadIndex)]
    for design, block, error in failing:
        for _ in range(2):
            with pytest.raises(error):
                embedding_search(design, block)
    assert embedding._residual.cache_info().currsize == 1

    ctx = _search_context(ag34, 0, None)
    assert all(type(field) is tuple for field in (ctx.rows, ctx.room, ctx.class_masks))
    assert _search_context(ag34, 0, ag34_gb.resolution) == ctx
    other = _search_context(ag34, 0, resolutions[2])
    assert [f for f in ctx._fields if getattr(ctx, f) != getattr(other, f)] == ["class_masks", "fixed"]
    assert _result_fields(embedding_search(ag34, 0)) == cold[0]


def test_search_premises_checked(ag34, ag34_gb, monkeypatch):
    dpp = ag34_gb.substructure
    classes = [list(cls) for cls in ag34_gb.resolution.classes]

    def internal(match, **fields):
        # good_block hands the search a GoodBlock that breaks one of its premises
        # (the residual it builds is cached, so it is dropped before and after)
        with monkeypatch.context() as m:
            m.setattr(embedding, "good_block", lambda d, j: dataclasses.replace(ag34_gb, **fields))
            embedding._residual.cache_clear()
            try:
                with pytest.raises(InternalCheckFailed, match=match):
                    _search_context(ag34, 0, None)
            finally:
                embedding._residual.cache_clear()

    def rejected(classes, error=WrongParameters):
        with pytest.raises(error):
            embedding_search(ag34, 0, resolution=Resolution(tuple(tuple(c) for c in classes)))

    # 1 + (per_candidate + 1) * class_size == r fails for classes of 3 blocks
    threes = Resolution(tuple(tuple(range(j, j + 3)) for j in range(0, dpp.b - 2, 3)))
    internal("union of classes", resolution=threes)
    # a caller's classes must partition the substructure's blocks ...
    rejected([classes[0], [classes[0][0], *classes[1][1:]], *classes[2:]])
    rejected([classes[0][:-1], *classes[1:]])
    rejected([classes[0], [classes[1][0], *classes[1]], *classes[2:]])
    rejected([classes[0], [*classes[1][:-1], dpp.b], *classes[2:]])
    rejected([])
    rejected(classes[1:])
    # ... and name no block past them: one more class partitions 0..83, yet the blocks end at 79
    rejected([*classes, range(dpp.b, dpp.b + len(classes[0]))], BadIndex)
    # ... into parallel classes
    a, b = classes[0], classes[1]
    rejected([[b[0], *a[1:]], [a[0], *b[1:]], *classes[2:]])
    # the unchanged resolution passes every check, and a reordered one keeps its order
    assert _search_context(ag34, 0, ag34_gb.resolution).per_candidate == 4
    backwards = Resolution(ag34_gb.resolution.classes[::-1])
    assert _search_context(ag34, 0, backwards).class_masks == tuple(ag34_gb.resolution.masks()[::-1])
