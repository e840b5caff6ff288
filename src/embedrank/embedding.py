"""Linear embeddability of residual designs and completion searches.

A 2-design is linearly embeddable over GF(p) with respect to a block when the
p-rank of its incidence matrix exceeds the residual's p-rank by exactly one.
This module bundles the rank test, the minimum-weight sufficient condition,
two necessary conditions counting parallel-class-union codewords, a completion
search that reconstructs every affine resolvable 2-(64,16,5) design containing
a given residual structure, and the analogous symmetric completion that embeds
an affine resolvable design into a symmetric one by adding one point class.
The rank test works over any GF(p); the necessary conditions, the searches and
the symmetric completion work over GF(2), for designs whose q is a power of 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .codes import (
    LinearCode,
    _check_cap,
    _limbs,
    _single_process,
    _span_table,
    _walk_index,
    _weight_words,
    _words,
    code_from_bitrows,
    code_from_cols,
    codewords_of_weight,
    min_weight,
)
from .designs import (
    AffineFamily,
    DesignParams,
    IncidenceStructure,
    Resolution,
    _affine_resolution,
    affine_family,
    good_block,
    residual,
    verify_tdesign,
)
from .errors import (
    BadIndex,
    InfeasibleInstance,
    NotGoodBlock,
    InternalCheckFailed,
    WrongParameters,
)
from .iso import canonical_cert
from .linalg import MatGFp, mat_rank, mat_rref


@dataclass(frozen=True)
class EmbeddabilityReport:
    """Rank comparison behind the embeddability definition.

    rank_full >= rank_residual + 1 always holds for a nonempty block;
    embeddable means equality.
    """

    rank_full: int
    rank_residual: int
    embeddable: bool


def embeddability(design: IncidenceStructure, block_idx: int, p: int = 2) -> EmbeddabilityReport:
    if not 0 <= block_idx < design.b:
        raise BadIndex(f"block index {block_idx} out of range")
    if len(design.blocks[block_idx]) < 2:
        raise WrongParameters("embeddability needs a block of size >= 2")
    rank_full = mat_rank(design.incidence_matrix(p))
    res = residual(design, block_idx, keep_empty=True)
    rank_res = mat_rank(res.incidence_matrix(p))
    return EmbeddabilityReport(rank_full, rank_res, rank_full == rank_res + 1)


def thm1_certify(design: IncidenceStructure, p: int = 2):
    """Certify blocks whose size equals the column code's minimum weight.

    Returns (blockIdx, certified) for every block.  A certified block's
    residual is guaranteed embeddable, and that guarantee is cross-checked
    against the rank test here; a contradiction would falsify the underlying
    theorem, so it raises.
    """
    code = code_from_cols(design.incidence_matrix(p))
    d = min_weight(code)
    out = []
    for j, blk in enumerate(design.blocks):
        certified = len(blk) == d
        if certified and not embeddability(design, j, p).embeddable:
            raise InternalCheckFailed(f"certified block {j} failed the rank test")
        out.append((j, certified))
    return out


def _union_basis(code: LinearCode, masks: list[int]) -> list[int]:
    """Unions of the disjoint class masks that span the codewords among all unions.

    A union of classes lies in the code exactly when the residues of its
    classes, reduced against the RREF basis, XOR to 0.  Each residue is tagged
    with its class in the bits above the code length, so after one RREF the
    rows whose pivot is a tag bit have residue 0, and their tags form a basis
    of that kernel.  An empty class adds a zero word.
    """
    n = code.length
    tagged = [code._residue(m) | 1 << (n + i) for i, m in enumerate(masks)]
    rref, pivots = mat_rref(MatGFp.from_bitrows(tagged, n + len(masks)))
    basis = []
    for row, piv in zip(rref.bits, pivots):
        if piv >= n:
            basis.append(sum(m for i, m in enumerate(masks) if (row >> (n + i)) & 1))
    return basis


def parallel_union_codewords(code: LinearCode, resolution: Resolution, w: int, cap: int | None = None):
    """Weight-w codewords whose support is a union of classes of `resolution`.

    The code is binary, and the resolution's classes are disjoint sets of its
    coordinates that together cover all of them (WrongParameters otherwise).
    These codewords are the subcode C ∩ V, V the span of the class
    indicators; _union_basis spans it, and only that subcode is walked:
    2^dim(C ∩ V) words, never more than the 2^dim(C) of the whole code.  The
    cap still compares the whole code's size, so CapExceeded is raised for
    the same codes as by a walk of the whole code.  Returns the words as
    bitmasks, in the order the walk of the whole code lists them.
    """
    if code.p != 2:
        raise WrongParameters("parallel-union codewords are implemented over GF(2)")
    masks = []
    seen = 0
    for cls in resolution.classes:
        m = 0
        for j in cls:
            if not 0 <= j < code.length:
                raise WrongParameters("resolution indexes outside the code length")
            m |= 1 << j
        if m & seen:
            raise WrongParameters("resolution classes overlap")
        seen |= m
        masks.append(m)
    _check_cap(code, cap)
    if seen != (1 << code.length) - 1:
        raise WrongParameters("resolution classes leave coordinates uncovered")
    sub = code_from_bitrows(_union_basis(code, masks), code.length)
    words = _weight_words(sub.basis_bits, sub.length, w)
    return sorted(words, key=lambda word: _walk_index(code, word))


class NecessaryCondition(NamedTuple):
    required: int
    found: int
    passes: bool


def _binary_family(design: IncidenceStructure) -> AffineFamily:
    """The design's affine family; WrongParameters unless its q is a power of 2."""
    family = affine_family(design)
    if family.q & (family.q - 1):
        raise WrongParameters(f"q = {family.q} is not a power of 2: this is implemented over GF(2)")
    return family


def thm5_necessary(design: IncidenceStructure, block_idx: int) -> NecessaryCondition:
    """Parallel-union codeword count of the residual structure's row code.

    An embedding of the residual with respect to the resolution the good
    block induces forces at least C(q^(n-1), 2) weight-2q^(n-1) codewords
    supported on unions of its parallel classes; fewer rules the embedding
    out.  The count is over GF(2), so q must be a power of 2 and at least 4.
    parallel_union_codewords finds the words by walking only the subcode of
    class unions (2^15 words instead of 2^24 on AG_3(4,4)), while the cap
    still bounds the whole code.  For another resolution of the
    substructure, call parallel_union_codewords directly.
    """
    q, n, *_ = _binary_family(design)
    if q < 4:
        raise WrongParameters("the necessary condition needs q >= 4")
    gb = good_block(design, block_idx)
    if gb is None:
        raise NotGoodBlock(f"block {block_idx} is not good")
    code = code_from_bitrows(gb.substructure.point_masks(), gb.substructure.b)
    required = comb(q ** (n - 1), 2)
    found = len(parallel_union_codewords(code, gb.resolution, 2 * q ** (n - 1)))
    return NecessaryCondition(required, found, found >= required)


def thm_taf_necessary(design: IncidenceStructure) -> NecessaryCondition:
    """Necessary condition for embedding into a symmetric design.

    Counts weight-2q^(n-1) codewords of the design's own row code supported on
    unions of its parallel classes; an embedding forces at least
    C((q^n-1)/(q-1), 2) of them.  The count is over GF(2), so q must be a
    power of 2 and at least 4.
    """
    q, n, _, _, resolution = _binary_family(design)
    if q < 4:
        raise WrongParameters("the necessary condition needs q >= 4")
    code = code_from_bitrows(design.point_masks(), design.b)
    required = comb((q**n - 1) // (q - 1), 2)
    found = len(parallel_union_codewords(code, resolution, 2 * q ** (n - 1)))
    return NecessaryCondition(required, found, found >= required)


def quasi_residual_params(v: int, k: int, lam: int):
    """Target symmetric parameters (v+r, r, lam) when r = k + lam, else None."""
    if k <= 1 or lam < 1 or (lam * (v - 1)) % (k - 1):
        return None
    r = lam * (v - 1) // (k - 1)
    if r != k + lam:
        return None
    return (v + r, r, lam)


# ---------------------------------------------------------------------------
# completion searches: new point rows meeting the old rows and each other in lambda


# (q, n) of the only instances searched and checked: the 2-(64,16,5) designs.
_SEARCH_SIZES = (4, 3)


@dataclass(frozen=True)
class CandidateRecord:
    """One viable candidate code of the completion search."""

    candidate_index: int
    class_indices: tuple[int, ...]
    dim: int
    n_designs: int
    cert_digests: tuple[str, ...]


@dataclass(frozen=True)
class EmbeddingSearchResult:
    candidates_examined: int
    viable_codes: int
    designs: tuple[IncidenceStructure, ...]
    iso_classes: tuple[tuple[IncidenceStructure, int], ...]
    records: tuple[CandidateRecord, ...]


class _SearchContext(NamedTuple):
    """The residual matrix and the numbers the search derives from the parent.

    rows          residual point rows over substructure, parallel and removed columns
    class_masks   the resolution's classes over the substructure columns
    fixed         the class every candidate covers: the one with the least block
    room          per column, the parent's k minus the column sum of `rows`
    r, lam        a new row's weight and its intersection with every other row
    need          new rows to add: the parent's k, the points of the good block
    per_candidate parallel classes a candidate's support covers beside `fixed`
    """

    params: DesignParams
    ncols: int
    rows: list[int]
    basis: list[int]
    class_masks: list[int]
    fixed: int
    room: list[int]
    r: int
    lam: int
    need: int
    per_candidate: int


def _search_context(
    design: IncidenceStructure, block_idx: int, resolution: Resolution | None
) -> _SearchContext:
    gb = good_block(design, block_idx)
    if gb is None:
        raise NotGoodBlock(f"block {block_idx} is not good")
    if (gb.q, gb.n) != _SEARCH_SIZES:
        raise InfeasibleInstance(
            f"completion search is guarded to the (q, n) = {_SEARCH_SIZES} sizes, got ({gb.q}, {gb.n})"
        )
    params = affine_family(design).params
    dpp = gb.substructure
    res = resolution if resolution is not None else gb.resolution
    ncols = dpp.b + len(gb.parallel) + 1
    if ncols > 128:
        raise InternalCheckFailed(f"{ncols} columns exceed the search's 128")
    # The premises of the scan's class-count identity (see _hit_matrix).
    removed = set(design.blocks[block_idx])
    if any(x in removed for x in dpp.point_labels):
        raise InternalCheckFailed("a residual row meets the removed block")
    class_masks = _class_masks(res, dpp.b)
    per_candidate = (params.r - 1) // res.class_size - 1
    if 1 + (per_candidate + 1) * res.class_size != params.r:
        raise InternalCheckFailed("a point's blocks off the good block are not a union of classes")
    par_blocks = [set(design.blocks[j]) for j in gb.parallel]
    rows = [
        mask | sum(1 << (dpp.b + m) for m, blk in enumerate(par_blocks) if x in blk)
        for mask, x in zip(dpp.point_masks(), dpp.point_labels)
    ]
    room = _room(rows, ncols, params.k)
    if sum(room) != params.k * params.r:
        raise InternalCheckFailed("the residual's column room is not k new rows of weight r")
    rref, pivots = mat_rref(MatGFp.from_bitrows(rows, ncols))
    least_block = min(range(dpp.b), key=lambda j: dpp.blocks[j])
    fixed = next((c for c, cls in enumerate(res.classes) if least_block in cls), None)
    if fixed is None:
        raise InternalCheckFailed("no parallel class holds the least substructure block")
    return _SearchContext(
        params=params, ncols=ncols, rows=rows, basis=rref.bits,
        class_masks=class_masks, fixed=fixed, room=room,
        r=params.r, lam=params.lam, need=params.k, per_candidate=per_candidate,
    )


def _class_masks(res: Resolution, width: int) -> list[int]:
    """The classes as bitmasks, checked of one nonzero size, pairwise disjoint and below `width`."""
    size = res.class_size
    if not size:
        raise InternalCheckFailed("the resolution has no nonempty class")
    masks: list[int] = []
    seen = 0
    for cls in res.classes:
        if len(cls) != size or len(set(cls)) != size:
            raise InternalCheckFailed("parallel classes differ in size")
        if not all(0 <= j < width for j in cls):
            raise InternalCheckFailed("a parallel class indexes past the substructure's blocks")
        m = sum(1 << j for j in cls)
        if m & seen:
            raise InternalCheckFailed("parallel classes overlap")
        seen |= m
        masks.append(m)
    return masks


def _room(rows: list[int], ncols: int, k: int) -> list[int]:
    """k minus each column's sum over `rows`: the new rows each column still takes."""
    return [k - sum(row >> j & 1 for row in rows) for j in range(ncols)]


def _fill(cands: list[int], need: int, lam: int, room: list[int]) -> list[tuple[int, ...]]:
    """Every `need`-subset of `cands` meeting pairwise in `lam` that fills `room`.

    A chosen row takes one unit of room in each column of its support; a
    choice is kept when it uses up every column's room exactly.  Choices come
    out in candidate order.
    """
    room = list(room)
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def place(start: int) -> None:
        if len(chosen) == need:
            if not any(room):
                out.append(tuple(chosen))
            return
        for t in range(start, len(cands)):
            if len(cands) - t < need - len(chosen):
                return
            w = cands[t]
            if any((w & c).bit_count() != lam for c in chosen):
                continue
            touched = []
            m = w
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if room[j] <= 0:
                    break
                room[j] -= 1
                touched.append(j)
                m ^= low
            if not m:
                chosen.append(w)
                place(t + 1)
                chosen.pop()
            for j in touched:
                room[j] += 1

    place(0)
    return out


def _assemble(old_rows: list[int], new_rows, ncols: int, tag: str) -> IncidenceStructure:
    all_rows = list(old_rows) + list(new_rows)
    blocks = [tuple(i for i, r in enumerate(all_rows) if r >> j & 1) for j in range(ncols)]
    return IncidenceStructure(len(all_rows), blocks, name=tag)


# Candidates per chunk of the scan; bounds its (candidates x words) count table.
_SCAN_CHUNK = 1024


class _ScanTable(NamedTuple):
    """The span words a candidate can turn into a new row, with their class counts.

    words   limb-major uint64 columns, in Gray-walk order: the span words with
            no parallel column whose counts can reach `target`
    counts  counts[c, i] = |words[i] & class c|
    target  the sum of counts[c, i] over a candidate's non-fixed classes that
            makes words[i] XOR the candidate's row weigh r
    """

    words: np.ndarray
    counts: np.ndarray
    target: np.ndarray


def _popcount(cols: np.ndarray) -> np.ndarray:
    """Hamming weights of limb-major uint64 columns of at most 255 bits, as uint8."""
    return sum(np.bitwise_count(limb) for limb in cols)


def _scan_table(ctx: _SearchContext) -> _ScanTable:
    """The span words that meet no parallel column and can weigh r under some candidate."""
    span = _span_table(_limbs(ctx.basis, ctx.ncols))
    par = _limbs([sum(1 << j for j, c in enumerate(ctx.room) if c == 0)], ctx.ncols)
    keep = np.ones(span.shape[1], dtype=bool)
    for limb, mask in zip(span, par[:, 0]):
        keep &= (limb & mask) == 0
    words = span[:, keep]
    del span  # the full span is the search's largest array; free it before the counts
    counts = np.empty((len(ctx.class_masks), words.shape[1]), dtype=np.int16)
    for c, mask in enumerate(_limbs(ctx.class_masks, ctx.ncols).T):
        counts[c] = _popcount(words & mask[:, None])
    weight = _popcount(words)
    target = weight // 2 - counts[ctx.fixed]
    others = np.sort(np.delete(counts, ctx.fixed, axis=0), axis=0)
    top = others[len(others) - ctx.per_candidate :].sum(axis=0, dtype=np.int16)
    ok = (weight % 2 == 0) & (target >= 0) & (target <= top)
    return _ScanTable(words[:, ok], counts[:, ok], target[ok])


def _hit_matrix(ctx: _SearchContext, table: _ScanTable, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which words s ^ y weigh r, for the candidates whose other classes are the rows of `idx`.

    Candidate y is the last coordinate plus the fixed class plus the classes
    in its row of `idx`.  No span word s meets the last column and the classes
    are disjoint, so |s ^ y| = |s| + r - 2 * (sum over y's classes of
    |s & class|): s ^ y weighs r exactly when the counts of y's other classes
    on s sum to table.target.  Returns hit[i, j], whether table.words[:, j]
    ^ y_i weighs r, and the candidates' rows y as limb-major columns.
    """
    class_cols = _limbs(ctx.class_masks, ctx.ncols)
    base = _limbs([1 << (ctx.ncols - 1) | ctx.class_masks[ctx.fixed]], ctx.ncols)
    ys = np.repeat(base, len(idx), axis=1)
    sums = np.zeros((len(idx), table.words.shape[1]), dtype=np.int16)
    for col in idx.T:
        sums += table.counts[col]
        ys |= class_cols[:, col]
    return sums == table.target, ys


def _expand(
    table: _ScanTable, hit: np.ndarray, ys: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The hit words of the candidates `rows` of `hit`: each hit's candidate and its word.

    Words are limb-major columns, candidate by candidate, each candidate's in
    Gray-walk order.
    """
    cand, pos = np.nonzero(hit[rows])
    cand = rows[cand]
    return cand, table.words[:, pos] ^ ys[:, cand]


def _scan(ctx: _SearchContext, table: _ScanTable) -> list:
    """The viable candidates, as (index, classes, solutions).

    A candidate's hits (see `_hit_matrix`) that meet every old row in lambda
    are its rows for `_fill`; it is viable when `_fill` finds a completion
    among them.  The lambda test only removes hits, so a candidate with fewer
    than `need` hits cannot be viable: only the others are expanded and tested.
    """
    rest = [c for c in range(len(ctx.class_masks)) if c != ctx.fixed]
    combos = itertools.combinations(rest, ctx.per_candidate)
    total = comb(len(rest), ctx.per_candidate)
    row_cols = _limbs(ctx.rows, ctx.ncols)
    found = []
    for first in range(0, total, _SCAN_CHUNK):
        n = min(_SCAN_CHUNK, total - first)
        flat = itertools.chain.from_iterable(itertools.islice(combos, n))
        idx = np.fromiter(flat, dtype=np.int8, count=n * ctx.per_candidate).reshape(n, ctx.per_candidate)
        hit, ys = _hit_matrix(ctx, table, idx)
        counted = np.flatnonzero(np.count_nonzero(hit, axis=1) >= ctx.need)
        if not len(counted):
            continue
        cand, hits = _expand(table, hit, ys, counted)
        ok = np.ones(len(cand), dtype=bool)
        for row in row_cols.T:
            ok &= _popcount(hits & row[:, None]) == ctx.lam
        cand, hits = cand[ok], hits[:, ok]
        bounds = np.searchsorted(cand, np.arange(n + 1))
        for i in np.flatnonzero(np.diff(bounds) >= ctx.need):
            cands = _words(hits[:, bounds[i] : bounds[i + 1]])
            solutions = _fill(cands, ctx.need, ctx.lam, ctx.room)
            if solutions:
                found.append((first + int(i), (ctx.fixed, *map(int, idx[i])), solutions))
    return found


def embedding_search(
    design: IncidenceStructure,
    block_idx: int,
    resolution: Resolution | None = None,
    workers: int = 1,
) -> EmbeddingSearchResult:
    """Reconstruct every affine resolvable design over a residual, with the parent's parameters.

    Builds the matrix of the residual structure at a good block: one row per
    residual point; one column per substructure block, per block parallel to
    the removed one, and a zero column for the removed block.  A candidate new
    point row has weight r, the last coordinate set, and a support covering
    the fixed parallel class (the one holding the lexicographically least
    block) plus `per_candidate` of the others.  Each candidate y spans a code
    one dimension above the residual's, whose words with the last coordinate
    set are s ^ y for the residual's span words s.  No span word meets the
    removed block's column and the classes are disjoint, so
    |s ^ y| = |s| + |y| - 2 * sum over the classes c of y of |s & c|, with
    |y| = r: the scan finds the weight-r words from a table of per-class
    counts of the span words that meet no parallel column, instead of XORing
    y into the whole span.  Those words meeting every old row in lambda are
    searched for k rows with pairwise intersection lambda that bring every
    column sum to k, which is exactly a completion to a design with the
    parent's parameters.  The scan counts first: the lambda test only removes
    words, so only candidates with at least k weight-r words have them built
    and tested.  Designs are deduplicated per
    candidate by canonical form and classified into isomorphism classes
    across candidates.  Only the `_SEARCH_SIZES` instances are searched.
    """
    _single_process(workers)
    ctx = _search_context(design, block_idx, resolution)
    examined = comb(len(ctx.class_masks) - 1, ctx.per_candidate)
    found = _scan(ctx, _scan_table(ctx))

    designs: list[IncidenceStructure] = []
    records: list[CandidateRecord] = []
    # Digest -> first design and design count, in order of first appearance.
    reps: dict[str, IncidenceStructure] = {}
    counts: dict[str, int] = {}
    for idx, class_indices, solutions in found:
        # Digest -> design, deduplicated within the candidate.
        cand: dict[str, IncidenceStructure] = {}
        for sol in solutions:
            d = _assemble(ctx.rows, sol, ctx.ncols, tag=f"completion {idx}")
            params = verify_tdesign(d, 2)
            if params != ctx.params or _affine_resolution(d, params) is None:
                raise InternalCheckFailed("completion is not affine resolvable with the parent's parameters")
            cand.setdefault(canonical_cert(d).digest, d)
        for digest, d in cand.items():
            designs.append(d)
            reps.setdefault(digest, d)
            counts[digest] = counts.get(digest, 0) + 1
        records.append(
            CandidateRecord(
                candidate_index=idx,
                class_indices=tuple(class_indices),
                dim=len(ctx.basis) + 1,
                n_designs=len(cand),
                cert_digests=tuple(cand),
            )
        )
    return EmbeddingSearchResult(
        candidates_examined=examined,
        viable_codes=len(records),
        designs=tuple(designs),
        iso_classes=tuple((reps[dg], n) for dg, n in counts.items()),
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# symmetric completions


def sym_embedding_code(design: IncidenceStructure) -> LinearCode:
    """Binary code of length b+1 spanned by the bordered rows [A | 0] and all-ones.

    Any symmetric design extending `design` by one point class has all its
    point rows inside this code, because the bordered matrix's column sums
    are 1 mod 2.  That needs q even, so q must be a power of 2.
    """
    _binary_family(design)
    b = design.b
    rows = design.point_masks() + [(1 << (b + 1)) - 1]
    return code_from_bitrows(rows, b + 1)


@dataclass(frozen=True)
class SymEmbedding:
    """Outcome of the symmetric completion search.

    `weight_count` is the total number of weight-k' codewords; when no design
    is found it certifies non-embeddability whenever it is below v' (the
    symmetric design would need v' distinct such rows).
    """

    designs: tuple[IncidenceStructure, ...]
    weight_count: int
    target_params: tuple[int, int, int]


def sym_embedding_search(design: IncidenceStructure) -> SymEmbedding:
    """Try to extend an affine resolvable design to a symmetric one.

    New point rows must be weight-k' codewords of sym_embedding_code with the
    last coordinate set, meeting every old row in lam'; a backtracking search
    assembles k' of them with pairwise intersection lam' and column sums k'.
    Works over GF(2), so the design's q must be a power of 2.
    """
    params = affine_family(design).params
    target = quasi_residual_params(params.v, params.k, params.lam)
    if target is None:
        raise InternalCheckFailed("an affine resolvable design that is not quasi-residual")
    vp, kp, lamp = target
    words = codewords_of_weight(sym_embedding_code(design), kp)
    weight_count = len(words)
    b = design.b
    old_rows = design.point_masks()
    cands = [
        w
        for w in words
        if w >> b & 1 and all((w & r).bit_count() == lamp for r in old_rows)
    ]
    solutions = _fill(cands, vp - design.v, lamp, _room(old_rows, b + 1, kp))

    # Digest -> design, one per isomorphism class.
    out: dict[str, IncidenceStructure] = {}
    for sol in solutions:
        d = _assemble(old_rows, sol, b + 1, tag="symmetric completion")
        sp = verify_tdesign(d, 2)
        if sp is None or (sp.v, sp.k, sp.lam) != (vp, kp, lamp) or not sp.symmetric:
            raise InternalCheckFailed("assembled completion is not symmetric 2-(v', k', lam')")
        out.setdefault(canonical_cert(d).digest, d)
    return SymEmbedding(designs=tuple(out.values()), weight_count=weight_count, target_params=target)
