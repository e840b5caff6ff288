"""Linear embeddability of residual designs and completion searches.

A 2-design is linearly embeddable over GF(p) with respect to a block when the
p-rank of its incidence matrix exceeds the residual's p-rank by exactly one.
This module bundles the rank test, the minimum-weight sufficient condition,
two necessary conditions counting parallel-class-union codewords, a completion
search that reconstructs every affine resolvable 2-(64,16,5) design containing
a given residual structure, and the analogous symmetric completion that embeds
an affine resolvable design into a symmetric one by adding one point class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

from .codes import (
    LinearCode,
    _limbs,
    _span_table,
    code_from_bitrows,
    code_from_cols,
    code_from_rows,
    codewords_of_weight,
    min_weight,
)
from .designs import (
    DesignParams,
    IncidenceStructure,
    Resolution,
    affine_family,
    good_block,
    is_affine_resolvable,
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
from .fields import prime_power
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


def thm1_certify(design: IncidenceStructure, p: int = 2, cap: int | None = None):
    """Certify blocks whose size equals the column code's minimum weight.

    Returns (blockIdx, certified) for every block.  A certified block's
    residual is guaranteed embeddable, and that guarantee is cross-checked
    against the rank test here; a contradiction would falsify the underlying
    theorem, so it raises.
    """
    code = code_from_cols(design.incidence_matrix(p))
    d = min_weight(code, cap=cap)
    out = []
    for j, blk in enumerate(design.blocks):
        certified = len(blk) == d
        if certified and not embeddability(design, j, p).embeddable:
            raise InternalCheckFailed(f"certified block {j} failed the rank test")
        out.append((j, certified))
    return out


def parallel_union_codewords(code: LinearCode, resolution: Resolution, w: int, cap: int | None = None):
    """Weight-w codewords whose support is a union of classes of `resolution`.

    The resolution's classes index coordinates of the code.  Returns the words
    (as bitmasks over GF(2), as vectors otherwise) in enumeration order.
    """
    masks = []
    seen = 0
    for cls in resolution.classes:
        m = 0
        for j in cls:
            if j >= code.length:
                raise WrongParameters("resolution indexes past the code length")
            m |= 1 << j
        if m & seen:
            raise WrongParameters("resolution classes overlap")
        seen |= m
        masks.append(m)
    out = []
    for word in codewords_of_weight(code, w, cap=cap):
        support = word if code.p == 2 else sum(1 << int(j) for j in np.flatnonzero(word))
        if all((support & m) == 0 or (support & m) == m for m in masks):
            out.append(word)
    return out


class NecessaryCondition(NamedTuple):
    required: int
    found: int
    passes: bool


def thm5_necessary(
    design: IncidenceStructure,
    block_idx: int,
    resolution: Resolution | None = None,
    p: int | None = None,
    cap: int | None = None,
) -> NecessaryCondition:
    """Parallel-union codeword count of the residual structure's row code.

    An embedding of the residual with respect to `resolution` forces at least
    (p-1)*C(q^(n-1), 2) weight-2q^(n-1) codewords supported on unions of
    parallel classes; fewer rules the resolution out.  Defaults to the
    resolution induced by the good block.
    """
    q, n, *_ = affine_family(design)
    if q < 4:
        raise WrongParameters("the necessary condition needs q >= 4")
    gb = good_block(design, block_idx)
    if gb is None:
        raise NotGoodBlock(f"block {block_idx} is not good")
    if p is None:
        p, _ = prime_power(q)
    res = resolution if resolution is not None else gb.resolution
    code = code_from_bitrows(gb.substructure.point_masks(), gb.substructure.b)
    required = (p - 1) * comb(q ** (n - 1), 2)
    found = len(parallel_union_codewords(code, res, 2 * q ** (n - 1), cap=cap))
    return NecessaryCondition(required, found, found >= required)


def thm_taf_necessary(design: IncidenceStructure, p: int | None = None, cap: int | None = None) -> NecessaryCondition:
    """Necessary condition for embedding into a symmetric design.

    Counts weight-2q^(n-1) codewords of the design's own row code supported on
    unions of its parallel classes; an embedding forces at least
    (p-1)*C((q^n-1)/(q-1), 2) of them.
    """
    q, n, _, _, resolution = affine_family(design)
    if q < 4:
        raise WrongParameters("the necessary condition needs q >= 4")
    if p is None:
        p, _ = prime_power(q)
    if p != 2:
        raise WrongParameters("only p = 2 instances are supported here")
    code = code_from_bitrows(design.point_masks(), design.b)
    required = (p - 1) * comb((q**n - 1) // (q - 1), 2)
    found = len(parallel_union_codewords(code, resolution, 2 * q ** (n - 1), cap=cap))
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
        raise InternalCheckFailed(f"{ncols} columns do not fit the search's two 64-bit limbs")
    classes, rest = divmod(params.r - 1, res.class_size)
    if rest:
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
    class_masks = [sum(1 << j for j in cls) for cls in res.classes]
    least_block = min(range(dpp.b), key=lambda j: dpp.blocks[j])
    fixed = next(c for c, cls in enumerate(res.classes) if least_block in cls)
    return _SearchContext(
        params=params, ncols=ncols, rows=rows, basis=rref.bits,
        class_masks=class_masks, fixed=fixed, room=room,
        r=params.r, lam=params.lam, need=params.k, per_candidate=classes - 1,
    )


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


def _scan_range(args):
    (start, stop, combos, fixed, class_masks, lo, hi, rows, room, r, lam, need) = args
    last_bit = 1 << (len(room) - 1)
    par_mask = sum(1 << j for j, c in enumerate(room) if c == 0)
    found = []
    for idx in range(start, stop):
        combo = combos[idx]
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
        solutions = _fill(cands, need, lam, room)
        if solutions:
            found.append((idx, (fixed, *combo), solutions))
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
    block) plus `per_candidate` of the others.  Each candidate spans a code
    one dimension above the residual's; its weight-r codewords with the last
    coordinate set are searched for k rows with pairwise intersection lambda
    that bring every column sum to k, which is exactly a completion to a
    design with the parent's parameters.  Designs are deduplicated per
    candidate by canonical form and classified into isomorphism classes
    across candidates.  Only the `_SEARCH_SIZES` instances are searched.
    """
    ctx = _search_context(design, block_idx, resolution)
    # The full span in Gray-walk order, as two 64-bit limbs.
    lo, hi = _span_table(_limbs(ctx.basis, ctx.ncols))
    rest = [c for c in range(len(ctx.class_masks)) if c != ctx.fixed]
    combos = list(itertools.combinations(rest, ctx.per_candidate))
    base_args = (combos, ctx.fixed, ctx.class_masks, lo, hi, ctx.rows, ctx.room, ctx.r, ctx.lam, ctx.need)

    if workers > 1:
        bounds = [len(combos) * i // workers for i in range(workers + 1)]
        chunks = [(bounds[i], bounds[i + 1], *base_args) for i in range(workers)]
        with get_context("fork").Pool(workers) as pool:
            parts = pool.map(_scan_range, chunks)
        found = [hit for part in parts for hit in part]
    else:
        found = _scan_range((0, len(combos), *base_args))

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
            if is_affine_resolvable(d) is None or verify_tdesign(d, 2) != ctx.params:
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
        candidates_examined=len(combos),
        viable_codes=len(records),
        designs=tuple(designs),
        iso_classes=tuple((reps[dg], n) for dg, n in counts.items()),
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# symmetric completions


def sym_embedding_code(design: IncidenceStructure, p: int = 2) -> LinearCode:
    """Code of length b+1 spanned by the bordered rows [A | 0] and all-ones.

    Any symmetric design extending `design` by one point class has all its
    point rows inside this code, because the bordered matrix's column sums
    are 1 mod p.
    """
    q = affine_family(design).q
    pq, _ = prime_power(q)
    if q % p or pq % p:
        raise WrongParameters(f"p = {p} does not divide q = {q}")
    b = design.b
    if p == 2:
        rows = design.point_masks() + [(1 << (b + 1)) - 1]
        return code_from_bitrows(rows, b + 1)
    mat = design.incidence_matrix(p).to_lists()
    rows = [row + [0] for row in mat] + [[1] * (b + 1)]
    return code_from_rows(MatGFp.from_rows(rows, b + 1, p))


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


def sym_embedding_search(design: IncidenceStructure, p: int = 2, cap: int | None = None) -> SymEmbedding:
    """Try to extend an affine resolvable design to a symmetric one.

    New point rows must be weight-k' codewords of sym_embedding_code with the
    last coordinate set, meeting every old row in lam'; a backtracking search
    assembles k' of them with pairwise intersection lam' and column sums k'.
    """
    params = affine_family(design).params
    target = quasi_residual_params(params.v, params.k, params.lam)
    if target is None:
        raise InternalCheckFailed("an affine resolvable design that is not quasi-residual")
    vp, kp, lamp = target
    code = sym_embedding_code(design, p)
    if p != 2:
        raise WrongParameters("only p = 2 symmetric completions are implemented")
    words = codewords_of_weight(code, kp, cap=cap)
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
