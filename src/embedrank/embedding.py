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
    IncidenceStructure,
    Resolution,
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


def _family_parameters(design: IncidenceStructure):
    """(q, n, params, resolution) for affine resolvable 2-(q^n, q^(n-1), ...)."""
    aff = is_affine_resolvable(design)
    if aff is None:
        raise WrongParameters("not an affine resolvable 2-design")
    q, mu, resolution = aff
    params = verify_tdesign(design, 2)
    n = 0
    vv = params.v
    while vv % q == 0:
        vv //= q
        n += 1
    if vv != 1 or params.k != params.v // q or params.lam * (q - 1) != params.k - 1:
        raise WrongParameters("parameters are not 2-(q^n, q^(n-1), (q^(n-1)-1)/(q-1))")
    return q, n, params, resolution


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
    q, n, _, _ = _family_parameters(design)
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
    q, n, params, resolution = _family_parameters(design)
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
# completion search at the 2-(64,16,5) sizes


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


def _search_context(design: IncidenceStructure, block_idx: int, resolution: Resolution | None):
    gb = good_block(design, block_idx)
    if gb is None:
        raise NotGoodBlock(f"block {block_idx} is not good")
    if (gb.q, gb.n) != (4, 3):
        raise InfeasibleInstance(
            f"completion search is guarded to the (q, n) = (4, 3) sizes, got ({gb.q}, {gb.n})"
        )
    dpp = gb.substructure
    res = resolution if resolution is not None else gb.resolution
    ncols = dpp.b + 4
    rows = []
    par_blocks = [set(design.blocks[j]) for j in gb.parallel]
    labels = dpp.point_labels
    masks = dpp.point_masks()
    for i in range(dpp.v):
        row = masks[i]
        x = labels[i]
        for m, blk in enumerate(par_blocks):
            if x in blk:
                row |= 1 << (dpp.b + m)
        rows.append(row)
    rref, pivots = mat_rref(MatGFp.from_bitrows(rows, ncols))
    basis = rref.bits
    class_masks = [sum(1 << j for j in cls) for cls in res.classes]
    least_block = min(range(dpp.b), key=lambda j: dpp.blocks[j])
    fixed = next(c for c, cls in enumerate(res.classes) if least_block in cls)
    return gb, dpp, res, ncols, rows, basis, class_masks, fixed


def _complete(cands: list[int], rows48: list[int], dpp_b: int) -> list[tuple[int, ...]]:
    """All 16-subsets forming valid new point rows, in candidate order."""
    need = 16
    counts = [0] * dpp_b
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def place(start: int) -> None:
        if len(chosen) == need:
            if all(c == 4 for c in counts):
                out.append(tuple(chosen))
            return
        for t in range(start, len(cands)):
            if len(cands) - t < need - len(chosen):
                return
            w = cands[t]
            if any((w & c).bit_count() != 5 for c in chosen):
                continue
            ok = True
            m = w & ((1 << dpp_b) - 1)
            touched = []
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if counts[j] == 4:
                    ok = False
                    break
                counts[j] += 1
                touched.append(j)
                m ^= low
            if ok:
                chosen.append(w)
                place(t + 1)
                chosen.pop()
            for j in touched:
                counts[j] -= 1

    place(0)
    return out


def _assemble(rows48: list[int], new_rows, ncols: int, tag: str) -> IncidenceStructure:
    all_rows = list(rows48) + list(new_rows)
    blocks = []
    for j in range(ncols):
        bit = 1 << j
        blocks.append(tuple(i for i, r in enumerate(all_rows) if r & bit))
    return IncidenceStructure(len(all_rows), blocks, name=tag)


def _scan_range(args):
    (start, stop, combos, fixed, class_masks, lo, hi, rows48, dpp_b, ncols) = args
    last_bit = 1 << (ncols - 1)
    par_mask = ((1 << (ncols - 1)) - 1) ^ ((1 << dpp_b) - 1)
    found = []
    for idx in range(start, stop):
        combo = combos[idx]
        y = last_bit
        for c in (fixed, *combo):
            y |= class_masks[c]
        w_lo = lo ^ np.uint64(y & 0xFFFFFFFFFFFFFFFF)
        w_hi = hi ^ np.uint64(y >> 64)
        weights = np.bitwise_count(w_lo).astype(np.uint16) + np.bitwise_count(w_hi).astype(np.uint16)
        hits = np.nonzero(weights == 21)[0]
        cands = []
        for h in hits:
            w = int(w_lo[h]) | (int(w_hi[h]) << 64)
            if w & par_mask:
                continue
            if all((w & r).bit_count() == 5 for r in rows48):
                cands.append(w)
        if len(cands) < 16:
            continue
        solutions = _complete(cands, rows48, dpp_b)
        if solutions:
            found.append((idx, (fixed, *combo), solutions))
    return found


def embedding_search(
    design: IncidenceStructure,
    block_idx: int,
    resolution: Resolution | None = None,
    workers: int = 1,
) -> EmbeddingSearchResult:
    """Reconstruct all affine resolvable 2-(64,16,5) designs over a residual.

    Builds the 48x84 matrix of the residual structure (80 residual blocks,
    the 3 blocks parallel to the removed one, and the removed block's zero
    column), then tries every candidate new point row: a weight-21 vector with
    the last coordinate set whose support covers the fixed parallel class
    (the one holding the lexicographically least block) plus 4 of the other 19.
    Each candidate spans a dimension-16 code; its weight-21 codewords with the
    last coordinate set are searched for 16 rows with pairwise intersection 5
    and column sums 16, which is exactly a completion to a 2-(64,16,5) design.
    Designs are deduplicated per candidate by canonical form and classified
    into isomorphism classes across candidates.
    """
    gb, dpp, res, ncols, rows48, basis, class_masks, fixed = _search_context(
        design, block_idx, resolution
    )
    # The full span in Gray-walk order; ncols is 84 here, two 64-bit limbs.
    lo, hi = _span_table(_limbs(basis, ncols))
    rest = [c for c in range(len(class_masks)) if c != fixed]
    combos = list(itertools.combinations(rest, 4))
    base_args = (combos, fixed, class_masks, lo, hi, rows48, dpp.b, ncols)

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
    by_digest: dict[str, list[IncidenceStructure]] = {}
    class_order: list[str] = []
    counts: dict[str, int] = {}
    for idx, class_indices, solutions in found:
        cand_designs = []
        cand_digests = []
        for sol in solutions:
            d = _assemble(rows48, sol, ncols, tag=f"completion {idx}")
            aff = is_affine_resolvable(d)
            params = verify_tdesign(d, 2)
            if aff is None or params is None or (params.v, params.k, params.lam) != (64, 16, 5):
                raise InternalCheckFailed("completion is not an affine resolvable 2-(64,16,5)")
            digest = canonical_cert(d).digest
            if digest in cand_digests:
                continue
            cand_digests.append(digest)
            cand_designs.append(d)
        for d, digest in zip(cand_designs, cand_digests):
            designs.append(d)
            if digest not in counts:
                counts[digest] = 0
                class_order.append(digest)
                by_digest[digest] = [d]
            counts[digest] += 1
        records.append(
            CandidateRecord(
                candidate_index=idx,
                class_indices=tuple(class_indices),
                dim=len(basis) + 1,
                n_designs=len(cand_designs),
                cert_digests=tuple(cand_digests),
            )
        )
    iso_classes = tuple((by_digest[dg][0], counts[dg]) for dg in class_order)
    return EmbeddingSearchResult(
        candidates_examined=len(combos),
        viable_codes=len(records),
        designs=tuple(designs),
        iso_classes=iso_classes,
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
    q, _, _, _ = _family_parameters(design)
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
    params = verify_tdesign(design, 2)
    target = quasi_residual_params(params.v, params.k, params.lam)
    if target is None:
        raise WrongParameters("not quasi-residual: r != k + lambda")
    vp, kp, lamp = target
    code = sym_embedding_code(design, p)
    if p != 2:
        raise WrongParameters("only p = 2 symmetric completions are implemented")
    words = codewords_of_weight(code, kp, cap=cap)
    weight_count = len(words)
    b = design.b
    last_bit = 1 << b
    old_rows = design.point_masks()
    cands = [
        w
        for w in words
        if w & last_bit and all((w & r).bit_count() == lamp for r in old_rows)
    ]

    need = vp - design.v
    col_have = [0] * b
    for r in old_rows:
        m = r
        while m:
            low = m & -m
            col_have[low.bit_length() - 1] += 1
            m ^= low
    counts = [0] * b
    chosen: list[int] = []
    solutions: list[tuple[int, ...]] = []

    def place(start: int) -> None:
        if len(chosen) == need:
            if all(col_have[j] + counts[j] == kp for j in range(b)):
                solutions.append(tuple(chosen))
            return
        for t in range(start, len(cands)):
            if len(cands) - t < need - len(chosen):
                return
            w = cands[t]
            if any((w & c).bit_count() != lamp for c in chosen):
                continue
            ok = True
            m = w ^ last_bit
            touched = []
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if col_have[j] + counts[j] == kp:
                    ok = False
                    break
                counts[j] += 1
                touched.append(j)
                m ^= low
            if ok:
                chosen.append(w)
                place(t + 1)
                chosen.pop()
            for j in touched:
                counts[j] -= 1

    place(0)

    out = []
    seen = set()
    for sol in solutions:
        d = _assemble(old_rows, sol, b + 1, tag="symmetric completion")
        sp = verify_tdesign(d, 2)
        if sp is None or (sp.v, sp.k, sp.lam) != (vp, kp, lamp) or not sp.symmetric:
            raise InternalCheckFailed("assembled completion is not symmetric 2-(v', k', lam')")
        digest = canonical_cert(d).digest
        if digest in seen:
            continue
        seen.add(digest)
        out.append(d)
    return SymEmbedding(designs=tuple(out), weight_count=weight_count, target_params=target)
