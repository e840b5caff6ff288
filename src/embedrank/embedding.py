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
from collections import Counter
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
    _check_block_index,
    affine_family,
    good_block,
    make_resolution,
    residual,
    verify_tdesign,
)
from .errors import (
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
    _check_block_index(design, block_idx)
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


def parallel_union_codewords(code: LinearCode, resolution: Resolution, w: int):
    """Weight-w codewords whose support is a union of classes of `resolution`.

    The code is binary, and the resolution partitions its coordinates: a
    Resolution is a partition of 0..m-1 by construction, so only m must equal
    the code length (WrongParameters otherwise).
    These codewords are the subcode C ∩ V, V the span of the class
    indicators; _union_basis spans it, and only that subcode is walked:
    2^dim(C ∩ V) words, never more than the 2^dim(C) of the whole code.  The
    whole code's size is still compared with codes.DEFAULT_CAP, so
    CapExceeded is raised for the same codes as by a walk of the whole code.
    Returns the words as bitmasks, in the order the walk of the subcode
    lists them; w = 0 (the zero word) and w outside 1..length (no word) are
    answered without a walk.
    """
    if code.p != 2:
        raise WrongParameters("parallel-union codewords are implemented over GF(2)")
    _check_cap(code)
    m = sum(map(len, resolution.classes))
    if m != code.length:
        raise WrongParameters(f"the resolution partitions {m} coordinates, not the code's {code.length}")
    if w == 0:
        return [0]
    if not 0 < w <= code.length:
        return []
    masks = resolution.masks()
    sub = code_from_bitrows(_union_basis(code, masks), code.length)
    return _weight_words(sub.basis_bits, sub.length, w)


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


def _union_count(design: IncidenceStructure, required, block_idx: int | None = None) -> NecessaryCondition:
    """Weight-2q^(n-1) row-code words on unions of parallel classes, against `required(q, n)`.

    The code and resolution are the design's own or, given block_idx, those
    of that good block's substructure.  q must be a power of 2 and at least 4.
    """
    q, n, _, _, resolution = _binary_family(design)
    if q < 4:
        raise WrongParameters("the necessary condition needs q >= 4")
    structure = design
    if block_idx is not None:
        gb = good_block(design, block_idx)
        if gb is None:
            raise NotGoodBlock(f"block {block_idx} is not good")
        structure, resolution = gb.substructure, gb.resolution
    code = code_from_bitrows(structure.point_masks(), structure.b)
    need = required(q, n)
    found = len(parallel_union_codewords(code, resolution, 2 * q ** (n - 1)))
    return NecessaryCondition(need, found, found >= need)


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
    return _union_count(design, lambda q, n: comb(q ** (n - 1), 2), block_idx)


def thm_taf_necessary(design: IncidenceStructure) -> NecessaryCondition:
    """Necessary condition for embedding into a symmetric design.

    Counts weight-2q^(n-1) codewords of the design's own row code supported on
    unions of its parallel classes; an embedding forces at least
    C((q^n-1)/(q-1), 2) of them.  The count is over GF(2), so q must be a
    power of 2 and at least 4.
    """
    return _union_count(design, lambda q, n: comb((q**n - 1) // (q - 1), 2))


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
    q, n, _, params, _ = affine_family(design)
    if (q, n) != _SEARCH_SIZES:
        raise InfeasibleInstance(
            f"completion search is guarded to the (q, n) = {_SEARCH_SIZES} sizes, got ({q}, {n})"
        )
    dpp = gb.substructure
    res = gb.resolution
    if resolution is not None:
        # Raises unless it resolves the substructure; the caller's class
        # order stays, since candidate indices follow it.
        make_resolution(dpp, resolution.classes)
        res = resolution
    ncols = dpp.b + len(gb.parallel) + 1
    if ncols > 128:
        raise InternalCheckFailed(f"{ncols} columns exceed the search's 128")
    # The premise of the scan's class-count identity (see _scan).
    per_candidate = (params.r - 1) // res.class_size - 1
    if 1 + (per_candidate + 1) * res.class_size != params.r:
        raise InternalCheckFailed("a point's blocks off the good block are not a union of classes")
    par_blocks = [set(design.blocks[j]) for j in gb.parallel]
    # Substructure point i is the i-th point off the removed block.
    removed = set(design.blocks[block_idx])
    off = [x for x in range(design.v) if x not in removed]
    rows = [
        mask | sum(1 << (dpp.b + m) for m, blk in enumerate(par_blocks) if x in blk)
        for mask, x in zip(dpp.point_masks(), off, strict=True)
    ]
    room = _room(params.k, dpp.block_sizes() + [len(blk) for blk in par_blocks])
    if sum(room) != params.k * params.r:
        raise InternalCheckFailed("the residual's column room is not k new rows of weight r")
    rref, pivots = mat_rref(MatGFp.from_bitrows(rows, ncols))
    least_block = min(range(dpp.b), key=lambda j: dpp.blocks[j])
    fixed = next(c for c, cls in enumerate(res.classes) if least_block in cls)
    return _SearchContext(
        params=params, ncols=ncols, rows=rows, basis=rref.bits,
        class_masks=res.masks(), fixed=fixed, room=room,
        r=params.r, lam=params.lam, need=params.k, per_candidate=per_candidate,
    )


def _room(k: int, sizes: list[int]) -> list[int]:
    """The new rows each column still takes: k minus each block's size, then k.

    A column's sum over the old point rows is the size of the block it
    stands for, and no old row meets the last column.
    """
    return [k - size for size in sizes] + [k]


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
    """The structure whose point i lies in block j when bit j of row i is set.

    The rows are `old_rows` then `new_rows`; bits from `ncols` up are ignored.
    """
    all_rows = list(old_rows) + list(new_rows)
    blocks: list[list[int]] = [[] for _ in range(ncols)]
    for i, r in enumerate(all_rows):
        r &= (1 << ncols) - 1
        while r:
            low = r & -r
            blocks[low.bit_length() - 1].append(i)
            r ^= low
    return IncidenceStructure(len(all_rows), blocks, name=tag)


# Candidates per chunk of the scan; bounds the (candidates x words) uint8
# sums of `_hit_counts`.
_SCAN_CHUNK = 1024


class _ScanTable(NamedTuple):
    """The span words a candidate can turn into a new row, with their class counts.

    words   limb-major uint64 columns: the span words with no parallel
            column whose counts can reach `target`, in the order of the
            Gray walk of the whole span
    counts  uint8, counts[c, i] = |words[i] & class c|
    target  uint8, the sum of the counts of a candidate's non-fixed classes
            that makes words[i] XOR its row weigh r
    """

    words: np.ndarray
    counts: np.ndarray
    target: np.ndarray


def _popcount(cols: np.ndarray) -> np.ndarray:
    """Hamming weights of limb-major uint64 columns of at most 255 bits, as uint8."""
    return sum(np.bitwise_count(limb) for limb in cols)


def _scan_table(ctx: _SearchContext) -> _ScanTable:
    """The span words that meet no parallel column and can weigh r under some candidate.

    Only the parallel-free subcode is spanned: each basis row is reduced
    against the parallel columns (those with room 0), tagged with the basis
    rows XORed into it, and the rows whose parallel bits vanish span the
    subcode.  A word's tag holds the basis rows at the set bits of gray(i)
    for its position i in the Gray walk of the whole span, so the inverse
    Gray code of the tag is i, and the kept words are put in that order.
    A tag takes one 64-bit limb, so the basis may have at most 64 rows (the
    searched sizes have 15); more raise OverflowError.

    A word can weigh r when its target lies between 0 and the largest sum of
    `per_candidate` non-fixed class counts.  For counts 0 <= a_c <= m, that
    sum is the sum over v = 1..m of min(#{c : a_c >= v}, per_candidate),
    with m the largest class's column count.
    """
    n, k = ctx.ncols, len(ctx.basis)
    par = sum(1 << j for j, c in enumerate(ctx.room) if c == 0)
    # A basis row's parallel bits, then its tag, then the row: after the
    # RREF, the rows whose pivot lies past the parallel bits hold a basis of
    # the subcode, each word with its tag.
    tagged = [row & par | 1 << (n + j) | row << (n + k) for j, row in enumerate(ctx.basis)]
    rref, pivots = mat_rref(MatGFp.from_bitrows(tagged, 2 * n + k))
    free = [row >> n for row, piv in zip(rref.bits, pivots) if piv >= n]
    cols = _limbs([f >> k for f in free], n)
    span = _span_table(np.vstack((cols, _limbs([f & ((1 << k) - 1) for f in free], 64))))
    words, pos = span[: len(cols)], span[len(cols)]
    counts = np.empty((len(ctx.class_masks), words.shape[1]), dtype=np.int16)
    for c, mask in enumerate(_limbs(ctx.class_masks, ctx.ncols).T):
        counts[c] = _popcount(words & mask[:, None])
    weight = _popcount(words)
    target = weight // 2 - counts[ctx.fixed]
    others = np.delete(counts, ctx.fixed, axis=0)
    largest = max((m.bit_count() for m in ctx.class_masks), default=0)
    top = sum(np.minimum(np.count_nonzero(others >= v, axis=0), ctx.per_candidate) for v in range(1, largest + 1))
    ok = np.flatnonzero((weight % 2 == 0) & (target >= 0) & (target <= top))
    pos = pos[ok]
    for shift in (1, 2, 4, 8, 16, 32):
        pos ^= pos >> shift
    ok = ok[np.argsort(pos)]
    return _ScanTable(words[:, ok], counts[:, ok].astype(np.uint8), target[ok].astype(np.uint8))


def _hit_counts(table: _ScanTable, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hits of each candidate whose other classes are the rows of `idx`: their number, and the sums.

    A candidate's row of uint8 sums starts at 0 - target and adds the
    counts of its classes, so word i is a hit exactly when entry i is 0
    (see `_scan`).  The zeros are summed in int32, which numpy reduces
    faster than the intp of `np.count_nonzero`.
    """
    sums = np.zeros((len(idx), table.counts.shape[1]), dtype=np.uint8)
    sums -= table.target
    for col in idx.T:
        sums += np.take(table.counts, col, axis=0)
    return (sums == 0).sum(axis=1, dtype=np.int32), sums


def _hit_words(
    ctx: _SearchContext, table: _ScanTable, sums: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each hit's candidate and its word s ^ y, from the sums of the candidates whose other classes are `rows`.

    A candidate is a position in `rows`; the words are limb-major columns,
    candidate by candidate, each candidate's in Gray-walk order.
    """
    base = 1 << (ctx.ncols - 1) | ctx.class_masks[ctx.fixed]
    ys = _limbs([base | sum(ctx.class_masks[c] for c in row) for row in rows.tolist()], ctx.ncols)
    cand, pos = np.nonzero(sums == 0)
    return cand, table.words[:, pos] ^ ys[:, cand]


def _scan(ctx: _SearchContext, table: _ScanTable) -> tuple[int, list]:
    """The number of candidates, and the viable ones as (index, classes, solutions).

    Candidate y is the last coordinate plus the fixed class plus one
    combination of `per_candidate` other classes; it spans a code one
    dimension above the residual's, whose words with the last coordinate set
    are s ^ y for the residual's span words s.  No span word meets the last
    column and the classes are disjoint, so |s ^ y| = |s| + r - 2 * (sum over
    y's classes c of |s & c|): s ^ y weighs r, a hit, exactly when the counts
    of y's other classes on s sum to the table's target.  `_hit_counts`
    subtracts the target from that sum modulo 256, in uint8.  The classes
    are disjoint, so the sum is at most |s| < ncols <= 128 (the search
    refuses more columns), and so is the target: the difference is 0
    modulo 256 exactly at the hits.

    A candidate's hits that meet every old row in lambda are its rows for
    `_fill`; it is viable when `_fill` finds a completion among them.  The
    lambda test only removes hits, so a candidate with fewer than `need` hits
    cannot be viable: only the others have their hit words built and tested.
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
        counts, sums = _hit_counts(table, idx)
        counted = np.flatnonzero(counts >= ctx.need)
        if not len(counted):
            continue
        rows = idx[counted]
        cand, hits = _hit_words(ctx, table, sums[counted], rows)
        ok = np.ones(len(cand), dtype=bool)
        for row in row_cols.T:
            ok &= _popcount(hits & row[:, None]) == ctx.lam
        cand, hits = cand[ok], hits[:, ok]
        bounds = np.searchsorted(cand, np.arange(len(rows) + 1))
        for i in np.flatnonzero(np.diff(bounds) >= ctx.need):
            cands = _words(hits[:, bounds[i] : bounds[i + 1]])
            solutions = _fill(cands, ctx.need, ctx.lam, ctx.room)
            if solutions:
                found.append((first + int(counted[i]), (ctx.fixed, *map(int, rows[i])), solutions))
    return total, found


def _classify(old_rows: list[int], solutions, ncols: int, tag: str, check) -> dict[str, IncidenceStructure]:
    """Digest -> completion, one per isomorphism class, in order of first appearance.

    Each completion is `old_rows` plus one solution's rows, named `tag`;
    InternalCheckFailed unless `check(completion)` holds for every one.
    """
    out: dict[str, IncidenceStructure] = {}
    for sol in solutions:
        d = _assemble(old_rows, sol, ncols, tag)
        if not check(d):
            raise InternalCheckFailed(f"{tag} does not have the parameters the search completes to")
        out.setdefault(canonical_cert(d).digest, d)
    return out


def embedding_search(
    design: IncidenceStructure,
    block_idx: int,
    resolution: Resolution | None = None,
    workers: int = 1,
) -> EmbeddingSearchResult:
    """Reconstruct every affine resolvable design over a residual, with the parent's parameters.

    The residual structure at good block `block_idx` gets one row per
    residual point, over one column per substructure block, per block
    parallel to the removed one, and a zero column for the removed block.
    Each candidate new row (see `_scan`) whose weight-r words meeting every
    old row in lambda hold k rows with pairwise intersection lambda and
    every column sum k is viable, and each such choice completes the
    residual to a design with the parent's parameters.  A candidate's
    weight-r words are found by adding its classes' uint8 counts on each
    residual span word, with no walk of the candidate's own code.  A viable
    candidate's completions are deduplicated by canonical form, and all are
    classified into isomorphism classes across candidates.  Only the
    `_SEARCH_SIZES` instances are searched.

    `resolution` defaults to the one the good block induces.  One passed in
    must be a resolution of the good block's substructure (its blocks in
    GoodBlock.substructure order), else WrongParameters; its class order
    fixes the candidate indices.
    """
    _single_process(workers)
    ctx = _search_context(design, block_idx, resolution)
    examined, found = _scan(ctx, _scan_table(ctx))

    def check(d: IncidenceStructure) -> bool:
        params = verify_tdesign(d, 2)
        return params == ctx.params and _affine_resolution(d, params) is not None

    designs: list[IncidenceStructure] = []
    records: list[CandidateRecord] = []
    # Digest -> first design and design count, in order of first appearance.
    reps: dict[str, IncidenceStructure] = {}
    tally: Counter[str] = Counter()
    for idx, class_indices, solutions in found:
        cand = _classify(ctx.rows, solutions, ctx.ncols, f"completion {idx}", check)
        designs += cand.values()
        for digest, d in cand.items():
            reps.setdefault(digest, d)
            tally[digest] += 1
        records.append(CandidateRecord(idx, class_indices, len(ctx.basis) + 1, len(cand), tuple(cand)))
    return EmbeddingSearchResult(
        candidates_examined=examined,
        viable_codes=len(records),
        designs=tuple(designs),
        iso_classes=tuple((reps[dg], n) for dg, n in tally.items()),
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
    solutions = _fill(cands, vp - design.v, lamp, _room(kp, design.block_sizes()))

    def check(d: IncidenceStructure) -> bool:
        sp = verify_tdesign(d, 2)
        return sp is not None and (sp.v, sp.k, sp.lam) == target and sp.symmetric

    out = _classify(old_rows, solutions, b + 1, "symmetric completion", check)
    return SymEmbedding(designs=tuple(out.values()), weight_count=weight_count, target_params=target)
