"""Linear embeddability of residual designs and completion searches.

A 2-design is linearly embeddable over GF(p) with respect to a block when the
p-rank of its incidence matrix exceeds the residual's p-rank by exactly one.
This module bundles the rank test, the minimum-weight sufficient condition,
two necessary conditions counting parallel-class-union codewords, a completion
search that reconstructs the affine resolvable 2-(64,16,5) designs containing
a given residual structure whose 2-rank is the residual's plus one and that
induce a given resolution on its substructure D'' (one search per
Aut(D'')-orbit of the resolutions of D'' covers the rest), and the analogous
symmetric completion that embeds an affine resolvable design into a
symmetric one by adding one point class.
The rank test works over any GF(p); the necessary conditions, the searches and
the symmetric completion work over GF(2), for designs whose q is a power of 2.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .codes import (
    LinearCode,
    _check_cap,
    _limbs,
    _single_process,
    _span_table,
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


def _kernel(pairs, n: int) -> list[int]:
    """A basis of the payloads of the combinations of `pairs` whose images XOR to 0.

    Images and payloads lie below bit n, and each pair is the row
    image | payload << n.  After one RREF the rows whose pivot lies past bit
    n have image 0, and their payloads form that basis.
    """
    rows = [image | payload << n for image, payload in pairs]
    rref, pivots = mat_rref(MatGFp.from_bitrows(rows, 2 * n))
    return [row >> n for row, piv in zip(rref.bits, pivots) if piv >= n]


def parallel_union_codewords(code: LinearCode, resolution: Resolution, w: int):
    """Weight-w codewords whose support is a union of classes of `resolution`.

    The code is binary, and the resolution partitions its coordinates: a
    Resolution is a partition of 0..m-1 by construction, so only m must equal
    the code length (WrongParameters otherwise).
    These codewords are the subcode C ∩ V, V the span of the class
    indicators.  A union of classes lies in C exactly when the residues of
    its classes against the RREF basis XOR to 0, so `_kernel` gives a basis
    of C ∩ V, re-RREFed into the subcode's canonical basis, and
    codewords_of_weight walks only that subcode: 2^dim(C ∩ V) words, never
    more than the 2^dim(C) of the whole code.  The whole code's size is
    still compared with codes.DEFAULT_CAP, so CapExceeded is raised for the
    same codes as by a walk of the whole code.  Returns the words as
    bitmasks, in the subcode's walk order; w = 0 and w outside 1..length
    need no walk.
    """
    if code.p != 2:
        raise WrongParameters("parallel-union codewords are implemented over GF(2)")
    _check_cap(code)
    m = sum(map(len, resolution.classes))
    if m != code.length:
        raise WrongParameters(f"the resolution partitions {m} coordinates, not the code's {code.length}")
    unions = _kernel([(code._residue(m), m) for m in resolution.masks()], code.length)
    return codewords_of_weight(code_from_bitrows(unions, code.length), w)


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
    class unions, spanned by one kernel RREF of the class residues (2^15
    words instead of 2^24 on AG_3(4,4)), while the cap still bounds the
    whole code.  For another resolution of the substructure, call
    parallel_union_codewords directly.
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
    """What the completion search found.

    candidates_examined the candidate new rows the scan tried
    viable_codes        the candidates with a completion, len(records)
    designs             each viable candidate's completions, one per class
    iso_classes         (canonical digest, first design, count in `designs`)
                        per class, in order of first appearance
    records             one CandidateRecord per viable candidate
    """

    candidates_examined: int
    viable_codes: int
    designs: tuple[IncidenceStructure, ...]
    iso_classes: tuple[tuple[str, IncidenceStructure, int], ...]
    records: tuple[CandidateRecord, ...]


class _SearchContext(NamedTuple):
    """The residual matrix under one resolution, and the numbers the search derives from the parent.

    substructure  the good block's substructure, its block masks cached
    rows          residual point rows over substructure, parallel and removed columns
    basis         their RREF basis
    free          a basis of the span words of `basis` that meet no parallel column
    class_masks   the resolution's classes over the substructure columns
    fixed         the class every candidate covers: the one with `least_block`
    least_block   the substructure's least block
    room          per column, the parent's k minus the column sum of `rows`
    r, lam        a new row's weight and its intersection with every other row
    need          new rows to add: the parent's k, the points of the good block
    per_candidate parallel classes a candidate's support covers beside `fixed`

    `_residual` caches one per (design, block), under the resolution the good
    block induces; a caller's resolution replaces only `class_masks` and
    `fixed` (see `_search_context`).
    """

    params: DesignParams
    substructure: IncidenceStructure
    ncols: int
    rows: tuple[int, ...]
    basis: tuple[int, ...]
    free: tuple[int, ...]
    class_masks: tuple[int, ...]
    fixed: int
    least_block: int
    room: tuple[int, ...]
    r: int
    lam: int
    need: int
    per_candidate: int


@lru_cache(maxsize=128)
def _residual(design: IncidenceStructure, block_idx: int) -> _SearchContext:
    """The search context at good block `block_idx`, under the resolution that block induces.

    Cached per (design, block), like `affine_family`, so the searches of one
    residual under each resolution of its substructure build it once.  Only
    ints, tuples and the substructure are kept, and nothing that depends on
    a design's name, since equal designs share a record.  Raises NotGoodBlock,
    InfeasibleInstance outside `_SEARCH_SIZES`, and InternalCheckFailed past
    128 columns, when the room is not k new rows of weight r, or when a
    point's blocks off the good block are not a union of classes.  The
    substructure's blocks all have k - mu points, so every resolution
    `make_resolution` accepts has classes of the induced size, and that last
    premise holds for all of them or for none.  An exception is not cached,
    so every such call raises again.
    """
    gb = good_block(design, block_idx)
    if gb is None:
        raise NotGoodBlock(f"block {block_idx} is not good")
    q, n, _, params, _ = affine_family(design)
    if (q, n) != _SEARCH_SIZES:
        raise InfeasibleInstance(
            f"completion search is guarded to the (q, n) = {_SEARCH_SIZES} sizes, got ({q}, {n})"
        )
    dpp = gb.substructure
    ncols = dpp.b + len(gb.parallel) + 1
    if ncols > 128:
        raise InternalCheckFailed(f"{ncols} columns exceed the search's 128")
    # Each point's parallel-column bits.
    par_bits = [0] * design.v
    for m, j in enumerate(gb.parallel):
        for x in design.blocks[j]:
            par_bits[x] |= 1 << (dpp.b + m)
    # Substructure point i is the i-th point off the removed block.
    removed = set(design.blocks[block_idx])
    off = [x for x in range(design.v) if x not in removed]
    rows = [mask | par_bits[x] for mask, x in zip(dpp.point_masks(), off, strict=True)]
    room = _room(params.k, dpp.block_sizes() + [len(design.blocks[j]) for j in gb.parallel])
    if sum(room) != params.k * params.r:
        raise InternalCheckFailed("the residual's column room is not k new rows of weight r")
    res = gb.resolution
    # The premise of the scan's class-count identity (see _scan).
    per_candidate = (params.r - 1) // res.class_size - 1
    if 1 + (per_candidate + 1) * res.class_size != params.r:
        raise InternalCheckFailed("a point's blocks off the good block are not a union of classes")
    rref, _ = mat_rref(MatGFp.from_bitrows(rows, ncols))
    least = min(range(dpp.b), key=lambda j: dpp.blocks[j])
    fixed = next(c for c, cls in enumerate(res.classes) if least in cls)
    return _SearchContext(
        params=params, substructure=dpp, ncols=ncols, rows=tuple(rows), basis=tuple(rref.bits),
        free=tuple(_parallel_free(rref.bits, room, ncols)), class_masks=tuple(res.masks()),
        fixed=fixed, least_block=least, room=tuple(room),
        r=params.r, lam=params.lam, need=params.k, per_candidate=per_candidate,
    )


def _parallel_free(basis, room, n: int) -> list[int]:
    """A basis of the span words of `basis` that meet no parallel column, a column with room 0.

    `_kernel` gives the combinations of basis rows whose bits on the
    parallel columns XOR to 0.
    """
    par = sum(1 << j for j, c in enumerate(room) if c == 0)
    return _kernel([(row & par, row) for row in basis], n)


def _search_context(
    design: IncidenceStructure, block_idx: int, resolution: Resolution | None
) -> _SearchContext:
    """The search's context under `resolution`: the cached `_residual`, its classes replaced by a caller's."""
    ctx = _residual(design, block_idx)
    if resolution is None:
        return ctx
    # Raises unless it resolves the substructure; the caller's class
    # order stays, since candidate indices follow it.
    make_resolution(ctx.substructure, resolution.classes)
    fixed = next(c for c, cls in enumerate(resolution.classes) if ctx.least_block in cls)
    return ctx._replace(class_masks=tuple(resolution.masks()), fixed=fixed)


def _room(k: int, sizes: list[int]) -> list[int]:
    """The new rows each column still takes: k minus each block's size, then k.

    A column's sum over the old point rows is the size of the block it
    stands for, and no old row meets the last column.
    """
    return [k - size for size in sizes] + [k]


def _fill(words: list[int], old_rows: list[int], need: int, lam: int, room: list[int]) -> list[tuple[int, ...]]:
    """Every `need`-subset of `words` that fills `room`, its rows meeting every row, old and new, in `lam`.

    The words meeting some old row in another number are dropped first.  A
    chosen row takes one unit of room in each column of its support; a
    choice is kept when it uses up every column's room exactly.  Choices come
    out in word order.
    """
    cands = [w for w in words if all((w & r).bit_count() == lam for r in old_rows)]
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
# sums `_hit_counts` writes, which `_scan` allocates once.
_SCAN_CHUNK = 1024


class _ScanTable(NamedTuple):
    """The span words a candidate can turn into a new row, with their class counts.

    words   limb-major uint64 columns: the span words with no parallel
            column whose counts can reach `target`, in no order the
            search relies on: a candidate's hits are the same set in any
            order, and only which completion represents a class may change
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

    Only the parallel-free subcode is spanned: the table lists the span of
    the context's `free` basis (see `_parallel_free`).

    A word can weigh r when its weight is even and its target lies between 0
    and the largest sum of `per_candidate` non-fixed class counts.  Only a
    word's weight and fixed-class count are taken first, and the words with
    odd weight, a negative target or a target above `per_candidate` times m,
    the largest class's column count, are dropped; the survivors then have
    every class counted in one call.  For counts 0 <= a_c <= m the largest
    sum is the sum over v = 1..m of min(#{c : a_c >= v}, per_candidate),
    at most per_candidate * m, so the first filter drops no word the second
    keeps.
    """
    n = ctx.ncols
    words = _span_table(_limbs(ctx.free, n))
    class_limbs = _limbs(ctx.class_masks, n).T
    largest = max((m.bit_count() for m in ctx.class_masks), default=0)
    weight = _popcount(words)
    target = (weight // 2).astype(np.int16) - _popcount(words & class_limbs[ctx.fixed, :, None])
    ok = np.flatnonzero((weight % 2 == 0) & (target >= 0) & (target <= ctx.per_candidate * largest))
    words, target = words[:, ok], target[ok]
    counts = np.bitwise_count(words[None] & class_limbs[:, :, None]).sum(axis=1, dtype=np.int16)
    others = np.delete(counts, ctx.fixed, axis=0)
    top = sum(np.minimum(np.count_nonzero(others >= v, axis=0), ctx.per_candidate) for v in range(1, largest + 1))
    ok = np.flatnonzero(target <= top)
    return _ScanTable(words[:, ok], counts[:, ok].astype(np.uint8), target[ok].astype(np.uint8))


def _half_sums(table: _ScanTable, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each half row's uint8 count sums: `low`, over the left rows less the target, and `high`, over the right rows.

    low[p] is the sum over the classes c of left[p] of counts[c], minus the
    target, and high[q] the sum over those of right[q], both modulo 256, one
    entry per table word; a candidate of left row p and right row q then sums
    to low[p] + high[q] (see `_hit_counts`).  Halves of one size are one
    table, whose sums are taken once.  The two arrays hold C(m, k // 2) + C(m,
    k - k // 2) rows of one byte per word, for k classes a candidate chooses
    among m: 45 or 70 KB at AG_2(3,4) block 0 (C(19, 2) rows each, of 131 or
    203 words), and 50 MB at AG_4(5,2) (C(29, 7) rows each, of 16 words).
    """

    def sums(rows: np.ndarray) -> np.ndarray:
        out = np.zeros((len(rows), table.counts.shape[1]), dtype=np.uint8)
        for col in rows.T:
            out += np.take(table.counts, col, axis=0)
        return out

    high = sums(right)
    low = (high if left.shape == right.shape else sums(left)) - table.target
    return low, high


def _hit_counts(low: np.ndarray, high: np.ndarray, li: np.ndarray, ri: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The number of hits of each candidate, its halves left row li[i] and right row ri[i]; `out` gets the sums.

    Row i of `out` is low[li[i]] + high[ri[i]] in uint8: the counts of the
    candidate's classes summed, less the target, modulo 256, so word j is a
    hit exactly when entry j is 0 (see `_scan`).  One take and one add per
    candidate, whatever its number of classes.  The zeros are summed in int32,
    which numpy reduces faster than the intp of `np.count_nonzero`.
    """
    np.take(low, li, axis=0, out=out)
    out += np.take(high, ri, axis=0)
    return (out == 0).sum(axis=1, dtype=np.int32)


def _combination_rows(
    items: list[int], k: int
) -> tuple[int, np.ndarray, np.ndarray, Callable[[int, int], tuple[np.ndarray, np.ndarray]]]:
    """The k-subsets of `items` as pairs of half rows: their number, the `left` and `right` tables, and `rows`.

    Ranks follow `itertools.combinations(items, k)`.  A subset is a left row,
    its first k // 2 items, then a right row, the others.  `left` and `right`
    are int8 tables of all subsets of their size, one per row, built once in
    the same order, so halves of one size give equal tables.  `rows(first,
    n)` gives the left and the right row indices of the subsets of ranks
    first .. first + n - 1.  The subsets with one left row, whose last item is
    at position x, are consecutive, and their right rows are the subsets of
    the items past x: the last C(m - 1 - x, k - k // 2) rows of the right
    table, in order.  So a rank's left row is the first whose cumulative block
    size exceeds it, and its right row lies as far before the right table's
    end as the rank lies before that block's end.
    """
    m, a = len(items), k // 2

    def subsets(size: int) -> np.ndarray:
        n = comb(m, size)
        flat = itertools.chain.from_iterable(itertools.combinations(range(m), size))
        return np.fromiter(flat, dtype=np.int8, count=n * size).reshape(n, size)

    left = subsets(a)
    right = left if k - a == a else subsets(k - a)
    last = left[:, -1].astype(np.intp) if a else np.full(len(left), -1)
    tail = np.array([comb(m - 1 - x, k - a) for x in range(-1, m)], dtype=np.int64)
    sizes = tail[last + 1]
    ends = np.cumsum(sizes)
    shift = len(right) - ends
    values = np.array(items, dtype=np.int8)

    def rows(first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        ranks = np.arange(first, first + n)
        li = np.searchsorted(ends, ranks, side="right")
        return li, ranks + shift[li]

    return int(sizes.sum()), values[left], values[right], rows


def _scan(ctx: _SearchContext, table: _ScanTable) -> tuple[int, list]:
    """The number of candidates, and the viable ones as (index, classes, solutions).

    Candidate y is the last coordinate plus the fixed class plus one
    combination of `per_candidate` other classes; it spans a code one
    dimension above the residual's, whose words with the last coordinate set
    are s ^ y for the residual's span words s.  No span word meets the last
    column and the classes are disjoint, so |s ^ y| = |s| + r - 2 * (sum over
    y's classes c of |s & c|): s ^ y weighs r, a hit, exactly when the counts
    of y's other classes on s sum to the table's target.  `_hit_counts`
    takes that sum less the target modulo 256, in uint8.  The classes
    are disjoint, so the sum is at most |s| < ncols <= 128 (the search
    refuses more columns), and so is the target: the difference is 0
    modulo 256 exactly at the hits, however the sum is split into halves.

    Candidates come in `_SCAN_CHUNK` windows of `_combination_rows`, in the
    order of `itertools.combinations` over the non-fixed classes; each is
    the sum of one row of each `_half_sums` table, built once per scan.  A
    candidate's hits, as Python ints in table order, are its words for
    `_fill`, which keeps those meeting every old row in lambda; it is viable
    when `_fill` finds a completion among them.  The lambda test only
    removes hits, so a candidate with fewer than `need` hits cannot be
    viable: only the others have their classes and hits built.
    """
    rest = [c for c in range(len(ctx.class_masks)) if c != ctx.fixed]
    total, left, right, rows = _combination_rows(rest, ctx.per_candidate)
    low, high = _half_sums(table, left, right)
    sums = np.empty((min(_SCAN_CHUNK, total), low.shape[1]), dtype=np.uint8)
    found = []
    for first in range(0, total, _SCAN_CHUNK):
        li, ri = rows(first, min(_SCAN_CHUNK, total - first))
        counts = _hit_counts(low, high, li, ri, sums[: len(li)])
        for i in np.flatnonzero(counts >= ctx.need):
            classes = (ctx.fixed, *left[li[i]].tolist(), *right[ri[i]].tolist())
            y = 1 << (ctx.ncols - 1) | sum(ctx.class_masks[c] for c in classes)
            hits = [s ^ y for s in _words(table.words[:, sums[i] == 0])]
            solutions = _fill(hits, ctx.rows, ctx.need, ctx.lam, ctx.room)
            if solutions:
                found.append((first + int(i), classes, solutions))
    return total, found


def _completions(old_rows: list[int], solutions, ncols: int, tag: str, check) -> dict[frozenset, IncidenceStructure]:
    """New row set -> completion, the first assembled for each, in order of first appearance.

    Each completion is `old_rows` plus one solution's rows, named `tag`;
    InternalCheckFailed unless `check(completion)` holds for every one.
    """
    out: dict[frozenset, IncidenceStructure] = {}
    for sol in solutions:
        d = _assemble(old_rows, sol, ncols, tag)
        if not check(d):
            raise InternalCheckFailed(f"{tag} does not have the parameters the search completes to")
        out.setdefault(frozenset(sol), d)
    return out


def _classes(completions: dict, labels: dict[frozenset, str]) -> dict[str, IncidenceStructure]:
    """Digest -> completion, the first of each isomorphism class in a `_completions` map.

    A row set missing from `labels` is labeled and added: over the same old
    rows, equal row sets give the same design up to the new points' order.
    """
    out: dict[str, IncidenceStructure] = {}
    for rows, d in completions.items():
        if rows not in labels:
            labels[rows] = canonical_cert(d).digest
        out.setdefault(labels[rows], d)
    return out


def embedding_search(
    design: IncidenceStructure,
    block_idx: int,
    resolution: Resolution | None = None,
    workers: int = 1,
) -> EmbeddingSearchResult:
    """Reconstruct affine resolvable designs over a residual, with the parent's parameters.

    The search finds the completions whose 2-rank is the residual's plus
    one and that induce `resolution` on the substructure D''.  It is not
    complete over the other resolutions of D'': at AG_2(3,4) block 0 the
    default search returns 4 of the 8 distinct completions.  One search per
    Aut(D'')-orbit of the resolutions of D'' covers the rest.

    The residual structure at good block `block_idx` gets one row per
    residual point, over one column per substructure block, per block
    parallel to the removed one, and a zero column for the removed block.
    Each candidate new row (see `_scan`) whose weight-r words meeting every
    old row in lambda hold k rows with pairwise intersection lambda and
    every column sum k is viable, and each such choice completes the
    residual to a design with the parent's parameters.  A candidate's
    weight-r words are found by adding its classes' uint8 counts on each
    residual span word, with no walk of the candidate's own code.  Every
    completion is checked, and each distinct set of new rows labeled once;
    the digests deduplicate a candidate's completions and class all of them
    across candidates.  Only the `_SEARCH_SIZES` instances are searched.

    `resolution` defaults to the one the good block induces.  One passed in
    must be a resolution of the good block's substructure (its blocks in
    GoodBlock.substructure order): BadIndex for a block index past the
    substructure's, else WrongParameters unless its classes are parallel
    classes partitioning the substructure's blocks.  Its class order fixes
    the candidate indices.
    """
    _single_process(workers)
    ctx = _search_context(design, block_idx, resolution)
    examined, found = _scan(ctx, _scan_table(ctx))

    def check(d: IncidenceStructure) -> bool:
        params = verify_tdesign(d, 2)
        return params == ctx.params and _affine_resolution(d, params) is not None

    designs: list[IncidenceStructure] = []
    records: list[CandidateRecord] = []
    classes: dict[str, list] = {}  # digest -> [first design, count]
    labels: dict[frozenset, str] = {}
    for idx, class_indices, solutions in found:
        cand = _classes(_completions(ctx.rows, solutions, ctx.ncols, f"completion {idx}", check), labels)
        designs += cand.values()
        for digest, d in cand.items():
            classes.setdefault(digest, [d, 0])[1] += 1
        records.append(CandidateRecord(idx, class_indices, len(ctx.basis) + 1, len(cand), tuple(cand)))
    return EmbeddingSearchResult(
        candidates_examined=examined,
        viable_codes=len(records),
        designs=tuple(designs),
        iso_classes=tuple((dg, rep, n) for dg, (rep, n) in classes.items()),
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
    One completion per isomorphism class is kept, labeled only when there
    are two to tell apart.  Works over GF(2), so the design's q must be a
    power of 2.
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
    cands = [w for w in words if w >> b & 1]
    solutions = _fill(cands, old_rows, vp - design.v, lamp, _room(kp, design.block_sizes()))

    def check(d: IncidenceStructure) -> bool:
        sp = verify_tdesign(d, 2)
        return sp is not None and (sp.v, sp.k, sp.lam) == target and sp.symmetric

    out = _completions(old_rows, solutions, b + 1, "symmetric completion", check)
    designs = tuple((_classes(out, {}) if len(out) > 1 else out).values())
    return SymEmbedding(designs=designs, weight_count=weight_count, target_params=target)
