"""Incidence structures and block-design predicates.

An IncidenceStructure is a finite point set 0..v-1 plus an ordered list of
blocks (point subsets, stored as ascending tuples).  Block order is load-bearing
everywhere: residual/derived constructions, resolutions and the embedding
search all index into it, and serialization preserves it.

The file format `.des` is line-oriented: line 1 is "v b", then one line per
block with space-separated 0-based point indices.  The JSON form is
{"v": ..., "blocks": [[...], ...], "name": ...}.  Both round-trip exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import (
    BadIndex,
    CapExceeded,
    NonUniformBlockSize,
    WrongParameters,
)
from .linalg import MatGFp


class IncidenceStructure:
    """Points 0..v-1 and an ordered tuple of blocks (ascending point tuples).

    A structure cut out of another (residual, derived, a good block's cut
    design and substructure) numbers its points in the parent's order: point
    i is the i-th parent point kept.
    """

    __slots__ = ("v", "blocks", "name", "_block_masks", "_point_masks")

    def __init__(self, v, blocks, name=None):
        self.v = int(v)
        blks = []
        for blk in blocks:
            t = tuple(sorted(map(int, blk)))
            if t and (t[0] < 0 or t[-1] >= self.v):
                x = next(x for x in t if not 0 <= x < self.v)
                raise BadIndex(f"point {x} outside 0..{self.v - 1}")
            if len(set(t)) != len(t):
                raise BadIndex("repeated point inside a block")
            blks.append(t)
        self.blocks = tuple(blks)
        self.name = name
        self._block_masks = None
        self._point_masks = None

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> list[int]:
        return [len(blk) for blk in self.blocks]

    def uniform_k(self) -> int:
        sizes = set(self.block_sizes())
        if len(sizes) != 1:
            raise NonUniformBlockSize(f"block sizes {sorted(sizes)}")
        return sizes.pop()

    def block_masks(self) -> list[int]:
        """Each block as a point bitmask."""
        if self._block_masks is None:
            self._block_masks = [sum(1 << x for x in blk) for blk in self.blocks]
        return self._block_masks

    def point_masks(self) -> list[int]:
        """Each point as a block bitmask (bit j set iff point in block j)."""
        if self._point_masks is None:
            masks = [0] * self.v
            for j, blk in enumerate(self.blocks):
                bit = 1 << j
                for x in blk:
                    masks[x] |= bit
            self._point_masks = masks
        return self._point_masks

    def incidence_matrix(self, p: int = 2) -> MatGFp:
        """v x b matrix over GF(p), rows indexed by points."""
        if p == 2:
            return MatGFp(self.v, self.b, 2, bits=list(self.point_masks()))
        rows = [[0] * self.b for _ in range(self.v)]
        for j, blk in enumerate(self.blocks):
            for x in blk:
                rows[x][j] = 1
        return MatGFp.from_rows(rows, self.b, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncidenceStructure):
            return NotImplemented
        return self.v == other.v and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.v, self.blocks))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"IncidenceStructure(v={self.v}, b={self.b}{tag})"


@dataclass(frozen=True)
class DesignParams:
    """Parameters of a verified t-(v, k, lambda) design."""

    t: int
    v: int
    k: int
    lam: int
    b: int
    r: int
    lambdas: tuple[int, ...]
    symmetric: bool
    fisher_ok: bool | None


@dataclass(frozen=True)
class Resolution:
    """A partition of the block indices 0..m-1 into parallel classes.

    Each class is a tuple of block indices; every index 0..m-1 lies in
    exactly one class, which the constructor checks (WrongParameters
    otherwise), so a Resolution is a partition by construction.  That its
    classes are parallel classes of a design is make_resolution's check.
    class_size is blocks per class.
    """

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        indices = sorted(j for cls in self.classes for j in cls)
        if indices != list(range(len(indices))):
            raise WrongParameters("the classes do not partition the indices 0..m-1")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def class_size(self) -> int:
        return len(self.classes[0]) if self.classes else 0

    def as_sets(self) -> frozenset:
        return frozenset(frozenset(c) for c in self.classes)

    def masks(self) -> list[int]:
        """Each class as a bitmask of its indices."""
        return [sum(1 << j for j in cls) for cls in self.classes]


def make_resolution(design: IncidenceStructure, classes) -> Resolution:
    """Validate and normalize a candidate resolution of `design`.

    BadIndex for a block index outside the design; WrongParameters unless the
    classes partition the block list (the Resolution's own check) and each is
    a parallel class: pairwise disjoint blocks covering every point.  Classes
    come back ascending, each sorted.
    """
    norm = tuple(sorted(tuple(sorted(int(j) for j in cls)) for cls in classes))
    for cls in norm:
        for j in cls:
            _check_block_index(design, j)
    if sum(map(len, norm)) != design.b:
        raise WrongParameters("classes do not partition the block list")
    resolution = Resolution(classes=norm)
    full = (1 << design.v) - 1
    masks = design.block_masks()
    for cls in norm:
        cover = 0
        for j in cls:
            if cover & masks[j]:
                raise WrongParameters(f"class {cls} is not a parallel class")
            cover |= masks[j]
        if cover != full:
            raise WrongParameters(f"class {cls} does not cover the point set")
    return resolution


def verify_tdesign(design: IncidenceStructure, t: int):
    """Return DesignParams if `design` is a t-design (uniform k), else None."""
    if t < 0:
        raise WrongParameters("t must be >= 0")
    v = design.v
    if v == 0 or design.b == 0:
        return None
    sizes = set(design.block_sizes())
    if len(sizes) != 1:
        return None
    k = sizes.pop()
    if t > k:
        return None
    pmasks = design.point_masks()
    if t == 0:
        lam = design.b
    else:
        lam = None
        for subset in combinations(range(v), t):
            m = pmasks[subset[0]]
            for x in subset[1:]:
                m &= pmasks[x]
            c = m.bit_count()
            if lam is None:
                lam = c
            elif c != lam:
                return None
        assert lam is not None
    lambdas = []
    for s in range(t + 1):
        num = lam * comb(v - s, t - s)
        den = comb(k - s, t - s)
        if den == 0 or num % den:
            return None
        lambdas.append(num // den)
    b = lambdas[0]
    r = lambdas[1] if t >= 1 else b
    if b != design.b:
        return None
    fisher = (b >= v) if (t >= 2 and 0 < k < v) else None
    return DesignParams(
        t=t, v=v, k=k, lam=lam, b=b, r=r,
        lambdas=tuple(lambdas), symmetric=(b == v), fisher_ok=fisher,
    )


def _check_block_index(design: IncidenceStructure, idx: int) -> None:
    if not design.b:
        raise BadIndex(f"block index {idx}: the design has no blocks")
    if not 0 <= idx < design.b:
        raise BadIndex(f"block index {idx} outside 0..{design.b - 1}")


def _restrict(design: IncidenceStructure, block_idx: int, inside: bool, keep_empty: bool) -> IncidenceStructure:
    """The points on (inside) or off the chosen block; every other block cut down to them.

    Block order is preserved.  Cuts that are empty are dropped unless
    keep_empty is set, which keeps block j of the parent at position
    j - (j > block_idx).
    """
    _check_block_index(design, block_idx)
    base = set(design.blocks[block_idx])
    new_points = [x for x in range(design.v) if (x in base) == inside]
    index = {x: i for i, x in enumerate(new_points)}
    blocks = []
    for j, blk in enumerate(design.blocks):
        if j == block_idx:
            continue
        cut = tuple(index[x] for x in blk if x in index)
        if cut or keep_empty:
            blocks.append(cut)
    return IncidenceStructure(
        len(new_points), blocks,
        name=f"{design.name or 'design'} {'derived' if inside else 'residual'} @{block_idx}",
    )


def residual(design: IncidenceStructure, block_idx: int, keep_empty: bool = False) -> IncidenceStructure:
    """Points off the chosen block; every other block cut down to them.

    Empty cuts are dropped unless keep_empty is set (then they stay as empty
    blocks so the column count matches the parent design minus one).
    """
    return _restrict(design, block_idx, False, keep_empty)


def derived(design: IncidenceStructure, block_idx: int, keep_empty: bool = False) -> IncidenceStructure:
    """Points of the chosen block; every other block intersected with it."""
    return _restrict(design, block_idx, True, keep_empty)


def is_affine_resolvable(design: IncidenceStructure):
    """Return (q, mu, Resolution) if the design is affine resolvable, else None.

    Checks the standard criterion: a resolvable 2-design where two
    non-parallel blocks always meet in mu = k^2/v points, with b = v + r - 1
    and parallelism (= disjointness) an equivalence with classes of size v/k.
    """
    return _affine_resolution(design, verify_tdesign(design, 2))


def _affine_resolution(design: IncidenceStructure, params: DesignParams | None):
    """is_affine_resolvable, given the design's 2-design parameters (None: not a 2-design)."""
    if params is None:
        return None
    v, k = params.v, params.k
    if k == 0 or v % k:
        return None
    q = v // k
    if (k * k) % v:
        return None
    mu = (k * k) // v
    if params.b != v + params.r - 1:
        return None
    masks = design.block_masks()
    full = (1 << v) - 1
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            c = (masks[i] & masks[j]).bit_count()
            if c != 0 and c != mu:
                return None
    assigned = [False] * design.b
    classes = []
    for i in range(design.b):
        if assigned[i]:
            continue
        cls = [i]
        cover = masks[i]
        for j in range(i + 1, design.b):
            if not assigned[j] and not masks[j] & masks[i]:
                if cover & masks[j]:
                    return None
                cls.append(j)
                cover |= masks[j]
        if len(cls) != q or cover != full:
            return None
        for j in cls:
            assigned[j] = True
        classes.append(tuple(cls))
    return q, mu, Resolution(classes=tuple(sorted(classes)))


def _exact_covers(masks: list[int], width: int, limit: int | None = None) -> list[tuple[int, ...]]:
    """Every set of masks that partitions the bits 0..width-1, as index tuples.

    Backtracks on the lowest uncovered bit, trying the masks that hold it in
    index order, so each partition comes out once, its indices in the order
    chosen.  Raises CapExceeded once more than `limit` have been found.
    """
    holding: list[list[int]] = [[] for _ in range(width)]
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            holding[low.bit_length() - 1].append(i)
            mask ^= low
    full = (1 << width) - 1
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(cover: int) -> None:
        if cover == full:
            out.append(tuple(chosen))
            if limit is not None and len(out) > limit:
                raise CapExceeded(f"more than {limit} exact covers")
            return
        free = ~cover & full
        for i in holding[(free & -free).bit_length() - 1]:
            if not masks[i] & cover:
                chosen.append(i)
                rec(cover | masks[i])
                chosen.pop()

    rec(0)
    return out


def parallel_classes(design: IncidenceStructure) -> list[tuple[int, ...]]:
    """All block sets that partition the points, in lexicographic order.

    The exact covers of the points by blocks.  Empty blocks raise
    WrongParameters.
    """
    k = design.uniform_k()
    if not k:
        raise WrongParameters("the blocks are empty, so no set of them partitions the points")
    if design.v % k:
        return []
    return sorted(tuple(sorted(cover)) for cover in _exact_covers(design.block_masks(), design.v))


def resolutions(design: IncidenceStructure, limit: int | None = None) -> list[Resolution]:
    """All resolutions (partitions of the block list into parallel classes).

    The exact covers of the block indices by parallel classes.  Each class
    chosen holds the lowest block not yet covered, so a resolution's classes
    come out ascending, and the resolutions in lexicographic order.  Raises
    CapExceeded once more than `limit` resolutions have been found.
    """
    classes = parallel_classes(design)
    masks = [sum(1 << j for j in cls) for cls in classes]
    covers = _exact_covers(masks, design.b, limit)
    return [Resolution(classes=tuple(classes[ci] for ci in cover)) for cover in covers]


class AffineFamily(NamedTuple):
    """Facts of an affine resolvable 2-(q^n, q^(n-1), (q^(n-1)-1)/(q-1)) design."""

    q: int
    n: int
    mu: int
    params: DesignParams
    resolution: Resolution


@lru_cache(maxsize=128)
def affine_family(design: IncidenceStructure) -> AffineFamily:
    """The design's (q, n, mu, params, resolution); WrongParameters outside the family.

    The one cached record of a design's facts, keyed on its points and
    blocks, so equal designs share one computation and one pair walk.
    """
    params = verify_tdesign(design, 2)
    aff = _affine_resolution(design, params)
    if aff is None:
        raise WrongParameters("not an affine resolvable 2-design")
    q, mu, resolution = aff
    n, m = 0, 1
    while m < params.v:
        m *= q
        n += 1
    if m != params.v or params.lam * (q - 1) != params.k - 1:
        raise WrongParameters("parameters are not 2-(q^n, q^(n-1), (q^(n-1)-1)/(q-1))")
    return AffineFamily(q, n, mu, params, resolution)


@dataclass(frozen=True)
class GoodBlock:
    """Witness that a block is good: the intersection design and what it induces.

    s            the simple design cut out on the block by the others
    resolution   parallel classes of `substructure`, one per block of s
    substructure the blocks that meet the block, cut down to the v - k points
                 off it (point i is the i-th such parent point)
    parallel     indices (in the parent) of the blocks disjoint from the block

    The design's q, n and mu are in its `affine_family` record.
    """

    s: IncidenceStructure
    resolution: Resolution
    substructure: IncidenceStructure
    parallel: tuple[int, ...]


def _cuts(design: IncidenceStructure, base: int, skip: int | None = None) -> dict[int, list[int]]:
    """Block indices grouped by their cut on the point mask `base`, in order of first appearance.

    Block `skip` is left out; the blocks that miss `base` are the group of cut 0.
    """
    groups: dict[int, list[int]] = {}
    for j, mask in enumerate(design.block_masks()):
        if j != skip:
            groups.setdefault(mask & base, []).append(j)
    return groups


def good_block(design: IncidenceStructure, block_idx: int):
    """Test Definition-style goodness of a block of an affine resolvable design.

    Only defined for affine resolvable 2-(q^n, q^(n-1), (q^(n-1)-1)/(q-1))
    designs; anything else raises WrongParameters.  The block is good when
    every nonempty cut on it by another block is shared by exactly q blocks;
    then the cuts form q identical copies of a simple
    2-(q^(n-1), q^(n-2), (q^(n-2)-1)/(q-1)) design, returned in a GoodBlock.
    Otherwise None.
    """
    _check_block_index(design, block_idx)
    q = affine_family(design).q
    # The distinct nonempty cuts on the block, in order of first appearance,
    # form s; the blocks that miss it are the block's parallel class.
    base = design.block_masks()[block_idx]
    cuts = _cuts(design, base, skip=block_idx)
    parallel = cuts.pop(0, [])
    groups = list(cuts.values())
    if any(len(g) != q for g in groups):
        return None
    # The count implies the rest.  In the family two blocks meet in 0 or
    # mu = k^2/v points, and disjoint blocks are parallel (Bose's condition).
    # - Blocks that share a cut meet only in it, so a group of q is pairwise
    #   disjoint off the block, and q(k - mu) = v - k: a parallel class of the
    #   substructure.
    # - A pair of points on the block lies on lambda - 1 = q * lambda' other
    #   blocks, so in exactly lambda' distinct cuts: s is a
    #   2-(q^(n-1), q^(n-2), lambda') design, simple since its blocks are
    #   distinct cuts and lambda' < r_s.  For n = 2 it is the k singletons.
    points = design.blocks[block_idx]
    s = IncidenceStructure(
        len(points), [[i for i, x in enumerate(points) if cut >> x & 1] for cut in cuts],
        name=f"{design.name or 'design'} cut @{block_idx}",
    )
    # The substructure is the blocks that meet this one, cut down to the
    # points off it; the groups are its classes, ascending by least block.
    sub_ids = sorted(j for g in groups for j in g)
    off = [x for x in range(design.v) if not base >> x & 1]
    index = {x: i for i, x in enumerate(off)}
    sub = IncidenceStructure(
        len(off), [[index[x] for x in design.blocks[j] if x in index] for j in sub_ids],
        name=f"{design.name or 'design'} sub @{block_idx}",
    )
    pos = {j: i for i, j in enumerate(sub_ids)}
    resolution = Resolution(classes=tuple(tuple(pos[j] for j in g) for g in groups))
    return GoodBlock(s=s, resolution=resolution, substructure=sub, parallel=tuple(parallel))


# ---------------------------------------------------------------------------
# serialization


def emit_des(design: IncidenceStructure) -> str:
    lines = [f"{design.v} {design.b}"]
    for blk in design.blocks:
        lines.append(" ".join(str(x) for x in blk))
    return "\n".join(lines) + "\n"


def _int(token: str, what: str) -> int:
    # int() alone would also take "1_0", "+1" and non-ASCII digits
    if not re.fullmatch(r"-?[0-9]+", token):
        raise WrongParameters(f"{what} {token!r} is not an integer")
    return int(token)


def parse_des(text: str) -> IncidenceStructure:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise WrongParameters("empty .des payload")
    head = lines[0].split()
    if len(head) != 2:
        raise WrongParameters("first line must be 'v b'")
    v, b = _int(head[0], "v"), _int(head[1], "b")
    if v < 0 or b < 0:
        raise WrongParameters(f"v and b must be >= 0, got {v} {b}")
    if len(lines) - 1 != b:
        raise WrongParameters(f"expected {b} block lines, found {len(lines) - 1}")
    blocks = [tuple(_int(x, "point") for x in line.split()) for line in lines[1:]]
    return IncidenceStructure(v, blocks)


def emit_json(design: IncidenceStructure) -> str:
    payload = {
        "v": design.v,
        "blocks": [list(blk) for blk in design.blocks],
        "name": design.name,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def parse_json(text: str) -> IncidenceStructure:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise WrongParameters(f"malformed JSON: {exc}") from None
    if not isinstance(payload, dict) or "v" not in payload or "blocks" not in payload:
        raise WrongParameters("a JSON design is an object with 'v' and 'blocks'")
    v, blocks = payload["v"], payload["blocks"]
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if type(v) is not int or v < 0:
        raise WrongParameters(f"'v' must be an integer >= 0, got {v!r}")
    if type(blocks) is not list or not all(
        type(blk) is list and all(type(x) is int for x in blk) for blk in blocks
    ):
        raise WrongParameters("'blocks' must be a list of integer lists")
    name = payload.get("name")
    if name is not None and type(name) is not str:
        raise WrongParameters(f"'name' must be a string or null, got {name!r}")
    return IncidenceStructure(v, blocks, name=name)


def save_design(design: IncidenceStructure, path: str) -> None:
    text = emit_json(design) if path.endswith(".json") else emit_des(design)
    with open(path, "w") as fh:
        fh.write(text)


def load_design(path: str) -> IncidenceStructure:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise WrongParameters(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_json(text) if path.endswith(".json") else parse_des(text)
