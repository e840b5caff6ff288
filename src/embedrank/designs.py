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
import warnings
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
    """Points 0..v-1 and an ordered tuple of blocks (ascending point tuples)."""

    __slots__ = ("v", "blocks", "name", "point_labels", "block_labels", "_block_masks", "_point_masks")

    def __init__(self, v, blocks, name=None, point_labels=None, block_labels=None):
        self.v = int(v)
        blks = []
        for blk in blocks:
            t = tuple(sorted(int(x) for x in blk))
            for x in t:
                if not 0 <= x < self.v:
                    raise BadIndex(f"point {x} outside 0..{self.v - 1}")
            if len(set(t)) != len(t):
                raise BadIndex("repeated point inside a block")
            blks.append(t)
        self.blocks = tuple(blks)
        self.name = name
        self.point_labels = tuple(point_labels) if point_labels is not None else None
        self.block_labels = tuple(block_labels) if block_labels is not None else None
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
    """A partition of the block indices into parallel classes.

    Each class is an ascending tuple of block indices whose blocks are pairwise
    disjoint and together cover every point.  class_size is blocks per class.
    """

    classes: tuple[tuple[int, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def class_size(self) -> int:
        return len(self.classes[0]) if self.classes else 0

    def as_sets(self) -> frozenset:
        return frozenset(frozenset(c) for c in self.classes)


def make_resolution(design: IncidenceStructure, classes) -> Resolution:
    """Validate and normalize a candidate resolution of `design`."""
    norm = tuple(tuple(sorted(int(j) for j in cls)) for cls in classes)
    seen: set[int] = set()
    full = (1 << design.v) - 1
    masks = design.block_masks()
    for cls in norm:
        cover = 0
        for j in cls:
            if not 0 <= j < design.b:
                raise BadIndex(f"block index {j} outside 0..{design.b - 1}")
            if j in seen:
                raise WrongParameters("classes overlap")
            seen.add(j)
            if cover & masks[j]:
                raise WrongParameters(f"class {cls} is not a parallel class")
            cover |= masks[j]
        if cover != full:
            raise WrongParameters(f"class {cls} does not cover the point set")
    if len(seen) != design.b:
        raise WrongParameters("classes do not partition the block list")
    ordered = tuple(sorted(norm))
    return Resolution(classes=ordered)


@lru_cache(maxsize=128)
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
    if not 0 <= idx < design.b:
        raise BadIndex(f"block index {idx} outside 0..{design.b - 1}")


def residual(design: IncidenceStructure, block_idx: int, keep_empty: bool = False) -> IncidenceStructure:
    """Points off the chosen block; every other block cut down to them.

    Block order is preserved.  Intersection leftovers that are empty are
    dropped unless keep_empty is set (then they stay as empty blocks so the
    column count matches the parent design minus one).
    """
    _check_block_index(design, block_idx)
    removed = set(design.blocks[block_idx])
    new_points = [x for x in range(design.v) if x not in removed]
    index = {x: i for i, x in enumerate(new_points)}
    blocks, labels = [], []
    for j, blk in enumerate(design.blocks):
        if j == block_idx:
            continue
        cut = tuple(index[x] for x in blk if x not in removed)
        if cut or keep_empty:
            blocks.append(cut)
            labels.append(design.block_labels[j] if design.block_labels else j)
    return IncidenceStructure(
        len(new_points), blocks,
        name=f"{design.name or 'design'} residual @{block_idx}",
        point_labels=tuple(new_points), block_labels=tuple(labels),
    )


def derived(design: IncidenceStructure, block_idx: int, keep_empty: bool = False) -> IncidenceStructure:
    """Points of the chosen block; every other block intersected with it."""
    _check_block_index(design, block_idx)
    base = set(design.blocks[block_idx])
    new_points = sorted(base)
    index = {x: i for i, x in enumerate(new_points)}
    blocks, labels = [], []
    for j, blk in enumerate(design.blocks):
        if j == block_idx:
            continue
        cut = tuple(index[x] for x in blk if x in base)
        if cut or keep_empty:
            blocks.append(cut)
            labels.append(design.block_labels[j] if design.block_labels else j)
    return IncidenceStructure(
        len(new_points), blocks,
        name=f"{design.name or 'design'} derived @{block_idx}",
        point_labels=tuple(new_points), block_labels=tuple(labels),
    )


def intersection_profile(design: IncidenceStructure) -> dict[int, int]:
    """Histogram of |B_i cap B_j| over unordered block pairs i < j."""
    masks = design.block_masks()
    out: dict[int, int] = {}
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            c = (mi & masks[j]).bit_count()
            out[c] = out.get(c, 0) + 1
    return dict(sorted(out.items()))


def is_simple(design: IncidenceStructure) -> bool:
    """No repeated blocks and no two points on exactly the same blocks."""
    if len(set(design.blocks)) != design.b:
        return False
    pmasks = design.point_masks()
    return len(set(pmasks)) == design.v


@lru_cache(maxsize=128)
def is_affine_resolvable(design: IncidenceStructure):
    """Return (q, mu, Resolution) if the design is affine resolvable, else None.

    Checks the standard criterion: a resolvable 2-design where two
    non-parallel blocks always meet in mu = k^2/v points, with b = v + r - 1
    and parallelism (= disjointness) an equivalence with classes of size v/k.
    """
    params = verify_tdesign(design, 2)
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


def parallel_classes(design: IncidenceStructure) -> list[tuple[int, ...]]:
    """All block sets that partition the points, in lexicographic order.

    Exact-cover search: branch on the lowest uncovered point, so every
    partition is produced exactly once.
    """
    k = design.uniform_k()
    if design.v % k:
        return []
    masks = design.block_masks()
    by_point: list[list[int]] = [[] for _ in range(design.v)]
    for j, blk in enumerate(design.blocks):
        for x in blk:
            by_point[x].append(j)
    full = (1 << design.v) - 1
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(cover: int) -> None:
        if cover == full:
            out.append(tuple(sorted(chosen)))
            return
        x = (~cover & full)
        x = (x & -x).bit_length() - 1
        for j in by_point[x]:
            if not masks[j] & cover:
                chosen.append(j)
                rec(cover | masks[j])
                chosen.pop()

    rec(0)
    return sorted(out)


def resolutions(design: IncidenceStructure, limit: int | None = None) -> list[Resolution]:
    """All resolutions (partitions of the block list into parallel classes).

    Exact cover over block indices using the parallel-class list; branches on
    the lowest unassigned block.  Raises CapExceeded once more than `limit`
    resolutions have been found.
    """
    classes = parallel_classes(design)
    covering: list[list[int]] = [[] for _ in range(design.b)]
    for ci, cls in enumerate(classes):
        for j in cls:
            covering[j].append(ci)
    class_bits = [sum(1 << j for j in cls) for cls in classes]
    full = (1 << design.b) - 1
    out: list[Resolution] = []
    picked: list[int] = []

    def rec(assigned: int) -> None:
        if assigned == full:
            out.append(Resolution(classes=tuple(sorted(classes[ci] for ci in picked))))
            if limit is not None and len(out) > limit:
                raise CapExceeded(f"more than {limit} resolutions")
            return
        j = (~assigned & full)
        j = (j & -j).bit_length() - 1
        for ci in covering[j]:
            if not class_bits[ci] & assigned:
                picked.append(ci)
                rec(assigned | class_bits[ci])
                picked.pop()

    rec(0)
    return out


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

    Cached, like verify_tdesign and is_affine_resolvable, on the design's
    points and blocks, so equal designs share one computation.
    """
    aff = is_affine_resolvable(design)
    if aff is None:
        raise WrongParameters("not an affine resolvable 2-design")
    q, mu, resolution = aff
    params = verify_tdesign(design, 2)
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
    substructure the residual blocks of size k - mu, in residual point labels
    parallel     indices (in the parent) of the blocks disjoint from the block
    """

    s: IncidenceStructure
    resolution: Resolution
    substructure: IncidenceStructure
    parallel: tuple[int, ...]
    q: int
    n: int
    mu: int
    block_index: int

    def __iter__(self):
        return iter((self.s, self.resolution))


def good_block(design: IncidenceStructure, block_idx: int):
    """Test Definition-style goodness of a block of an affine resolvable design.

    Only defined for affine resolvable 2-(q^n, q^(n-1), (q^(n-1)-1)/(q-1))
    designs; anything else raises WrongParameters.  Returns a GoodBlock when
    the nonempty intersections with the block form q identical copies of a
    simple 2-(q^(n-1), q^(n-2), (q^(n-2)-1)/(q-1)) design, else None.
    """
    _check_block_index(design, block_idx)
    q, n, mu, params, _ = affine_family(design)

    base = set(design.blocks[block_idx])
    base_sorted = sorted(base)
    index = {x: i for i, x in enumerate(base_sorted)}
    groups: dict[tuple[int, ...], list[int]] = {}
    order: list[tuple[int, ...]] = []
    parallel = []
    for j, blk in enumerate(design.blocks):
        if j == block_idx:
            continue
        cut = tuple(index[x] for x in blk if x in base)
        if not cut:
            parallel.append(j)
            continue
        if cut not in groups:
            groups[cut] = []
            order.append(cut)
        groups[cut].append(j)
    if any(len(g) != q for g in groups.values()):
        return None
    s = IncidenceStructure(len(base_sorted), order, name=f"{design.name or 'design'} cut @{block_idx}",
                           point_labels=tuple(base_sorted))
    if not is_simple(s):
        return None
    expect_k = params.k // q
    if expect_k == 1:
        # n = 2 collapses the cut design to singletons (lambda = 0), which
        # verify_tdesign cannot rate; check the shape directly.
        if s.b != s.v or any(len(blk) != 1 for blk in s.blocks):
            return None
    else:
        s_params = verify_tdesign(s, 2)
        expect_lam = (expect_k - 1) // (q - 1) if (expect_k - 1) % (q - 1) == 0 else None
        if s_params is None or s_params.k != expect_k or expect_lam is None or s_params.lam != expect_lam:
            return None

    res = residual(design, block_idx, keep_empty=False)
    sub_ids = [i for i, blk in enumerate(res.blocks) if len(blk) == params.k - mu]
    sub = IncidenceStructure(
        res.v, [res.blocks[i] for i in sub_ids],
        name=f"{design.name or 'design'} sub @{block_idx}",
        point_labels=res.point_labels,
        block_labels=tuple(res.block_labels[i] for i in sub_ids),
    )
    by_label = {lab: i for i, lab in enumerate(sub.block_labels)}
    classes = []
    for cut in order:
        cls = tuple(sorted(by_label[j] for j in groups[cut]))
        classes.append(cls)
    try:
        resolution = make_resolution(sub, classes)
    except WrongParameters:
        return None
    return GoodBlock(
        s=s, resolution=resolution, substructure=sub,
        parallel=tuple(parallel), q=q, n=n, mu=mu, block_index=block_idx,
    )


def normal_block(design: IncidenceStructure, block_idx: int, q: int):
    """Extract the repeated symmetric subdesign a normal block induces.

    The parent must be a symmetric 2-design with parameters
    ((q^3 m - 1)/(q - 1), (q^2 m - 1)/(q - 1), (q m - 1)/(q - 1)) for an
    integer m.  Returns the symmetric design D0 whose q identical copies make
    up the derived design, or None if the copies do not line up.  The
    degenerate m = 1 case (D0 has lambda = 0) is reported with a warning.
    """
    _check_block_index(design, block_idx)
    params = verify_tdesign(design, 2)
    if params is None or not params.symmetric:
        raise WrongParameters("not a symmetric 2-design")
    if q < 2:
        raise WrongParameters("q must be >= 2")
    num = params.k * (q - 1) + 1
    if num % (q * q):
        raise WrongParameters("k does not match (q^2 m - 1)/(q - 1) for integer m")
    m = num // (q * q)
    if params.v * (q - 1) != q**3 * m - 1 or params.lam * (q - 1) != q * m - 1:
        raise WrongParameters("(v, k, lambda) do not match the (q, m) family")

    der = derived(design, block_idx, keep_empty=False)
    groups: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []
    for blk in der.blocks:
        if blk not in groups:
            groups[blk] = 0
            order.append(blk)
        groups[blk] += 1
    if any(c != q for c in groups.values()):
        return None
    d0 = IncidenceStructure(der.v, order, name=f"{design.name or 'design'} core @{block_idx}",
                            point_labels=der.point_labels)
    lam0, rem = divmod(m - 1, q - 1)
    if rem:
        return None
    if lam0 == 0:
        # m = 1 collapses the core to distinct singletons; verify_tdesign
        # cannot apply at k = 1, so check the shape directly.
        if len(order) == d0.v and all(len(blk) == 1 for blk in order):
            warnings.warn("degenerate core design (lambda = 0): the blocks are singletons")
            return d0
        return None
    d0_params = verify_tdesign(d0, 2)
    if d0_params is None or not d0_params.symmetric or d0_params.k != params.lam or d0_params.lam != lam0:
        return None
    return d0


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
    return IncidenceStructure(v, blocks, name=payload.get("name"))


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
