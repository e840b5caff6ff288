"""Canonical forms, isomorphism testing and automorphism groups.

Designs are handled through their colored bipartite incidence graph: one
vertex per point, one per (distinct) block, an edge for incidence.  Points
and blocks live in separate color classes, and block classes are split by
(size, multiplicity), so repeated-block structures are covered by coloring.
The graph is one n x n numpy adjacency matrix, built once per design.

Labeling uses individualization-refinement: refine to an equitable ordered
partition, branch on the smallest non-singleton cell (lowest vertex first),
and keep the leaf whose (invariant sequence, labeled adjacency) is maximal.
An ordered partition is a vertex sequence plus a cell id per position.  The
refinement holds its pending splitters as columns of neighbour counts, one
matrix product per batch of new cells, and tests all of them against the
partition in one comparison.  The splitters before the first one that splits
a cell change nothing and are dropped, so the result is the ordered partition
of refining with one splitter at a time, in queue order.  A leaf's labeled
adjacency is the relabeled matrix packed to bytes.

Automorphisms fall out whenever two explored leaves carry the same labeled
graph.  The search keeps a leaf store: every distinct leaf key, with the
order and path (the individualized vertices) of the first leaf that had it.
A later leaf with a stored key gives the automorphism taking it onto the
stored leaf, verified by application before use.  If it maps the new leaf's
path onto the stored leaf's path (equal keys imply this, because the search
tree is invariant under automorphisms and a leaf determines its path; the
search checks it anyway), the search backjumps to the two paths' common
ancestor: the ancestor's child subtree holding the new leaf is the image of
the explored one holding the stored leaf, so nothing new remains in it.
This generalizes nauty's jump on leaves equal to the first leaf to every
stored leaf.  The canonical certificate is the canonical relabeling
serialized as text; two structures are isomorphic iff their certificates
match byte for byte.  Its digest is SHA-256 from CPython's builtin module
(``_sha2`` or ``_sha256``), with ``hashlib`` only as the fallback, so a run
maps no OpenSSL.

A node's children are skipped when they lie in the orbit of an explored
sibling under found automorphisms fixing the node's path (orbits by
min-label propagation).  At a first-path node these are the found
generators that fix the path.  A node off the first path, whose path leaves
it at level d, uses Schreier generators instead (Schreier's lemma; Seress,
*Permutation Group Algorithms*, CUP 2003): start from the found generators
that fix the path's first d vertices and take one Schreier step per later
vertex of the path, keeping the first _ORBIT_BLOCK distinct ones of each
step.  They generate part of the path's pointwise stabilizer in the group
found so far, usually far more of it than the found generators that happen
to fix the whole path.  Each node's set is built from its parent's, and the
sets are rebuilt only after a new generator is found.

The group order is read off the same search tree, as in nauty (McKay &
Piperno, "Practical graph isomorphism II", JSC 60, 2014).  Let v_0, v_1, ...
be the vertices individualized on the path to the first leaf; a graph
automorphism fixing all of them fixes the (discrete) leaf.  By
orbit-stabilizer, |Aut| is then the product over d of the length of v_d's
orbit under the pointwise stabilizer of v_0 .. v_(d-1), and each orbit is
taken under the found generators that fix v_0 .. v_(d-1).  This is exact
because the search explores every child of a first-path node whose subtree
can hold a leaf equivalent to the first leaf, skipping only children in the
orbit of an explored one under those same generators.  Each explored child
w in v_d's true orbit yields a generator fixing v_0 .. v_(d-1) that maps w
onto v_d (a leaf equal to the first leaf) or onto an explored sibling (a
leaf-store jump to level d).  The stronger pruning stays off the first path,
where it cannot lose such a generator: below w, every subtree skipped by a
Schreier orbit or abandoned by a jump is the image, under an automorphism
fixing w's path down to the skipping node, of a subtree explored earlier,
so some leaf equivalent to the first leaf below w is still reached unless a
jump to level d has already joined w to a sibling.  At a first-path node
every generator found so far fixes its path, because every explored leaf
lies below it, so Schreier steps would add nothing there.  A pruning rule
that skipped a first-path child without joining it would make the order
silently too small; the order tests compare it with independent counts and
with a reference search that prunes less.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .designs import IncidenceStructure, Resolution, _cuts
from .errors import WrongParameters

# hashlib maps OpenSSL's libcrypto, a few MB of resident memory per process;
# the builtin module gives the same SHA-256 digests without it.
try:  # CPython 3.12+
    from _sha2 import sha256
except ImportError:
    try:  # CPython 3.10-3.11
        from _sha256 import sha256
    except ImportError:  # builds without builtin hashes
        from hashlib import sha256

# Generators gathered at once by _orbit_labels (a block is _ORBIT_BLOCK x n),
# and the Schreier generators kept per step off the first path.
_ORBIT_BLOCK = 32

# The search's arrays hold about n = 150 entries, where numpy's Python-level
# wrappers (np.cumsum, np.argsort, ndarray.any, np.array_equal, np.diff) cost
# more than the work they wrap.  So the hot path calls array methods and ufunc
# reductions directly and compares arrays as bytes or lists.


def _splitter_counts(
    weights: np.ndarray, seq: np.ndarray, starts: np.ndarray, queued: np.ndarray
) -> np.ndarray:
    """Neighbour counts of every vertex in each queued cell, one column per cell.

    `starts` flags the first position of every cell and `queued` the positions
    of the cells to count, in partition order.  `weights` is the adjacency
    matrix as float32, so the product runs in BLAS and stays exact (counts are
    at most n, far below 2^24).
    """
    cols = (starts & queued).cumsum()[queued] - 1
    members = np.zeros((len(seq), int(cols[-1]) + 1 if len(cols) else 0), dtype=np.float32)
    members[seq[queued], cols] = 1
    return weights @ members


def _refine(weights: np.ndarray, seq: np.ndarray, cell: np.ndarray, counts: np.ndarray):
    """Equitable refinement of an ordered partition (1-dimensional WL).

    The partition is `seq`, its vertices cell by cell, and `cell`, the cell id
    (0, 1, ... in order) of each position.  `counts` holds the pending
    splitters in queue order, one column of per-vertex neighbour counts each.
    The first splitter that splits a cell splits every cell it can, each into
    sub-cells by ascending count (a stable sort, so each sub-cell keeps the
    order of its vertices); those sub-cells join the end of the queue.
    Returns the refined (seq, cell).
    """
    n = len(seq)
    same = cell[1:] == cell[:-1]
    while counts.shape[1]:
        rows = counts[seq]
        differs = rows[1:] != rows[:-1]
        differs &= same[:, None]
        splits = np.logical_or.reduce(differs, axis=0)
        j = int(splits.argmax())
        if not splits[j]:
            break
        key = cell * (n + 1) + rows[:, j]
        order = key.argsort(kind="stable")
        seq = seq[order]
        key = key[order]
        split_cells = np.zeros(n, dtype=bool)
        split_cells[cell[1:][differs[:, j]]] = True
        queued = split_cells[cell]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        same = ~starts[1:]
        cell = starts.cumsum() - 1
        counts = np.concatenate(
            [counts[:, j + 1 :], _splitter_counts(weights, seq, starts, queued)], axis=1
        )
    return seq, cell


def _orbit_labels(gens, n: int) -> np.ndarray:
    """The smallest element of each element's orbit under the permutations `gens`.

    `gens` is a sequence of permutations of range(n) (rows of an array, or
    tuples).  Min-label propagation: each element takes the smallest label
    among itself and its images, and pointer jumping shortens chains, until
    nothing changes.  At the fixed point labels[a] <= labels[g[a]] for every
    generator, so a label is constant on each orbit, and it is one of the
    orbit's elements, hence its minimum.  The generators are gathered in
    blocks of _ORBIT_BLOCK rows, so the temporaries stay _ORBIT_BLOCK x n
    however many generators there are.
    """
    labels = np.arange(n)
    while len(gens):
        before = labels
        for i in range(0, len(gens), _ORBIT_BLOCK):
            block = np.asarray(gens[i : i + _ORBIT_BLOCK], dtype=np.intp)
            labels = np.minimum(labels, np.minimum.reduce(labels[block]))
        labels = labels[labels]
        if labels.tobytes() == before.tobytes():
            break
    return labels


def _leaf_key(adj: np.ndarray, order: np.ndarray) -> bytes:
    """The adjacency relabeled by `order`, packed row by row, each row reversed.

    Equal exactly when the relabeled graphs are equal, and ordered like the
    tuple of row bitmasks (bit i = column i): row by row, the highest column
    most significant.
    """
    return np.packbits(adj[np.ix_(order, order[::-1])]).tobytes()


def _schreier_step(rows: np.ndarray, x: int) -> np.ndarray:
    """Schreier generators of the stabilizer of `x` in the group `rows` generate.

    The walk visits the orbit of x breadth first and keeps, for each point y
    reached, a product u_y of generators with u_y(x) = y.  For each point y
    and generator s, u_{s(y)}^-1 s u_y fixes x, and together these generate
    the stabilizer (Schreier's lemma).  Only the first _ORBIT_BLOCK distinct
    non-identity ones in walk order are kept, so the result generates a
    subgroup of the stabilizer: enough to prune by, and never more.
    """
    n = rows.shape[1]
    identity = np.arange(n, dtype=np.intp)
    identity_key = identity.tobytes()
    transversal = {x: (identity, identity)}  # y -> (u_y, u_y^-1)
    queue = [x]
    found: dict[bytes, np.ndarray] = {}
    for y in queue:
        products = rows[:, transversal[y][0]]  # row i is s_i u_y
        for su, z in zip(products, products[:, x].tolist()):
            if z not in transversal:
                inverse = np.empty(n, dtype=np.intp)
                inverse[su] = identity
                # a copy: a view would keep all of `products` alive
                transversal[z] = (su.copy(), inverse)
                queue.append(z)
                continue
            g = transversal[z][1][su]
            key = g.tobytes()
            if key not in found and key != identity_key:
                found[key] = g
                if len(found) == _ORBIT_BLOCK:
                    return np.array(list(found.values()))
    return np.array(list(found.values()), dtype=np.intp).reshape(-1, n)


def _common_length(a, b) -> int:
    """The length of the longest common prefix of two vertex sequences."""
    length = 0
    for x, y in zip(a, b):
        if x != y:
            break
        length += 1
    return length


class _Backjump(Exception):
    """Abandon the subtree up to the node at `level`.

    Raised when a leaf is automorphism-equivalent to a stored leaf by an
    automorphism that maps the one's path onto the other's: the sibling
    subtree of the two paths' common ancestor that holds the new leaf then
    maps onto the already-explored one that holds the stored leaf, so
    nothing new (keys or generators) remains below.
    """

    def __init__(self, level: int):
        self.level = level


class _Search:
    """One individualization-refinement run over a colored graph.

    `adj` is the boolean adjacency matrix and `cells` the initial ordered
    color classes.  `nodes`, `leaves` and `backjumps` count the search tree's
    refined nodes, its leaves and the jumps its leaf store made.
    """

    def __init__(self, adj: np.ndarray, cells: list[list[int]]):
        self.adj = adj
        self.weights = adj.astype(np.float32)
        self.n = len(adj)
        self.first_path: list[tuple[int, ...]] = []
        self.first_prefix: tuple[int, ...] = ()
        self.best_path: list[tuple[int, ...]] = []
        self.best_key = None
        self.best_order = None
        # every distinct leaf key met so far -> (order, prefix) of its first leaf
        self._leaves: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
        # generators found so far: the first self.ngens rows, capacity doubling
        self._gens = np.empty((8, self.n), dtype=np.intp)
        self.ngens = 0
        self._gen_keys: set[bytes] = set()
        # Schreier generators off the first path: entry i holds those fixing
        # prefix[:i] (None where unused), all built when the search had
        # self._chain_built generators
        self._chain: list[np.ndarray | None] = []
        self._chain_built = 0
        self.nodes = self.leaves = self.backjumps = 0
        cells = [c for c in cells if c]
        seq = np.array([x for c in cells for x in c], dtype=np.intp)
        cell = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
        starts = np.diff(cell, prepend=-1) != 0
        counts = _splitter_counts(self.weights, seq, starts, np.ones(self.n, dtype=bool))
        root = _refine(self.weights, seq, cell, counts)
        # No _Backjump escapes the root: its children's jumps stop there, as
        # no level is below 0, and a leaf at the root is the first, which never jumps.
        self._node(root, 0, eq_first=True, improving=True, dominated=False, prefix=[])

    @property
    def gens(self) -> np.ndarray:
        """The verified generators found so far, one permutation per row."""
        return self._gens[: self.ngens]

    def group_order(self) -> int:
        """|Aut|: the product of the first path's stabilizer orbit lengths."""
        order = 1
        rows = self.gens
        for v in self.first_prefix:
            labels = _orbit_labels(rows, self.n)
            order *= int(np.count_nonzero(labels == labels[v]))
            rows = rows[rows[:, v] == v]
        return order

    # -- leaf helpers ------------------------------------------------------

    def _record_automorphism(self, ref_order, order):
        """The permutation taking `order` onto `ref_order`, kept as a generator if new.

        Returns None, and keeps nothing, unless it is an automorphism.
        """
        gamma = np.empty(self.n, dtype=np.intp)
        gamma[order] = ref_order
        if not (self.adj[np.ix_(gamma, gamma)] == self.adj).all():
            return None
        key = gamma.tobytes()
        if key not in self._gen_keys and not (gamma == np.arange(self.n)).all():
            if self.ngens == len(self._gens):
                self._gens = np.concatenate([self._gens, np.empty_like(self._gens)])
            self._gens[self.ngens] = gamma
            self.ngens += 1
            self._gen_keys.add(key)
        return gamma

    def _leaf(self, order, prefix, improving, dominated) -> None:
        self.leaves += 1
        key = _leaf_key(self.adj, order)
        stored = self._leaves.get(key)
        if stored is None:
            self._leaves[key] = (order, tuple(prefix))
            if len(self._leaves) == 1:
                self.first_prefix = tuple(prefix)
        if not dominated and key != self.best_key:
            if improving or self.best_key is None or key > self.best_key:
                self.best_key = key
                self.best_order = order
        if stored is None:
            return
        ref_order, ref_prefix = stored
        gamma = self._record_automorphism(ref_order, order)
        if gamma is None or tuple(gamma[prefix].tolist()) != ref_prefix:
            return
        self.backjumps += 1
        raise _Backjump(_common_length(prefix, ref_prefix))

    # -- search ------------------------------------------------------------

    def _fixing(self, points: list[int]) -> np.ndarray:
        """The found generators that fix every vertex of `points`."""
        rows = self.gens
        return rows[np.logical_and.reduce(rows[:, points] == points, axis=1)] if points else rows

    def _pruning_rows(self, prefix: list[int]) -> np.ndarray:
        """Found automorphisms fixing every vertex of `prefix`, to prune its children by.

        On the first path these are the found generators that fix the prefix,
        the same rows group_order reads orbits from.  Off it, where the prefix
        leaves the first path at level d, they are Schreier generators: the
        found generators fixing prefix[:d], then one _schreier_step per
        vertex of prefix[d:], each node's set built from its parent's.
        """
        depth = len(prefix)
        d = _common_length(prefix, self.first_prefix)
        if d == depth:
            return self._fixing(prefix)
        chain = self._chain
        if self._chain_built != self.ngens:
            chain.clear()
            self._chain_built = self.ngens
        chain.extend([None] * (d + 1 - len(chain)))
        if chain[d] is None:
            chain[d] = self._fixing(prefix[:d])
        for i in range(len(chain), depth + 1):
            chain.append(_schreier_step(chain[i - 1], prefix[i - 1]))
        return chain[depth]

    def _node(self, partition, depth, eq_first, improving, dominated, prefix) -> None:
        self.nodes += 1
        del self._chain[depth:]
        seq, cell = partition
        edges = np.empty(self.n + 1, dtype=bool)
        edges[0] = edges[-1] = True
        np.not_equal(cell[1:], cell[:-1], out=edges[1:-1])
        bounds = edges.nonzero()[0]
        starts = bounds[:-1]
        sizes = bounds[1:] - starts
        inv = tuple(sizes.tolist())
        if not self._leaves:
            self.first_path.append(inv)
            eq_first = True
        elif eq_first:
            eq_first = depth < len(self.first_path) and self.first_path[depth] == inv
        if dominated and not eq_first:
            return

        if not dominated:
            if improving:
                del self.best_path[depth:]
                self.best_path.append(inv)
            else:
                ref = self.best_path[depth]
                if inv > ref:
                    improving = True
                    del self.best_path[depth:]
                    self.best_path.append(inv)
                    self.best_key = None
                elif inv < ref:
                    if not eq_first:
                        return
                    dominated = True

        if len(sizes) == self.n:
            self._leaf(seq, prefix, improving, dominated)
            return

        target = int(np.where(sizes > 1, sizes, self.n + 1).argmin())
        lo = int(starts[target])
        hi = lo + int(sizes[target])
        members = seq[lo:hi]
        child_cell = cell.copy()
        child_cell[lo + 1 :] += 1
        processed: list[int] = []
        labels = None
        built = -1
        first_child = True
        for v in sorted(members.tolist()):
            if processed:
                if built != self.ngens:
                    labels = _orbit_labels(self._pruning_rows(prefix), self.n).tolist()
                    built = self.ngens
                if any(labels[p] == labels[v] for p in processed):
                    continue
            child_seq = seq.copy()
            child_seq[lo] = v
            child_seq[lo + 1 : hi] = members[members != v]
            child = _refine(self.weights, child_seq, child_cell, self.weights[:, [v]])
            prefix.append(v)
            try:
                self._node(child, depth + 1, eq_first, improving and first_child, dominated, prefix)
            except _Backjump as bj:
                if bj.level < depth:
                    raise
            finally:
                prefix.pop()
            first_child = False
            processed.append(v)


# ---------------------------------------------------------------------------
# public objects


@dataclass(frozen=True)
class CanonicalCert:
    """Canonical serialization of a structure and its SHA-256 digest.

    The digest is a function of the payload, so the dataclass's own equality
    and hash over both fields are payload equality and hash.
    """

    digest: str
    payload: bytes


@dataclass
class PermGroup:
    """A permutation group on points+blocks given by verified generators.

    `size` is the group order, computed once by the labeling search that
    found the generators (see the module docstring); `order()` returns it.
    """

    degree: int
    generators: tuple[tuple[int, ...], ...]
    n_points: int
    size: int
    deduplicated: bool = False

    def order(self) -> int:
        return self.size


def _orbit_lists(labels: np.ndarray, lo: int, hi: int) -> list[list[int]]:
    """The orbits met by lo .. hi - 1, each ascending, ordered by their minimum."""
    groups: dict[int, list[int]] = {}
    for a, label in enumerate(labels[lo:hi].tolist(), start=lo):
        groups.setdefault(label, []).append(a)
    return list(groups.values())


def orbits(group: PermGroup, domain: str) -> list[list[int]]:
    """Orbit partition on "points" or "blocks" (block vertex ids shifted back)."""
    n = group.n_points
    labels = _orbit_labels(group.generators, group.degree)
    if domain == "points":
        return _orbit_lists(labels, 0, n)
    if domain == "blocks":
        return [[x - n for x in orb] for orb in _orbit_lists(labels, n, group.degree)]
    raise WrongParameters(f"unknown domain {domain!r}")


def _graph(design: IncidenceStructure):
    """Boolean adjacency matrix + initial cells for the colored incidence graph."""
    groups = _cuts(design, (1 << design.v) - 1).values()
    distinct = [design.blocks[g[0]] for g in groups]
    mult = [len(g) for g in groups]
    v = design.v
    n = v + len(distinct)
    adj = np.zeros((n, n), dtype=bool)
    for j, blk in enumerate(distinct):
        adj[list(blk), v + j] = True
    adj |= adj.T
    cells: list[list[int]] = [list(range(v))]
    by_color: dict[tuple[int, int], list[int]] = {}
    for j, blk in enumerate(distinct):
        by_color.setdefault((len(blk), mult[j]), []).append(v + j)
    for key in sorted(by_color):
        cells.append(by_color[key])
    return adj, cells, distinct, mult


@lru_cache(maxsize=128)
def _analyze(design: IncidenceStructure) -> tuple[CanonicalCert, PermGroup]:
    adj, cells, distinct, mult = _graph(design)
    search = _Search(adj, cells)
    order = search.best_order.tolist()
    point_order = tuple(x for x in order if x < design.v)
    relabel = {x: i for i, x in enumerate(point_order)}
    canon = sorted(
        (tuple(sorted(relabel[x] for x in blk)), mult[j])
        for j, blk in enumerate(distinct)
    )
    lines = [f"{design.v} {len(canon)}"]
    simple_multiset = all(m == 1 for m in mult)
    for blk, m in canon:
        body = " ".join(str(x) for x in blk)
        lines.append(body if simple_multiset else f"{m}x {body}")
    payload = ("\n".join(lines) + "\n").encode()
    cert = CanonicalCert(digest=sha256(payload).hexdigest(), payload=payload)
    group = PermGroup(
        degree=len(adj),
        generators=tuple(map(tuple, search.gens.tolist())),
        n_points=design.v,
        size=search.group_order(),
        deduplicated=not simple_multiset,
    )
    return cert, group


def canonical_cert(design: IncidenceStructure) -> CanonicalCert:
    """Certificate with byte-equality exactly on isomorphic structures."""
    return _analyze(design)[0]


def are_isomorphic(d1: IncidenceStructure, d2: IncidenceStructure) -> bool:
    if d1.v != d2.v or d1.b != d2.b:
        return False
    if sorted(d1.block_sizes()) != sorted(d2.block_sizes()):
        return False
    return canonical_cert(d1) == canonical_cert(d2)


def automorphism_group(design: IncidenceStructure) -> PermGroup:
    """Aut as permutations of points and (distinct) blocks.

    For multiset inputs the block part acts on the deduplicated block list
    (the group is flagged `deduplicated`); point indices are unaffected.
    """
    return _analyze(design)[1]


def resolution_orbits(group: PermGroup, resolution_list: list[Resolution]) -> list[list[int]]:
    """Orbits of the group on a list of resolutions (by block-part action)."""
    if group.deduplicated:
        raise WrongParameters("resolution orbits need the undeduplicated block action")
    v = group.n_points
    index = {res.as_sets(): i for i, res in enumerate(resolution_list)}
    if len(index) != len(resolution_list):
        raise WrongParameters("duplicate resolutions in the list")
    maps = []
    for g in group.generators:
        row = []
        for res in resolution_list:
            image = frozenset(
                frozenset(g[v + j] - v for j in cls) for cls in res.classes
            )
            target = index.get(image)
            if target is None:
                raise WrongParameters("generator does not permute the resolution list")
            row.append(target)
        maps.append(row)
    return _orbit_lists(_orbit_labels(maps, len(resolution_list)), 0, len(resolution_list))
