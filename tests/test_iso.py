"""Canonical certificates, isomorphism testing and automorphism groups."""

import hashlib
import random
from collections import deque
from itertools import permutations

import numpy as np
import pytest

from conftest import relabel
from embedrank import expected, iso
from embedrank.designs import IncidenceStructure, resolutions
from embedrank.errors import WrongParameters
from embedrank.geometry import ag_design, pg_design
from embedrank.iso import (
    are_isomorphic,
    automorphism_group,
    canonical_cert,
    orbits,
    resolution_orbits,
)


def _brute_aut_order(design):
    """Count point permutations fixing the block multiset (small v only)."""
    blocks = sorted(design.blocks)
    count = 0
    for perm in permutations(range(design.v)):
        image = sorted(tuple(sorted(perm[x] for x in blk)) for blk in design.blocks)
        if image == blocks:
            count += 1
    return count


def test_cert_invariant_under_relabeling(fano):
    rng = random.Random(201)
    base = canonical_cert(fano)
    for _ in range(100):
        other = relabel(fano, rng)
        cert = canonical_cert(other)
        assert cert.digest == base.digest
        assert cert.payload == base.payload
        assert cert == base
    for _ in range(30):
        v = rng.randrange(2, 9)
        blocks = [
            tuple(sorted(rng.sample(range(v), rng.randrange(1, v + 1))))
            for _ in range(rng.randrange(1, 7))
        ]
        d = IncidenceStructure(v, blocks)
        assert canonical_cert(relabel(d, rng)) == canonical_cert(d)


# Repeated blocks: the payload's lines carry a "2x" multiplicity.
DOUBLED = IncidenceStructure(4, [(0, 1), (0, 1), (2, 3), (2, 3)])


@pytest.mark.parametrize("name", ["fano", "ag34", "pg34", "e1", "e2", "doubled"])
def test_digest_is_sha256_of_payload(request, name):
    """The digest is hashlib's SHA-256 of the payload; ag to e2 span many 64-byte blocks."""
    design = DOUBLED if name == "doubled" else request.getfixturevalue(name)
    cert = canonical_cert(design)
    assert cert.digest == hashlib.sha256(cert.payload).hexdigest()


def test_cert_fields(fano):
    cert = canonical_cert(fano)
    lines = cert.payload.decode().splitlines()
    assert lines[0] == "7 7"
    parsed = IncidenceStructure(7, [tuple(map(int, ln.split())) for ln in lines[1:]])
    assert are_isomorphic(parsed, fano)
    assert cert != canonical_cert(pg_design(3, 2, 2))


def test_same_profile_nonisomorphic():
    hexagon = IncidenceStructure(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = IncidenceStructure(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert sorted(hexagon.block_sizes()) == sorted(triangles.block_sizes())
    assert not are_isomorphic(hexagon, triangles)
    assert automorphism_group(hexagon).order() == 12
    assert automorphism_group(triangles).order() == 72
    assert _brute_aut_order(hexagon) == 12
    assert _brute_aut_order(triangles) == 72


def test_size_mismatch_short_circuits(fano, k4_edges):
    assert not are_isomorphic(fano, k4_edges)
    assert not are_isomorphic(fano, IncidenceStructure(7, fano.blocks[:-1]))


def test_classical_group_orders(fano, k4_edges):
    assert automorphism_group(fano).order() == 168
    assert _brute_aut_order(fano) == 168
    assert automorphism_group(k4_edges).order() == 24
    assert automorphism_group(pg_design(3, 2, 2)).order() == 20160


def test_group_order_matches_brute_force():
    rng = random.Random(202)
    for trial in range(80):
        v = rng.randrange(1, 8)
        blocks = [
            tuple(sorted(rng.sample(range(v), rng.randrange(0 if trial % 4 == 0 else 1, v + 1))))
            for _ in range(rng.randrange(0, 8))
        ]
        if blocks and trial % 3 == 0:
            blocks += rng.sample(blocks, rng.randrange(1, len(blocks) + 1))
        d = IncidenceStructure(v, blocks)
        assert automorphism_group(d).order() == _brute_aut_order(d), (v, d.blocks)


def test_group_order_matches_sympy(ag34, e2, dpp_group, pg34, e1):
    # sympy is the test extra's independent oracle; the library never imports it
    from sympy.combinatorics import Permutation, PermutationGroup

    groups = [
        automorphism_group(relabel(ag34, random.Random(2))),
        automorphism_group(e2),
        dpp_group,
        automorphism_group(pg_design(3, 2, 2)),
        automorphism_group(relabel(pg34, random.Random(1))),
        automorphism_group(relabel(e1, random.Random(0))),
    ]
    for group in groups:
        perms = [Permutation(list(g), size=group.degree) for g in group.generators]
        assert group.order() == PermutationGroup(perms).order()
    assert [g.order() for g in groups[:3]] == [
        expected.AUT_ORDER_AG34, expected.AUT_ORDER_E2, expected.AUT_ORDER_DPP,
    ]
    assert [g.order() for g in groups[4:]] == [expected.AUT_ORDER_PG34, expected.AUT_ORDER_E1]


def test_generators_permute_blocks(fano):
    group = automorphism_group(fano)
    assert not group.deduplicated
    v = fano.v
    for g in group.generators:
        assert sorted(g) == list(range(group.degree))
        for j, blk in enumerate(fano.blocks):
            image = tuple(sorted(g[x] for x in blk))
            assert fano.blocks[g[v + j] - v] == image


def test_orbit_partitions(fano):
    group = automorphism_group(fano)
    assert orbits(group, "points") == [list(range(7))]
    assert orbits(group, "blocks") == [list(range(7))]
    path = IncidenceStructure(3, [(0, 1), (1, 2)])
    pg = automorphism_group(path)
    assert pg.order() == 2
    assert orbits(pg, "points") == [[0, 2], [1]]
    assert orbits(pg, "blocks") == [[0, 1]]
    with pytest.raises(WrongParameters):
        orbits(pg, "flags")


def test_multiset_blocks():
    single = IncidenceStructure(4, [(0, 1), (2, 3)])
    group = automorphism_group(DOUBLED)
    assert group.deduplicated
    assert group.order() == automorphism_group(single).order() == 8
    assert not are_isomorphic(DOUBLED, single)
    other = IncidenceStructure(4, [(2, 3), (0, 1), (2, 3), (0, 1)])
    assert are_isomorphic(DOUBLED, other)
    assert b"2x" in canonical_cert(DOUBLED).payload


def test_resolution_orbits_planes(k4_edges):
    planes, _ = ag_design(3, 2, 2)
    for design in (planes, k4_edges):
        sols = resolutions(design)
        assert len(sols) == 1
        group = automorphism_group(design)
        assert resolution_orbits(group, sols) == [[0]]


def test_resolution_orbits_validation(k4_edges):
    group = automorphism_group(k4_edges)
    sols = resolutions(k4_edges)
    with pytest.raises(WrongParameters):
        resolution_orbits(group, sols + sols)  # duplicates
    doubled = IncidenceStructure(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    with pytest.raises(WrongParameters):
        resolution_orbits(automorphism_group(doubled), sols)


def _loop_refine(adj, cells, work):
    """Reference refinement: one bitmask splitter at a time, in queue order."""
    while work:
        smask = work.popleft()
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                buckets.setdefault((adj[v] & smask).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                for key in sorted(buckets):
                    out.append(buckets[key])
                    work.append(sum(1 << u for u in buckets[key]))
        cells = out
    return cells


def _matrix(adj):
    n = len(adj)
    return np.array([[(adj[v] >> u) & 1 for u in range(n)] for v in range(n)], dtype=bool)


def _batched_refine(adj, cells, splitters):
    """iso._refine on the same partition and splitter queue, as a list of cells."""
    weights = _matrix(adj).astype(np.float32)
    seq = np.array([x for c in cells for x in c], dtype=np.intp)
    cell = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    members = np.zeros((len(adj), len(splitters)), dtype=np.float32)
    for j, s in enumerate(splitters):
        members[list(s), j] = 1
    seq, cell = iso._refine(weights, seq, cell, weights @ members)
    bounds = np.flatnonzero(np.diff(cell)) + 1
    return [part.tolist() for part in np.split(seq, bounds)] if len(seq) else []


def _both_refines(adj, cells, splitters):
    want = _loop_refine(adj, cells, deque(sum(1 << u for u in s) for s in splitters))
    assert _batched_refine(adj, cells, splitters) == want
    return want


def _random_graph(rng, n, p, isolated):
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if a not in isolated and b not in isolated and rng.random() < p:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def _check_refinements(rng, adj, cells):
    """Root refinement by all cells, then individualize vertices down one path."""
    cells = _both_refines(adj, cells, cells)
    while any(len(c) > 1 for c in cells):
        t = rng.choice([i for i, c in enumerate(cells) if len(c) > 1])
        v = rng.choice(cells[t])
        child = cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1 :]
        cells = _both_refines(adj, child, [[v]])


def test_batched_refine_matches_loop_on_random_graphs():
    rng = random.Random(203)
    for n in (1, 2, 7, 40, 63, 64, 65, 100, 150):
        for p in (0.1, 0.5, 0.9):
            isolated = set(rng.sample(range(n), n // 6))
            adj = _random_graph(rng, n, p, isolated)
            perm = list(range(n))
            rng.shuffle(perm)
            ncolors = rng.choice((1, 2, 5))
            cuts = sorted(rng.sample(range(1, n), min(ncolors, n) - 1))
            cells = [perm[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            _check_refinements(rng, adj, cells)
            # an individualized vertex as the only splitter of a coarse partition
            v = perm[0]
            rest = [[u for u in cell if u != v] for cell in cells]
            _both_refines(adj, [[v]] + [c for c in rest if c], [[v]])


def test_batched_refine_matches_loop_on_designs():
    rng = random.Random(204)
    designs = [ag_design(3, 2, 2)[0], pg_design(3, 2, 2), relabel(ag_design(2, 3, 1)[0], rng)]
    for _ in range(6):
        v = rng.randrange(3, 20)
        blocks = [
            tuple(sorted(rng.sample(range(v), rng.randrange(1, v))))
            for _ in range(rng.randrange(2, 40))
        ]
        designs.append(IncidenceStructure(v, blocks))
    for design in designs:
        matrix, cells, _, _ = iso._graph(design)
        adj = [sum(1 << int(u) for u in np.flatnonzero(row)) for row in matrix]
        _check_refinements(rng, adj, [c for c in cells if c])


def _tuple_key(adj, order):
    """Reference leaf key: the relabeled rows as bitmasks (bit i = column i)."""
    pos = {v: i for i, v in enumerate(order)}
    return tuple(sum(1 << pos[u] for u in range(len(adj)) if (adj[v] >> u) & 1) for v in order)


def test_packed_leaf_key_orders_like_row_tuples():
    rng = random.Random(205)
    for n in (1, 5, 8, 9, 63, 64, 65, 130):
        isolated = set(rng.sample(range(n), min(n, 3)))
        adj = _random_graph(rng, n, rng.random(), isolated)
        matrix = _matrix(adj)
        for _ in range(20):
            a, b = list(range(n)), list(range(n))
            rng.shuffle(a)
            if rng.random() < 0.3 and n > 3:
                # swapping two isolated vertices gives an equal key
                b = list(a)
                i, j = (a.index(x) for x in rng.sample(sorted(isolated), 2))
                b[i], b[j] = b[j], b[i]
            else:
                rng.shuffle(b)
            ta, tb = _tuple_key(adj, a), _tuple_key(adj, b)
            pa, pb = (iso._leaf_key(matrix, np.array(o)) for o in (a, b))
            assert (pa < pb, pa == pb) == (ta < tb, ta == tb)


@pytest.mark.parametrize(
    "name, seeds",
    [("ag34", (0, 1, 2)), ("e2", (0, 1, 2)), ("e1", (0, 1, 2))],
    ids=["ag34", "e2", "e1"],
)
def test_labeling_invariance(request, name, seeds):
    design = request.getfixturevalue(name)
    frozen = {
        "ag34": (None, expected.AUT_ORDER_AG34, expected.AG34_BLOCK_ORBITS),
        "e1": (expected.E1_DIGEST, expected.AUT_ORDER_E1, expected.E1_BLOCK_ORBITS),
        "e2": (expected.E2_DIGEST, expected.AUT_ORDER_E2, expected.E2_BLOCK_ORBITS),
    }
    digest, order, block_orbits = frozen[name]
    base = canonical_cert(design)
    for seed in seeds:
        other = relabel(design, random.Random(seed))
        cert = canonical_cert(other)
        assert cert == base and cert.digest == base.digest
        if digest is not None:
            assert cert.digest == digest
        group = automorphism_group(other)
        assert group.order() == order
        assert tuple(sorted(len(o) for o in orbits(group, "blocks"))) == block_orbits


class _ReferenceBackjump(Exception):
    """Abandon the reference search's subtree up to the first-path node at `level`.

    Raised when a leaf turns out to be automorphism-equivalent to the first
    leaf: the whole sibling subtree then maps onto the already-explored
    first-path subtree, so nothing new (keys or generators) remains below.
    """

    def __init__(self, level: int):
        self.level = level


class _ReferenceSearch:
    """Reference labeling search for iso._Search: the same tree, less pruning.

    It backjumps only from leaves equal to the first leaf, and prunes a
    node's children only by the found generators that fix its whole prefix.
    Its best leaf key and group order must equal iso._Search's.
    """

    def __init__(self, adj: np.ndarray, cells: list[list[int]]):
        self.adj = adj
        self.weights = adj.astype(np.float32)
        self.n = len(adj)
        self.first_path: list[tuple[int, ...]] = []
        self.first_key = None
        self.first_order = None
        self.first_prefix: tuple[int, ...] = ()
        self.best_path: list[tuple[int, ...]] = []
        self.best_key = None
        self.best_order = None
        # generators found so far: the first self.ngens rows, capacity doubling
        self._gens = np.empty((8, self.n), dtype=np.intp)
        self.ngens = 0
        self._gen_keys: set[bytes] = set()
        cells = [c for c in cells if c]
        seq = np.array([x for c in cells for x in c], dtype=np.intp)
        cell = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
        starts = np.diff(cell, prepend=-1) != 0
        counts = iso._splitter_counts(self.weights, seq, starts, np.ones(self.n, dtype=bool))
        root = iso._refine(self.weights, seq, cell, counts)
        try:
            self._node(root, 0, eq_first=True, improving=True, dominated=False, prefix=[])
        except _ReferenceBackjump:  # pragma: no cover - a jump level is never below the root
            pass

    @property
    def gens(self) -> np.ndarray:
        """The verified generators found so far, one permutation per row."""
        return self._gens[: self.ngens]

    def group_order(self) -> int:
        """|Aut|: the product of the first path's stabilizer orbit lengths."""
        order = 1
        rows = self.gens
        for v in self.first_prefix:
            labels = iso._orbit_labels(rows, self.n)
            order *= int(np.count_nonzero(labels == labels[v]))
            rows = rows[rows[:, v] == v]
        return order

    # -- leaf helpers ------------------------------------------------------

    def _record_automorphism(self, ref_order, order) -> None:
        gamma = np.empty(self.n, dtype=np.intp)
        gamma[order] = ref_order
        key = gamma.tobytes()
        if key in self._gen_keys or (gamma == np.arange(self.n)).all():
            return
        if not np.array_equal(self.adj[np.ix_(gamma, gamma)], self.adj):
            return
        if self.ngens == len(self._gens):
            self._gens = np.concatenate([self._gens, np.empty_like(self._gens)])
        self._gens[self.ngens] = gamma
        self.ngens += 1
        self._gen_keys.add(key)

    # -- search ------------------------------------------------------------

    def _node(self, partition, depth, eq_first, improving, dominated, prefix) -> None:
        seq, cell = partition
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        sizes = np.diff(starts, append=self.n)
        inv = tuple(sizes.tolist())
        if self.first_key is None:
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
            order = seq
            key = iso._leaf_key(self.adj, order)
            if self.first_key is None:
                self.first_key = key
                self.first_order = order
                self.first_prefix = tuple(prefix)
                self.best_key = key
                self.best_order = order
                return
            collide = eq_first and key == self.first_key
            if collide:
                self._record_automorphism(self.first_order, order)
            if not dominated:
                if improving or self.best_key is None or key > self.best_key:
                    if self.best_key is not None and key == self.best_key:
                        self._record_automorphism(self.best_order, order)
                    else:
                        self.best_key = key
                        self.best_order = order
                elif key == self.best_key:
                    self._record_automorphism(self.best_order, order)
            if collide:
                level = 0
                for a, b in zip(prefix, self.first_prefix):
                    if a != b:
                        break
                    level += 1
                raise _ReferenceBackjump(level)
            return

        target = int(np.argmin(np.where(sizes > 1, sizes, self.n + 1)))
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
                    rows = self.gens
                    if prefix:
                        rows = rows[(rows[:, prefix] == prefix).all(axis=1)]
                    labels = iso._orbit_labels(rows, self.n)
                    built = self.ngens
                if (labels[processed] == labels[v]).any():
                    continue
            child_seq = seq.copy()
            child_seq[lo] = v
            child_seq[lo + 1 : hi] = members[members != v]
            child = iso._refine(self.weights, child_seq, child_cell, self.weights[:, [v]])
            prefix.append(v)
            try:
                self._node(child, depth + 1, eq_first, improving and first_child, dominated, prefix)
            except _ReferenceBackjump as bj:
                if bj.level < depth:
                    raise
            finally:
                prefix.pop()
            first_child = False
            processed.append(v)


def _check_search(adj, cells):
    """iso._Search on a colored graph, checked against the reference search."""
    search = iso._Search(adj, cells)
    ref = _ReferenceSearch(adj, cells)
    assert search.best_key == ref.best_key
    assert search.group_order() == ref.group_order()
    assert search.backjumps <= search.leaves <= search.nodes
    return search


def _relabeled_graph(rng, adj, cells):
    """The same colored graph with its vertices renumbered at random."""
    n = len(adj)
    perm = rng.sample(range(n), n)
    image = np.zeros_like(adj)
    image[np.ix_(perm, perm)] = adj
    return image, [[perm[x] for x in c] for c in cells]


def _symmetric_graph(rng, kind):
    """A random colored graph with a nontrivial automorphism group."""
    if kind == "circulant":
        # vertex i ~ i + s for s in S = -S; colors by residue mod a divisor of n
        n = rng.randrange(5, 31)
        steps = {s for s in range(1, n) if rng.random() < 0.3}
        steps |= {n - s for s in steps}
        adj = np.array([[(j - i) % n in steps for j in range(n)] for i in range(n)])
        m = rng.choice([k for k in range(1, n + 1) if n % k == 0 and k <= 4])
        cells = [list(range(r, n, m)) for r in range(m)]
    else:
        # k copies of one random colored graph, joined copy to copy by a random pattern
        h, k = rng.randrange(2, 8), rng.randrange(2, 5)
        inner = np.triu(np.array([[rng.random() < 0.4 for _ in range(h)] for _ in range(h)]), 1)
        inner |= inner.T
        outer = np.array([[rng.random() < 0.2 for _ in range(h)] for _ in range(h)])
        outer |= outer.T
        adj = np.kron(np.eye(k, dtype=bool), inner) | np.kron(~np.eye(k, dtype=bool), outer)
        color = [rng.randrange(3) for _ in range(h)]
        cells = [[c * h + x for c in range(k) for x in range(h) if color[x] == col] for col in range(3)]
    return _relabeled_graph(rng, adj, cells)


def test_search_matches_reference_on_random_graphs():
    rng = random.Random(207)
    orders = []
    for trial in range(60):
        adj, cells = _symmetric_graph(rng, ("circulant", "copies")[trial % 2])
        orders.append(_check_search(adj, cells).group_order())
    assert sum(order > 1 for order in orders) >= 50


def _cyclic_design(rng):
    """Blocks developed from random base blocks under i -> i + 1 mod v; some repeated."""
    v = rng.randrange(4, 14)
    blocks = []
    for _ in range(rng.randrange(1, 4)):
        base = rng.sample(range(v), rng.randrange(1, v))
        orbit = [tuple(sorted((x + i) % v for x in base)) for i in range(v)]
        blocks += orbit * rng.choice((1, 1, 2))
    return IncidenceStructure(v, blocks)


def test_search_matches_reference_on_designs(fano, k4_edges, ag34, pg34, e2):
    rng = random.Random(208)
    designs = [_cyclic_design(rng) for _ in range(40)]
    assert any(len(set(d.blocks)) < d.b for d in designs)
    for design in (fano, k4_edges, pg_design(3, 2, 2)):
        designs += [relabel(design, random.Random(seed)) for seed in range(3)]
    designs += [
        relabel(ag34, random.Random(0)),
        relabel(pg34, random.Random(2)),
        relabel(e2, random.Random(1)),
    ]
    for design in designs:
        adj, cells, _, _ = iso._graph(design)
        _check_search(adj, cells)


@pytest.mark.parametrize(
    "name, seed, ceiling",
    [("pg34", 1, 110), ("e1", 0, 500), ("e1", 6, 2800)],
    ids=["pg34-1", "e1-0", "e1-6"],
)
def test_search_tree_node_ceilings(request, name, seed, ceiling):
    # Pruning never changes a result, only the tree's size: a weaker rule
    # shows here as more refined nodes before it shows as a slower suite.
    design = relabel(request.getfixturevalue(name), random.Random(seed))
    adj, cells, _, _ = iso._graph(design)
    search = iso._Search(adj, cells)
    assert search.nodes <= ceiling
    assert 0 < search.backjumps <= search.leaves <= search.nodes


# The labeling search's tree on the bundled designs and two seeded
# relabelings of each: (nodes, leaves, backjumps), |Aut| and the SHA-256 of
# repr(generator rows).  The node ceilings above catch weaker pruning; these
# catch any change to the tree, such as another splitter order, branching
# order or set of pruning generators, even one that keeps every digest.
SEARCH_TREES = [
    ("ag34", None, (75, 14, 12), 23224320, "e2051930f75e31f63362b9cc6df71533e9ef0e31c9b3b36f4c56c0e16f8f0053"),
    ("ag34", 1, (75, 14, 12), 23224320, "07138471480d1682a06b0613c56a450e731e535e11c74b41b164bc63f7330327"),
    ("ag34", 2, (69, 13, 11), 23224320, "5a6763d59f339895e30491060af0f7e37e822377f4b4a8c6d44769182ba82c8e"),
    ("pg34", None, (108, 17, 15), 1974067200, "0264256ef16ab579d796f53ec3639a0c09497a6e3d62652f1c96c00da795243b"),
    ("pg34", 1, (98, 16, 14), 1974067200, "68fa30eb64e05f70b44a3b9ab602137ee5df65de7b103705ac678bfb6891a21a"),
    ("pg34", 2, (98, 16, 14), 1974067200, "0b9ca368533815bc930d61583e42fe90adb5e82b5436bb117a3da383935943d2"),
    ("e1", None, (401, 34, 8), 92160, "9df4bd2f839d684555e2b3ce1bec812ca97b06314caf4a40ef1de20dfe57838c"),
    ("e1", 1, (412, 42, 9), 92160, "c1465519a87b34dca6729a2f1800f6df760a94c8b497b5e63723ebd9bc3d0c19"),
    ("e1", 2, (1452, 35, 8), 92160, "41dbbe926e6036ae2fdc15346e0fe60c0bc2a2d734e89e8dfc2f10b222e5fbdf"),
    ("e2", None, (170, 23, 11), 368640, "79b5f2f7eeb9685e542c0a0666478615b6f66837c0e0ec97c3630f5ccb29c35b"),
    ("e2", 1, (125, 16, 7), 368640, "2299109c00db3450f5755b6fc856e6debe802a75f424c54fba053d834dc95226"),
    ("e2", 2, (174, 15, 9), 368640, "c911c722d74c980a0a4efbe55cab73d8f911d15933185db15c5e769177503796"),
]


@pytest.mark.parametrize(
    "name, seed, tree, order, gens_sha256",
    SEARCH_TREES,
    ids=[f"{name}-{'bundled' if seed is None else seed}" for name, seed, *_ in SEARCH_TREES],
)
def test_search_tree_pins(request, name, seed, tree, order, gens_sha256):
    design = request.getfixturevalue(name)
    if seed is not None:
        design = relabel(design, random.Random(seed))
    adj, cells, _, _ = iso._graph(design)
    search = iso._Search(adj, cells)
    assert (search.nodes, search.leaves, search.backjumps) == tree
    assert search.group_order() == order
    assert hashlib.sha256(repr(search.gens.tolist()).encode()).hexdigest() == gens_sha256


def _loop_schreier_step(rows, x):
    """Reference for iso._schreier_step: one generator at a time, arrays compared whole."""
    n = rows.shape[1]
    identity = np.arange(n)
    transversal = {x: (identity, identity)}  # y -> (u_y, u_y^-1)
    queue = [x]
    found = {}
    for y in queue:
        u = transversal[y][0]
        for s in rows:
            su = s[u]
            z = int(su[x])
            if z not in transversal:
                inverse = np.empty(n, dtype=np.intp)
                inverse[su] = identity
                transversal[z] = (su, inverse)
                queue.append(z)
                continue
            g = transversal[z][1][su]
            key = g.tobytes()
            if key not in found and not np.array_equal(g, identity):
                found[key] = g
                if len(found) == iso._ORBIT_BLOCK:
                    return np.array(list(found.values()))
    return np.array(list(found.values()), dtype=np.intp).reshape(-1, n)


def _assert_schreier_step_matches_loop(rows, x):
    got = iso._schreier_step(rows, x)
    want = _loop_schreier_step(rows, x)
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
    return len(got)


def test_schreier_step_matches_loop_on_random_groups():
    rng = random.Random(209)
    sizes = []
    for n in (1, 2, 9, 40, 150):
        for k in (0, 1, 2, 3, 6):
            rows = np.array([_partial_shuffle(rng, n) for _ in range(k)], dtype=np.intp)
            rows = rows.reshape(k, n)
            for x in {0, n - 1, rng.randrange(n)}:
                sizes.append(_assert_schreier_step_matches_loop(rows, x))
    assert 0 in sizes and iso._ORBIT_BLOCK in sizes
    assert any(0 < size < iso._ORBIT_BLOCK for size in sizes)


def test_schreier_step_matches_loop_on_found_generators(ag34, pg34, e1, e2):
    rng = random.Random(210)
    for design in (ag34, pg34, e1, e2):
        group = automorphism_group(design)
        rows = np.array(group.generators, dtype=np.intp)
        for x in (0, design.v, group.degree - 1, *rng.sample(range(group.degree), 3)):
            _assert_schreier_step_matches_loop(rows, x)
            # a step from a step's generators, as the search takes them down a path
            below = iso._schreier_step(rows, x)
            _assert_schreier_step_matches_loop(below, rng.randrange(group.degree))


def test_leaf_store_jumps_only_along_mapped_paths(fano):
    # On a real search an equal key always comes with an automorphism that
    # maps the new leaf's path onto the stored one; a forged stored path
    # checks that the jump still depends on it.
    adj, cells, _, _ = iso._graph(fano)
    search = iso._Search(adj, cells)
    key = iso._leaf_key(adj, search.best_order)
    order, prefix = search._leaves[key]
    assert len(prefix) > 0
    with pytest.raises(iso._Backjump) as jump:
        search._leaf(order, list(prefix), improving=False, dominated=False)
    assert jump.value.level == len(prefix)
    search._leaves[key] = (order, tuple((x + 1) % len(adj) for x in prefix))
    search._leaf(order, list(prefix), improving=False, dominated=False)


def _partial_shuffle(rng, n):
    """A permutation of range(n) moving only a random subset, so orbits vary in size."""
    moved = rng.sample(range(n), rng.randrange(0, n + 1))
    image = moved[:]
    rng.shuffle(image)
    g = list(range(n))
    for a, b in zip(moved, image):
        g[a] = b
    return g


def test_orbit_labels_are_orbit_minima():
    rng = random.Random(206)
    for n in (1, 2, 9, 40, 150):
        for k in (0, 1, 2, 4, 70):
            gens = [_partial_shuffle(rng, n) for _ in range(k)]
            labels = iso._orbit_labels(gens, n)
            for a in range(n):
                orbit, todo = {a}, [a]
                while todo:
                    x = todo.pop()
                    for g in gens:
                        if g[x] not in orbit:
                            orbit.add(g[x])
                            todo.append(g[x])
                assert labels[a] == min(orbit)
