"""Session fixtures: small classic designs plus the expensive search pipeline.

The embedding searches and automorphism groups of the 2-(64,16,5) designs
take seconds each, so everything derived from them is session-scoped and
shared between the embedding tests and the acceptance suite.
"""

from importlib import resources

import pytest

from embedrank.cli import _good_block_in_orbit
from embedrank.designs import IncidenceStructure, good_block, parse_des, resolutions
from embedrank.embedding import embedding_search
from embedrank.geometry import ag_design, pg_design
from embedrank.iso import automorphism_group
from embedrank import expected

# Fano plane with the standard difference-set labeling.
FANO_BLOCKS = (
    (0, 1, 3),
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (0, 4, 5),
    (1, 5, 6),
    (0, 2, 6),
)


@pytest.fixture(scope="session")
def fano() -> IncidenceStructure:
    return IncidenceStructure(7, FANO_BLOCKS, name="fano")


@pytest.fixture(scope="session")
def k4_edges() -> IncidenceStructure:
    blocks = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return IncidenceStructure(4, blocks, name="K4 edges")


@pytest.fixture(scope="session")
def ag34_pair():
    return ag_design(3, 4, 2)


@pytest.fixture(scope="session")
def ag34(ag34_pair) -> IncidenceStructure:
    return ag34_pair[0]


@pytest.fixture(scope="session")
def ag34_resolution(ag34_pair):
    return ag34_pair[1]


@pytest.fixture(scope="session")
def pg34() -> IncidenceStructure:
    return pg_design(3, 4, 2)


@pytest.fixture(scope="session")
def ag34_gb(ag34):
    gb = good_block(ag34, 0)
    assert gb is not None
    return gb


@pytest.fixture(scope="session")
def dpp(ag34_gb) -> IncidenceStructure:
    return ag34_gb.substructure


@pytest.fixture(scope="session")
def dpp_group(dpp):
    return automorphism_group(dpp)


@pytest.fixture(scope="session")
def dpp_resolutions(dpp):
    return resolutions(dpp)


def relabel(design: IncidenceStructure, rng, name=None) -> IncidenceStructure:
    """The design with its points renumbered, then its blocks reordered, by `rng`.

    The tests' seeded digests and search trees depend on this order of `rng` calls.
    """
    return relabel_with_order(design, rng, name)[0]


def relabel_with_order(design: IncidenceStructure, rng, name=None) -> tuple[IncidenceStructure, list[int]]:
    """relabel(design, rng, name), and its block order: its block i is the design's block order[i]."""
    perm = list(range(design.v))
    rng.shuffle(perm)
    # A shuffle's swaps depend only on the length, so this is the blocks' own shuffle.
    order = list(range(design.b))
    rng.shuffle(order)
    blocks = [tuple(sorted(perm[x] for x in design.blocks[j])) for j in order]
    return IncidenceStructure(design.v, blocks, name=name), order


def _bundled(name: str) -> IncidenceStructure:
    text = resources.files("embedrank.data").joinpath(name).read_text()
    return parse_des(text)


@pytest.fixture(scope="session")
def e1() -> IncidenceStructure:
    return _bundled("e1.des")


@pytest.fixture(scope="session")
def e2() -> IncidenceStructure:
    return _bundled("e2.des")


def _rep_with_digest(result, digest: str) -> IncidenceStructure:
    for found, rep, _ in result.iso_classes:
        if found == digest:
            return rep
    raise AssertionError(f"no isomorphism class with digest {digest[:12]}")


@pytest.fixture(scope="session")
def stage1(ag34):
    return embedding_search(ag34, 0)


@pytest.fixture(scope="session")
def e1_found(stage1) -> IncidenceStructure:
    return _rep_with_digest(stage1, expected.E1_DIGEST)


@pytest.fixture(scope="session")
def e1_block(e1_found) -> int:
    """The good block of the found e1 that stage 2 searches over."""
    return _good_block_in_orbit(e1_found, 3)


@pytest.fixture(scope="session")
def stage2(e1_found, e1_block):
    return embedding_search(e1_found, e1_block)


@pytest.fixture(scope="session")
def e2_found(stage2) -> IncidenceStructure:
    return _rep_with_digest(stage2, expected.E2_DIGEST)


@pytest.fixture(scope="session")
def e2_block(e2_found) -> int:
    """The good block of the found e2 that stage 3 searches over."""
    return _good_block_in_orbit(e2_found, 4)


@pytest.fixture(scope="session")
def stage3(e2_found, e2_block):
    return embedding_search(e2_found, e2_block)
