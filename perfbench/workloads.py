"""The benchmark's workloads: inputs built from a seed, timed operations, checks.

Every workload is a list of `Op`s.  `run` makes one call into embedrank and
returns a JSON-able summary of its output (digests and counts); `check` lists
how that summary differs from the frozen constants in `embedrank.expected`.
Library functions are looked up on their modules at call time, so the
wrappers installed by `tracing.Tracer` see every call.  Every call that has a
`workers` argument gets `workers=1`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from embedrank import codes, designs, embedding, expected, geometry, iso

# Relabeling seeds of the `canon` panel, per design.  Canonical-labeling cost
# depends on the numbering (one labeling of e1 takes 2 s, another 87 s), so
# the panel is fixed rather than drawn from the workload seed.  It is sized
# so that one pass fits in one run: labelings that alone take 30 s or more,
# such as pg under seed 1 (2326 generators for sympy), are left out.
CANON_PANEL = {"ag": (0, 1, 2), "pg": (0, 2), "e1": (0, 1), "e2": (0, 1, 2)}

AUT_ORDER = {
    "ag": expected.AUT_ORDER_AG34,
    "pg": expected.AUT_ORDER_PG34,
    "e1": expected.AUT_ORDER_E1,
    "e2": expected.AUT_ORDER_E2,
}
# PG_2(3,4) is block-transitive: its 85 planes form one orbit.
BLOCK_ORBITS = {
    "ag": expected.AG34_BLOCK_ORBITS,
    "pg": (85,),
    "e1": expected.E1_BLOCK_ORBITS,
    "e2": expected.E2_BLOCK_ORBITS,
}
DIGEST = {"e1": expected.E1_DIGEST, "e2": expected.E2_DIGEST}


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    # Checks that compare outputs of several operations.
    final_check: Callable[[list[dict]], list[str]] = lambda outputs: []


def relabel(design, seed) -> designs.IncidenceStructure:
    """`design` with points and block order permuted by `random.Random(seed)`."""
    rng = random.Random(seed)
    perm = list(range(design.v))
    rng.shuffle(perm)
    blocks = [tuple(sorted(perm[x] for x in blk)) for blk in design.blocks]
    rng.shuffle(blocks)
    return designs.IncidenceStructure(design.v, blocks, name=design.name)


def bundled(name: str) -> designs.IncidenceStructure:
    return designs.parse_des(resources.files("embedrank.data").joinpath(name).read_text())


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: {got!r} != {want!r}")


# ---------------------------------------------------------------- search


def search(seed: int, panel=None) -> Workload:
    """Stage 1 of `reproduce section5` on AG_2(3,4) as constructed."""
    ag, _ = geometry.ag_design(3, 4, 2)

    def run():
        result = embedding.embedding_search(ag, 0, workers=1)
        counts: dict[str, int] = {}
        for record in result.records:
            for digest in record.cert_digests:
                counts[digest] = counts.get(digest, 0) + 1
        return {
            "candidates": result.candidates_examined,
            "viable_codes": result.viable_codes,
            "completions": len(result.designs),
            "classes": sorted(counts.items()),
        }

    def check(out):
        problems: list[str] = []
        _expect(problems, "candidates", out["candidates"], expected.SEARCH_CANDIDATES)
        _expect(problems, "viable codes", out["viable_codes"], expected.SEARCH_VIABLE)
        sizes = tuple(sorted(n for _, n in out["classes"]))
        _expect(problems, "class sizes", sizes, expected.SEARCH_CLASS_SIZES)
        _expect(problems, "e1 multiplicity", dict(out["classes"]).get(expected.E1_DIGEST), 12)
        return problems

    return Workload([Op("search", run, check)])


# ------------------------------------------------------------------ scan


def scan(seed: int, panel=None) -> Workload:
    """embedding_search over the 30 resolutions outside the good resolution's orbit.

    AG_2(3,4) is relabeled and a block is drawn from the seed.  No resolution
    in the Aut(D'')-orbits of length 10 and 20 meets the parallel-union
    condition (34 and 10 weight-32 unions < 120 needed), so each search must
    find 0 viable codes.
    """
    rng = random.Random(f"scan/{seed}")
    ag = relabel(geometry.ag_design(3, 4, 2)[0], rng.random())
    block = rng.randrange(ag.b)
    gb = designs.good_block(ag, block)
    dpp = gb.substructure
    res_list = designs.resolutions(dpp)
    orbit_list = iso.resolution_orbits(iso.automorphism_group(dpp), res_list)
    lengths = tuple(sorted(len(orb) for orb in orbit_list))
    if len(res_list) != expected.DPP_RESOLUTION_COUNT or lengths != expected.DPP_RESOLUTION_ORBITS:
        raise RuntimeError(f"D'' has {len(res_list)} resolutions in orbits {lengths}")
    good = gb.resolution.as_sets()
    targets = [
        (len(orb), res_list[i])
        for orb in orbit_list
        if not any(res_list[i].as_sets() == good for i in orb)
        for i in orb
    ]

    def op(orbit_len, resolution):
        def run():
            result = embedding.embedding_search(ag, block, resolution=resolution, workers=1)
            return {
                "orbit": orbit_len,
                "candidates": result.candidates_examined,
                "viable_codes": result.viable_codes,
                "completions": len(result.designs),
            }

        return Op(f"scan orbit {orbit_len}", run, check_scan)

    return Workload([op(n, r) for n, r in targets])


def check_scan(out):
    problems: list[str] = []
    _expect(problems, "candidates", out["candidates"], expected.SEARCH_CANDIDATES)
    if expected.PU_WEIGHT32_BY_ORBIT[out["orbit"]] >= expected.THM5_REQUIRED_43:
        problems.append(f"orbit {out['orbit']} meets the parallel-union condition")
    _expect(problems, "viable codes", out["viable_codes"], 0)
    _expect(problems, "completions", out["completions"], 0)
    return problems


# ----------------------------------------------------------------- canon


def canon(seed: int, panel=None) -> Workload:
    """Canonical form, |Aut| and block orbits of ag, pg, e1, e2 under a relabeling panel.

    `panel` overrides CANON_PANEL with one list of relabeling seeds for every
    design, for checking a claim on labelings it was not tuned on.
    """
    base = {
        "ag": geometry.ag_design(3, 4, 2)[0],
        "pg": geometry.pg_design(3, 4, 2),
        "e1": bundled("e1.des"),
        "e2": bundled("e2.des"),
    }
    ops = []
    for name, design in base.items():
        for r in panel if panel is not None else CANON_PANEL[name]:
            ops.append(_canon_op(name, r, relabel(design, r)))

    def final_check(outputs):
        problems: list[str] = []
        for name in ("ag", "pg"):
            digests = {o["digest"] for o in outputs if o and o["design"] == name}
            if len(digests) > 1:
                problems.append(f"{name}: {len(digests)} different canonical forms")
        return problems

    return Workload(ops, final_check)


def _canon_op(name: str, r: int, design) -> Op:
    def run():
        cert = iso.canonical_cert(design)
        group = iso.automorphism_group(design)
        return {
            "design": name,
            "relabel": r,
            "digest": cert.digest,
            "order": group.order(),
            "block_orbits": sorted(len(orb) for orb in iso.orbits(group, "blocks")),
            "generators": len(group.generators),
        }

    def check(out):
        problems: list[str] = []
        label = f"{name} relabel {r}"
        _expect(problems, f"{label} |Aut|", out["order"], AUT_ORDER[name])
        _expect(problems, f"{label} block orbits", tuple(out["block_orbits"]), BLOCK_ORBITS[name])
        if name in DIGEST:
            _expect(problems, f"{label} digest", out["digest"], DIGEST[name])
        return problems

    return Op(f"canon {name} relabel {r}", run, check)


# ----------------------------------------------------------------- codes


def codes_workload(seed: int, panel=None) -> Workload:
    """Weight enumeration: Table 1, the AG_3(4,4) [336,24] code, and section 6.

    AG_2(3,4) and AG_3(4,4) are relabeled and their blocks drawn from the
    seed.  Section 6 runs on the designs as constructed and bundled: the
    symmetric completion of a relabeled AG_2(3,4) costs 6-12 s of canonical
    labeling instead of 0.3 s, which would make `iso` dominate this workload.
    """
    rng = random.Random(f"codes/{seed}")
    ag = relabel(geometry.ag_design(3, 4, 2)[0], rng.random())
    gb = designs.good_block(ag, rng.randrange(ag.b))
    code15 = codes.code_from_bitrows(gb.substructure.point_masks(), gb.substructure.b)
    ag44 = relabel(geometry.ag_design(4, 4, 3)[0], rng.random())
    block44 = rng.randrange(ag44.b)
    gb44 = designs.good_block(ag44, block44)
    code24 = codes.code_from_bitrows(gb44.substructure.point_masks(), gb44.substructure.b)
    section6 = {"ag": geometry.ag_design(3, 4, 2)[0], "e1": bundled("e1.des"), "e2": bundled("e2.des")}

    def table1():
        wd = codes.weight_distribution(code15, workers=1)
        return {"counts": {str(w): n for w, n in wd.counts.items()}}

    def check_table1(out):
        counts = {int(w): n for w, n in out["counts"].items()}
        problems: list[str] = []
        for w, n in {**expected.TABLE1_LISTED, **expected.TABLE1_UNLISTED_SPLIT}.items():
            _expect(problems, f"A_{w}", counts.get(w, 0), n)
        unlisted = sum(counts.get(w, 0) for w in expected.TABLE1_UNLISTED_SPLIT)
        _expect(problems, "A_42+A_44+A_46", unlisted, expected.TABLE1_UNLISTED_TOTAL)
        _expect(problems, "total", sum(counts.values()), 1 << 15)
        return problems

    def taf(name):
        def run():
            nc = embedding.thm_taf_necessary(section6[name])
            return {"design": name, "required": nc.required, "found": nc.found}

        def check(out):
            problems: list[str] = []
            _expect(problems, f"{name} required", out["required"], expected.TAF_REQUIRED_43)
            _expect(problems, f"{name} found", out["found"], expected.TAF_FOUND[name])
            return problems

        return Op(f"taf {name}", run, check)

    def sym(name):
        def run():
            s = embedding.sym_embedding_search(section6[name])
            return {
                "design": name,
                "weight_count": s.weight_count,
                "designs": len(s.designs),
                "target": list(s.target_params),
            }

        def check(out):
            problems: list[str] = []
            _expect(problems, f"{name} weight-21 words", out["weight_count"], expected.SYM_W21[name])
            _expect(problems, f"{name} designs", out["designs"], expected.SYM_DESIGNS[name])
            _expect(problems, f"{name} target", tuple(out["target"]), expected.SYM_TARGET_PARAMS)
            return problems

        return Op(f"sym {name}", run, check)

    def ag44_wdist():
        wd = codes.weight_distribution(code24, workers=1)
        return {"length": wd.length, "dim": wd.dim, "total": wd.total(), "w128": wd[128]}

    def check_ag44_wdist(out):
        problems: list[str] = []
        _expect(problems, "[n, k]", (out["length"], out["dim"]), expected.AG44_MPP_CODE)
        _expect(problems, "total", out["total"], 1 << 24)
        _expect(problems, "A_128", out["w128"], expected.AG44_W128)
        return problems

    def ag44_w128():
        return {"words": len(codes.codewords_of_weight(code24, 128, workers=1))}

    def check_ag44_w128(out):
        problems: list[str] = []
        _expect(problems, "weight-128 words", out["words"], expected.AG44_W128)
        return problems

    def ag44_thm5():
        nc = embedding.thm5_necessary(ag44, block44)
        return {"required": nc.required, "found": nc.found, "passes": nc.passes}

    def check_ag44_thm5(out):
        problems: list[str] = []
        _expect(problems, "required", out["required"], expected.AG44_THM5_REQUIRED)
        _expect(problems, "parallel unions", out["found"], expected.AG44_W128_PU)
        _expect(problems, "passes", out["passes"], expected.AG44_W128_PU >= expected.AG44_THM5_REQUIRED)
        return problems

    ops = [Op("table1", table1, check_table1)]
    ops += [taf(name) for name in section6]
    ops += [sym(name) for name in section6]
    ops += [
        Op("ag44 weight distribution", ag44_wdist, check_ag44_wdist),
        Op("ag44 weight-128 words", ag44_w128, check_ag44_w128),
        Op("ag44 thm5", ag44_thm5, check_ag44_thm5),
    ]
    return Workload(ops)


WORKLOADS = {"search": search, "scan": scan, "canon": canon, "codes": codes_workload}
