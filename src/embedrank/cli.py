"""Command-line interface.

Subcommands cover the whole pipeline: generating designs (`gen`), ranks and
weight distributions (`rank`, `wdist`), block restrictions (`residual`,
`derived`), structure inspection (`resolutions`, `goodblocks`), embeddability
tests (`embeddable`, `thm5`), the completion searches (`embed-search`,
`sym-embed`), isomorphism tools (`iso`, `aut`) and `reproduce`, which reruns
a stored computation and diffs it against the frozen values in `expected`.

Usage errors exit 2 (argparse).  Computation errors exit 1 and print a JSON
object {"error": <class>, "message": <text>} on stderr.  All output is
deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from . import expected
from .codes import (
    bent_quadratic,
    code_from_cols,
    code_from_rows,
    min_weight_design,
    rm_code,
    sdp_code,
    weight_distribution,
)
from .designs import (
    IncidenceStructure,
    emit_des,
    good_block,
    load_design,
    parallel_classes,
    parse_des,
    resolutions,
)
from .embedding import (
    embeddability,
    embedding_search,
    sym_embedding_search,
    thm5_necessary,
    thm_taf_necessary,
)
from .errors import EmbedrankError, WrongParameters
from .geometry import ag_design, pg_design
from .iso import (
    are_isomorphic,
    automorphism_group,
    canonical_cert,
    orbits,
    resolution_orbits,
)
from .linalg import mat_rank


def _emit_text(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _bundled_design(name: str) -> IncidenceStructure:
    text = resources.files("embedrank.data").joinpath(name).read_text()
    return parse_des(text)


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _error_json(name: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": name, "message": message}) + "\n")


# ---------------------------------------------------------------- subcommands


def _cmd_gen(args) -> int:
    if args.family == "ag":
        design, _ = ag_design(args.n, args.q, args.d)
    elif args.family == "pg":
        design = pg_design(args.n, args.q, args.d)
    elif args.family == "sdp":
        design = min_weight_design(sdp_code(bent_quadratic(args.m)))
    else:
        design = min_weight_design(rm_code(args.r, args.m))
    _emit_text(emit_des(design), args.out)
    return 0


def _cmd_rank(args) -> int:
    design = load_design(args.des)
    print(mat_rank(design.incidence_matrix(args.p)))
    return 0


def _cmd_wdist(args) -> int:
    design = load_design(args.des)
    m = design.incidence_matrix(args.p)
    code = code_from_rows(m) if args.rows else code_from_cols(m)
    wd = weight_distribution(code, cap=args.cap)
    sys.stdout.write(wd.as_csv())
    return 0


def _cmd_restrict(args) -> int:
    from .designs import derived, residual

    op = residual if args.op == "residual" else derived
    design = load_design(args.des)
    out = op(design, args.block, keep_empty=args.keep_empty)
    _emit_text(emit_des(out), args.out)
    return 0


def _cmd_resolutions(args) -> int:
    design = load_design(args.des)
    classes = parallel_classes(design)
    sols = resolutions(design, limit=args.limit)
    if args.json:
        _print_json(
            {
                "parallel_classes": len(classes),
                "count": len(sols),
                "resolutions": [[list(c) for c in r.classes] for r in sols],
            }
        )
        return 0
    print(f"{len(sols)} resolutions, {len(classes)} parallel classes")
    for i, r in enumerate(sols):
        print(f"{i}: " + "; ".join(",".join(map(str, c)) for c in r.classes))
    return 0


def _cmd_goodblocks(args) -> int:
    design = load_design(args.des)
    for j in range(design.b):
        if good_block(design, j) is not None:
            print(j)
    return 0


def _cmd_embeddable(args) -> int:
    design = load_design(args.des)
    rep = embeddability(design, args.block, p=args.p)
    _print_json(
        {
            "rank_full": rep.rank_full,
            "rank_residual": rep.rank_residual,
            "embeddable": rep.embeddable,
        }
    )
    return 0


def _cmd_thm5(args) -> int:
    design = load_design(args.des)
    nc = thm5_necessary(design, args.block)
    _print_json({"required": nc.required, "found": nc.found, "passes": nc.passes})
    return 0


def _search_report(result) -> dict:
    classes = []
    for rep, mult in result.iso_classes:
        classes.append({"digest": canonical_cert(rep).digest, "multiplicity": mult})
    records = []
    for rec in result.records:
        records.append(
            {
                "candidate_index": rec.candidate_index,
                "dim": rec.dim,
                "n_designs": rec.n_designs,
                "digests": list(rec.cert_digests),
            }
        )
    return {
        "candidates_examined": result.candidates_examined,
        "viable_codes": result.viable_codes,
        "n_designs": len(result.designs),
        "iso_classes": classes,
        "records": records,
    }


def _export_designs(designs, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for design in designs:
        cert = canonical_cert(design)
        path = os.path.join(out_dir, f"design-{cert.digest[:16]}.des")
        with open(path, "wb") as fh:
            fh.write(cert.payload)


def _cmd_embed_search(args) -> int:
    design = load_design(args.des)
    result = embedding_search(design, args.block)
    _print_json(_search_report(result))
    if args.out:
        _export_designs([rep for rep, _ in result.iso_classes], args.out)
    return 0


def _cmd_sym_embed(args) -> int:
    design = load_design(args.des)
    result = sym_embedding_search(design)
    _print_json(
        {
            "target_params": list(result.target_params),
            "weight_count": result.weight_count,
            "n_designs": len(result.designs),
            "digests": [canonical_cert(d).digest for d in result.designs],
        }
    )
    if args.out:
        _export_designs(result.designs, args.out)
    return 0


def _cmd_iso(args) -> int:
    d1 = load_design(args.des1)
    d2 = load_design(args.des2)
    print("isomorphic" if are_isomorphic(d1, d2) else "nonisomorphic")
    return 0


def _cmd_aut(args) -> int:
    design = load_design(args.des)
    group = automorphism_group(design)
    if args.orbits is None:
        print(f"order {group.order()}")
        print(f"generators {len(group.generators)}")
        return 0
    if args.orbits == "resolutions":
        sols = resolutions(design)
        orbs = resolution_orbits(group, sols)
    else:
        orbs = orbits(group, args.orbits)
    for orb in orbs:
        print(",".join(map(str, orb)))
    return 0


# ----------------------------------------------------------------- reproduce


def _mpp_code(design: IncidenceStructure, block_idx: int):
    gb = good_block(design, block_idx)
    if gb is None:
        raise WrongParameters(f"block {block_idx} is not a good block")
    return code_from_rows(gb.substructure.incidence_matrix(2))


def _good_block_in_orbit(design: IncidenceStructure, orbit_len: int) -> int:
    """Least good-block index whose Aut-orbit has the given length."""
    group = automorphism_group(design)
    length = {}
    for orb in orbits(group, "blocks"):
        for j in orb:
            length[j] = len(orb)
    for j in range(design.b):
        if length[j] == orbit_len and good_block(design, j) is not None:
            return j
    raise WrongParameters(f"no good block in an orbit of length {orbit_len}")


def _repro_fail(mismatches: list[str]) -> int:
    if not mismatches:
        return 0
    _error_json("ReproduceMismatch", "; ".join(mismatches))
    return 1


def _check_distribution(wd, listed: dict[int, int], mismatches: list[str]) -> None:
    for w in sorted(listed):
        if wd.counts.get(w, 0) != listed[w]:
            mismatches.append(f"A_{w} = {wd.counts.get(w, 0)}, expected {listed[w]}")


def _repro_table1(args) -> int:
    design, _ = ag_design(3, 4, 2)
    code = _mpp_code(design, 0)
    wd = weight_distribution(code)
    sys.stdout.write(wd.as_csv())
    mismatches: list[str] = []
    _check_distribution(wd, expected.TABLE1_LISTED, mismatches)
    _check_distribution(wd, expected.TABLE1_UNLISTED_SPLIT, mismatches)
    unlisted = sum(wd.counts.get(w, 0) for w in (42, 44, 46))
    if unlisted != expected.TABLE1_UNLISTED_TOTAL:
        mismatches.append(f"A_42+A_44+A_46 = {unlisted}, expected {expected.TABLE1_UNLISTED_TOTAL}")
    if wd.total() != 1 << 15:
        mismatches.append(f"total {wd.total()}, expected 2^15")
    return _repro_fail(mismatches)


def _repro_table2(args) -> int:
    design = _bundled_design("e1.des")
    block = _good_block_in_orbit(design, 3)
    code = _mpp_code(design, block)
    wd = weight_distribution(code)
    sys.stdout.write(wd.as_csv())
    mismatches: list[str] = []
    full = dict(expected.TABLE2)
    full[0] = 1
    if wd.counts != full:
        _check_distribution(wd, full, mismatches)
        extra = sorted(set(wd.counts) - set(full))
        if extra:
            mismatches.append(f"unexpected weights {extra}")
    if wd.total() != 1 << 15:
        mismatches.append(f"total {wd.total()}, expected 2^15")
    return _repro_fail(mismatches)


def _stage_report(
    label: str,
    result,
    names: dict[str, str],
    expected_classes: dict[str, int],
    mismatches: list[str],
) -> dict[str, IncidenceStructure]:
    print(label)
    print(
        f"  candidates {result.candidates_examined}, "
        f"viable codes {result.viable_codes}, designs {len(result.designs)}"
    )
    if result.candidates_examined != expected.SEARCH_CANDIDATES:
        mismatches.append(f"candidates {result.candidates_examined} != {expected.SEARCH_CANDIDATES}")
    if result.viable_codes != expected.SEARCH_VIABLE:
        mismatches.append(f"viable codes {result.viable_codes} != {expected.SEARCH_VIABLE}")
    reps: dict[str, IncidenceStructure] = {}
    found: dict[str, int] = {}
    parts = []
    for rep, mult in result.iso_classes:
        digest = canonical_cert(rep).digest
        name = names.get(digest, digest[:12])
        reps[name] = rep
        found[name] = mult
        parts.append(f"{mult} x {name}")
    print("  classes: " + ", ".join(parts))
    if found != expected_classes:
        mismatches.append(f"classes {found} != {expected_classes}")
    return reps


def _design_facts(
    name: str,
    design: IncidenceStructure,
    order: int,
    orbit_lengths: tuple[int, ...],
    mismatches: list[str],
) -> None:
    group = automorphism_group(design)
    got_order = group.order()
    got_orbits = tuple(sorted(len(o) for o in orbits(group, "blocks")))
    got_rank = mat_rank(design.incidence_matrix(2))
    print(
        f"  |Aut({name})| = {got_order}, 2-rank {got_rank}, "
        f"block orbits {','.join(map(str, got_orbits))}"
    )
    if got_order != order:
        mismatches.append(f"|Aut({name})| = {got_order} != {order}")
    if got_orbits != orbit_lengths:
        mismatches.append(f"{name} block orbits {got_orbits} != {orbit_lengths}")
    if got_rank != 16:
        mismatches.append(f"2-rank({name}) = {got_rank} != 16")


def _repro_section5(args) -> int:
    mismatches: list[str] = []
    ag, _ = ag_design(3, 4, 2)
    names = {
        canonical_cert(ag).digest: "ag",
        expected.E1_DIGEST: "e1",
        expected.E2_DIGEST: "e2",
    }

    result1 = embedding_search(ag, 0)
    reps = _stage_report(
        "stage 1: ag = AG_2(3,4), block 0", result1, names, expected.STAGE1_CLASSES, mismatches
    )
    if "e1" not in reps:
        mismatches.append("stage 1 found no design with the stored e1 canonical form")
        return _repro_fail(mismatches)
    e1 = reps["e1"]
    _design_facts("e1", e1, expected.AUT_ORDER_E1, expected.E1_BLOCK_ORBITS, mismatches)

    block2 = _good_block_in_orbit(e1, 3)
    result2 = embedding_search(e1, block2)
    reps2 = _stage_report(
        f"stage 2: e1, block {block2} (orbit length 3)",
        result2,
        names,
        expected.STAGE2_CLASSES,
        mismatches,
    )
    if "e2" not in reps2:
        mismatches.append("stage 2 found no design with the stored e2 canonical form")
        return _repro_fail(mismatches)
    e2 = reps2["e2"]
    _design_facts("e2", e2, expected.AUT_ORDER_E2, expected.E2_BLOCK_ORBITS, mismatches)

    block3 = _good_block_in_orbit(e2, 4)
    result3 = embedding_search(e2, block3)
    _stage_report(
        f"stage 3: e2, block {block3} (orbit length 4)",
        result3,
        names,
        expected.STAGE3_CLASSES,
        mismatches,
    )

    print("ok" if not mismatches else "mismatch")
    return _repro_fail(mismatches)


def _repro_section6(args) -> int:
    mismatches: list[str] = []
    ag, _ = ag_design(3, 4, 2)
    instances = [
        ("ag", ag),
        ("e1", _bundled_design("e1.des")),
        ("e2", _bundled_design("e2.des")),
    ]

    print(f"parallel-union condition (weight 32, own resolution): required {expected.TAF_REQUIRED_43}")
    for name, design in instances:
        nc = thm_taf_necessary(design)
        print(f"  {name}: found {nc.found}, {'passes' if nc.passes else 'fails'}")
        if nc.required != expected.TAF_REQUIRED_43 or nc.found != expected.TAF_FOUND[name]:
            mismatches.append(
                f"{name}: required/found {nc.required}/{nc.found}, "
                f"expected {expected.TAF_REQUIRED_43}/{expected.TAF_FOUND[name]}"
            )

    vkl = ",".join(map(str, expected.SYM_TARGET_PARAMS))
    print(f"symmetric embedding in 2-({vkl}):")
    for name, design in instances:
        sym = sym_embedding_search(design)
        print(
            f"  {name}: {sym.weight_count} weight-21 codewords, "
            f"{len(sym.designs)} design(s)"
        )
        if sym.weight_count != expected.SYM_W21[name]:
            mismatches.append(f"{name}: weight count {sym.weight_count} != {expected.SYM_W21[name]}")
        if len(sym.designs) != expected.SYM_DESIGNS[name]:
            mismatches.append(f"{name}: {len(sym.designs)} designs != {expected.SYM_DESIGNS[name]}")
        if name == "ag" and sym.designs:
            if are_isomorphic(sym.designs[0], pg_design(3, 4, 2)):
                print("  the design is isomorphic to PG_2(3,4)")
            else:
                mismatches.append("the symmetric completion of ag is not PG_2(3,4)")

    print("ok" if not mismatches else "mismatch")
    return _repro_fail(mismatches)


def _cmd_reproduce(args) -> int:
    target = {
        "table1": _repro_table1,
        "table2": _repro_table2,
        "section5": _repro_section5,
        "section6": _repro_section6,
    }[args.target]
    return target(args)


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedrank",
        description="Designs from finite geometries: p-ranks, codes, embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a design and write it as .des")
    gsub = gen.add_subparsers(dest="family", required=True)
    g_ag = gsub.add_parser("ag", help="d-flats of the affine geometry AG(n,q)")
    for name in ("n", "q", "d"):
        g_ag.add_argument(name, type=int)
    g_pg = gsub.add_parser("pg", help="d-flats of the projective geometry PG(n,q)")
    for name in ("n", "q", "d"):
        g_pg.add_argument(name, type=int)
    g_sdp = gsub.add_parser("sdp", help="symmetric SDP design from a quadratic bent function")
    g_sdp.add_argument("m", type=int)
    g_rm = gsub.add_parser("rm", help="design of minimum-weight codewords of RM(r,m)")
    g_rm.add_argument("r", type=int)
    g_rm.add_argument("m", type=int)
    for p in (g_ag, g_pg, g_sdp, g_rm):
        p.add_argument("-o", "--out", help="output path (default stdout)")
        p.set_defaults(func=_cmd_gen)

    rank = sub.add_parser("rank", help="p-rank of the incidence matrix")
    rank.add_argument("des")
    rank.add_argument("-p", type=int, default=2)
    rank.set_defaults(func=_cmd_rank)

    wdist = sub.add_parser("wdist", help="weight distribution of the row or column code (CSV)")
    wdist.add_argument("des")
    which = wdist.add_mutually_exclusive_group(required=True)
    which.add_argument("--rows", action="store_true")
    which.add_argument("--cols", action="store_true")
    wdist.add_argument("-p", type=int, default=2)
    wdist.add_argument("--cap", type=int, default=None)
    wdist.set_defaults(func=_cmd_wdist)

    for op in ("residual", "derived"):
        r = sub.add_parser(op, help=f"{op} design with respect to a block")
        r.add_argument("des")
        r.add_argument("block", type=int)
        r.add_argument("--keep-empty", action="store_true", help="keep empty/full restrictions")
        r.add_argument("-o", "--out", help="output path (default stdout)")
        r.set_defaults(func=_cmd_restrict, op=op)

    res = sub.add_parser("resolutions", help="enumerate resolutions")
    res.add_argument("des")
    res.add_argument("--limit", type=int, default=None)
    res.add_argument("--json", action="store_true")
    res.set_defaults(func=_cmd_resolutions)

    gb = sub.add_parser("goodblocks", help="indices of good blocks, one per line")
    gb.add_argument("des")
    gb.set_defaults(func=_cmd_goodblocks)

    emb = sub.add_parser("embeddable", help="rank test for linear embeddability")
    emb.add_argument("des")
    emb.add_argument("block", type=int)
    emb.add_argument("-p", type=int, default=2)
    emb.set_defaults(func=_cmd_embeddable)

    t5 = sub.add_parser("thm5", help="parallel-union codeword count vs the required bound")
    t5.add_argument("des")
    t5.add_argument("block", type=int)
    t5.set_defaults(func=_cmd_thm5)

    es = sub.add_parser("embed-search", help="search completions of a residual with good block")
    es.add_argument("des")
    es.add_argument("block", type=int)
    es.add_argument("--out", help="directory for .des exports of the designs found")
    es.set_defaults(func=_cmd_embed_search)

    se = sub.add_parser("sym-embed", help="search symmetric completions")
    se.add_argument("des")
    se.add_argument("--out", help="directory for .des exports of the designs found")
    se.set_defaults(func=_cmd_sym_embed)

    iso = sub.add_parser("iso", help="test two designs for isomorphism")
    iso.add_argument("des1")
    iso.add_argument("des2")
    iso.set_defaults(func=_cmd_iso)

    aut = sub.add_parser("aut", help="automorphism group order and orbits")
    aut.add_argument("des")
    aut.add_argument("--orbits", choices=("points", "blocks", "resolutions"))
    aut.set_defaults(func=_cmd_aut)

    rep = sub.add_parser("reproduce", help="rerun a stored computation and diff the results")
    rep.add_argument("target", choices=("table1", "table2", "section5", "section6"))
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except EmbedrankError as exc:
        _error_json(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _error_json(type(exc).__name__, str(exc))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
