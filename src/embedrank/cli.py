"""Command-line interface.

Subcommands cover the whole pipeline: generating designs (`gen`), ranks and
weight distributions (`rank`, `wdist`), block restrictions (`residual`,
`derived`), structure inspection (`resolutions`, `goodblocks`), embeddability
tests (`embeddable`, `thm5`), the completion searches (`embed-search`,
`sym-embed`), isomorphism tools (`iso`, `aut`) and `reproduce`, which reruns
a stored computation and diffs it against the frozen values in `expected`.

Usage errors exit 2 (argparse).  Computation errors exit 1 and print a JSON
object {"error": <class>, "message": <text>} on stderr.  A reader that
closes stdout early (`embedrank gen ag 3 4 2 | head -n 1`) ends the run
with status 0 and nothing on stderr.  All output is deterministic.
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
    affine_family,
    derived,
    emit_des,
    good_block,
    load_design,
    parallel_classes,
    parse_des,
    residual,
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
    # WrongParameters outside the family, also for a design with no block to try
    affine_family(design)
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
    classes = [{"digest": digest, "multiplicity": mult} for digest, _, mult in result.iso_classes]
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
        _export_designs([rep for _, rep, _ in result.iso_classes], args.out)
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


def _expect(mismatches: list[str], label: str, got, want) -> None:
    if got != want:
        mismatches.append(f"{label} = {got}, expected {want}")


def _repro_fail(mismatches: list[str]) -> int:
    if not mismatches:
        return 0
    _error_json("ReproduceMismatch", "; ".join(mismatches))
    return 1


def _repro_distribution(design: IncidenceStructure, block: int, listed: dict[int, int]) -> int:
    """Print the residual code's weight distribution; diff all of it against `listed` + the zero word."""
    wd = weight_distribution(_mpp_code(design, block))
    sys.stdout.write(wd.as_csv())
    mismatches: list[str] = []
    _expect(mismatches, "weight distribution", wd.counts, dict(sorted({0: 1, **listed}.items())))
    return _repro_fail(mismatches)


def _repro_table1(args) -> int:
    design, _ = ag_design(3, 4, 2)
    return _repro_distribution(design, 0, {**expected.TABLE1_LISTED, **expected.TABLE1_UNLISTED_SPLIT})


def _repro_table2(args) -> int:
    design = _bundled_design("e1.des")
    return _repro_distribution(design, _good_block_in_orbit(design, 3), expected.TABLE2)


def _design_facts(name: str, design: IncidenceStructure, mismatches: list[str]) -> None:
    order, orbit_lengths, rank = {
        "e1": (expected.AUT_ORDER_E1, expected.E1_BLOCK_ORBITS, expected.RANK2_E1),
        "e2": (expected.AUT_ORDER_E2, expected.E2_BLOCK_ORBITS, expected.RANK2_E2),
    }[name]
    group = automorphism_group(design)
    got_order = group.order()
    got_orbits = tuple(sorted(len(o) for o in orbits(group, "blocks")))
    got_rank = mat_rank(design.incidence_matrix(2))
    print(
        f"  |Aut({name})| = {got_order}, 2-rank {got_rank}, "
        f"block orbits {','.join(map(str, got_orbits))}"
    )
    _expect(mismatches, f"|Aut({name})|", got_order, order)
    _expect(mismatches, f"{name} block orbits", got_orbits, orbit_lengths)
    _expect(mismatches, f"2-rank({name})", got_rank, rank)


def _repro_section5(args) -> int:
    mismatches: list[str] = []
    design, _ = ag_design(3, 4, 2)
    names = {
        canonical_cert(design).digest: "ag",
        expected.E1_DIGEST: "e1",
        expected.E2_DIGEST: "e2",
    }
    # (label, orbit length of the searched block or None for block 0,
    #  expected classes, the class searched next)
    stages = (
        ("ag = AG_2(3,4)", None, expected.STAGE1_CLASSES, "e1"),
        ("e1", 3, expected.STAGE2_CLASSES, "e2"),
        ("e2", 4, expected.STAGE3_CLASSES, None),
    )
    for stage, (label, orbit_len, want, following) in enumerate(stages, 1):
        if orbit_len is None:
            block, where = 0, ""
        else:
            block, where = _good_block_in_orbit(design, orbit_len), f" (orbit length {orbit_len})"
        result = embedding_search(design, block)
        print(f"stage {stage}: {label}, block {block}{where}")
        print(
            f"  candidates {result.candidates_examined}, "
            f"viable codes {result.viable_codes}, designs {len(result.designs)}"
        )
        _expect(mismatches, f"stage {stage} candidates", result.candidates_examined, expected.SEARCH_CANDIDATES)
        _expect(mismatches, f"stage {stage} viable codes", result.viable_codes, expected.SEARCH_VIABLE)
        found = {names.get(digest, digest[:12]): mult for digest, _, mult in result.iso_classes}
        print("  classes: " + ", ".join(f"{mult} x {name}" for name, mult in found.items()))
        _expect(mismatches, f"stage {stage} classes", found, want)
        if following is None:
            break
        reps = {names.get(digest): rep for digest, rep, _ in result.iso_classes}
        if following not in reps:
            mismatches.append(f"stage {stage} found no design with the stored {following} canonical form")
            return _repro_fail(mismatches)
        design = reps[following]
        _design_facts(following, design, mismatches)

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
        _expect(mismatches, f"{name} required", nc.required, expected.TAF_REQUIRED_43)
        _expect(mismatches, f"{name} found", nc.found, expected.TAF_FOUND[name])

    vkl = ",".join(map(str, expected.SYM_TARGET_PARAMS))
    print(f"symmetric embedding in 2-({vkl}):")
    for name, design in instances:
        sym = sym_embedding_search(design)
        print(
            f"  {name}: {sym.weight_count} weight-21 codewords, "
            f"{len(sym.designs)} design(s)"
        )
        _expect(mismatches, f"{name} weight-21 codewords", sym.weight_count, expected.SYM_W21[name])
        _expect(mismatches, f"{name} designs", len(sym.designs), expected.SYM_DESIGNS[name])
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


def _count(text: str) -> int:
    """A non-negative integer option value; 0 is valid."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


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
    wdist.add_argument("--cap", type=_count, default=None)
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
    res.add_argument("--limit", type=_count, default=None)
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
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at the null device, so that
        # the interpreter's own flush at exit has somewhere to write.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (EmbedrankError, OSError) as exc:
        _error_json(type(exc).__name__, str(exc))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
