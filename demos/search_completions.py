"""Rebuild all 2-(64,16,5) designs over the residual of AG_2(3,4).

Removing a block (and its parallel class) from the geometric design leaves a
48 x 84 matrix; any affine resolvable completion must add 16 new point rows
of weight 21 lying in a dimension-16 code determined by one candidate row.
The search tries all 3876 candidate rows, finds the 16 viable codes, and
sorts the 16 completions into isomorphism classes: 4 copies of AG_2(3,4)
itself and 12 copies of a design with the same parameters and the same
2-rank 16 but a much smaller automorphism group.  Expect several seconds
of wall time; pass a directory to export one design per class.

usage: python3 search_completions.py [outdir]
"""

import sys

from embedrank import (
    ag_design,
    automorphism_group,
    canonical_cert,
    embedding_search,
    mat_rank,
    orbits,
    save_design,
    verify_tdesign,
)


def main() -> None:
    outdir = sys.argv[1] if len(sys.argv) > 1 else None

    ag, _ = ag_design(3, 4, 2)
    print(f"searching completions of {ag.name} minus block 0 ...")
    result = embedding_search(ag, 0)
    print(
        f"{result.candidates_examined} candidates, "
        f"{result.viable_codes} viable codes, "
        f"{len(result.designs)} designs"
    )

    for rep, mult in result.iso_classes:
        params = verify_tdesign(rep, 2)
        group = automorphism_group(rep)
        lengths = sorted(len(o) for o in orbits(group, "blocks"))
        digest = canonical_cert(rep).digest
        print(
            f"\nclass {digest[:12]} (x{mult}): "
            f"2-({params.v},{params.k},{params.lam}), "
            f"2-rank {mat_rank(rep.incidence_matrix(2))}"
        )
        print(f"  |Aut| = {group.order()}, block orbits {lengths}")
        if outdir is not None:
            path = f"{outdir.rstrip('/')}/{digest[:12]}.des"
            save_design(rep, path)
            print(f"  written to {path}")

    print(
        "\nthe class of 12 is not isomorphic to the geometry: "
        "it has |Aut| = 92160 against 23224320, yet the same 2-rank 16."
    )


if __name__ == "__main__":
    main()
