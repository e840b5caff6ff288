"""Everything a good block of AG_2(3,4) induces.

A good block B meets every non-parallel block in a structure that splits
into q = 4 copies of the affine plane design 2-(16,4,1).  The 48 points
outside B and its parallel class carry a 48 x 80 substructure whose blocks
inherit a resolution into 20 classes of 4.  This script counts the parallel
classes and resolutions of that substructure, groups the resolutions into
orbits under its automorphism group, and counts the weight-32 codewords
supported on unions of parallel classes for one resolution per orbit.
These counts are the obstruction data behind the completion search.
"""

from embedrank import (
    affine_family,
    ag_design,
    automorphism_group,
    code_from_bitrows,
    good_block,
    parallel_classes,
    parallel_union_codewords,
    resolution_orbits,
    resolutions,
    thm5_necessary,
)


def main() -> None:
    ag, _ = ag_design(3, 4, 2)
    gb = good_block(ag, 0)
    s = gb.s
    sub = gb.substructure
    q, n, mu, _, _ = affine_family(ag)
    print(f"good block 0 of {ag.name}: q = {q}, n = {n}, mu = {mu}")
    print(f"cut design: 2-({s.v},{len(s.blocks[0])},1) with {s.b} blocks")
    print(f"substructure: {sub.v} points, {sub.b} blocks of size {len(sub.blocks[0])}")

    classes = parallel_classes(sub)
    sols = resolutions(sub)
    print(f"parallel classes: {len(classes)}, resolutions: {len(sols)}")
    print(f"(the induced resolution has {gb.resolution.num_classes} classes)")

    group = automorphism_group(sub)
    print(f"|Aut| = {group.order()}")
    orbs = resolution_orbits(group, sols)
    code = code_from_bitrows(sub.point_masks(), sub.b)
    print("resolution orbits and weight-32 parallel-union codewords:")
    for orb in sorted(orbs, key=len):
        words = parallel_union_codewords(code, sols[orb[0]], 32)
        print(f"  orbit of {len(orb)}: {len(words)} codewords")

    cond = thm5_necessary(ag, 0)
    print(
        f"\nan embedding needs at least {cond.required} such codewords; "
        f"the induced resolution has {cond.found}: "
        + ("necessary condition passes" if cond.passes else "ruled out")
    )


if __name__ == "__main__":
    main()
