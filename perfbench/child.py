"""One pass of a workload in a fresh interpreter; prints a JSON summary.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE T0 [--setup-only]
       [--ops N] [--panel SEEDS] [--spans PATH]

T0 is the parent's `time.monotonic()` just before it started this process,
so `setup_s` includes interpreter start-up, `import embedrank` and building
the inputs.  Each pass gets its own process because embedrank caches
canonical forms (`iso._analyze`) and incidence masks: a second pass in the
same process would measure cache hits.

Shared machines drift in speed: on the 2-core VM this benchmark was tuned
on, the same pure-Python loop took from 20 to 33 ms within ten minutes, in
episodes of half a minute or more.  So a fixed calibration loop is timed
right after set-up and after every operation, and each time is also
reported at the reference speed, the speed at which that loop takes
CAL_REF_S: raw seconds × CAL_REF_S / (median loop time around it).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

CAL_REF_S = 0.02  # duration of one calibration loop at the reference speed
CAL_SAMPLES = 2  # loops timed at each operation boundary


def calibration_s() -> float:
    """Seconds taken by a fixed pure-Python loop: how fast this process runs now."""
    t = time.perf_counter()
    x = 0
    for i in range(130_000):
        x ^= (i * 2654435761) & 0xFFFF
    return time.perf_counter() - t


def calibrate() -> list[float]:
    return [calibration_s() for _ in range(CAL_SAMPLES)]


def at_reference_speed(seconds: float, calibrations: list[float]) -> float:
    return seconds * CAL_REF_S / statistics.median(calibrations)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("trace", type=int, choices=(0, 1))
    ap.add_argument("t0", type=float)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--ops", type=int, default=None, help="run only the first N operations")
    ap.add_argument("--panel", default=None, help="comma-separated canon relabeling seeds")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)

    import embedrank  # noqa: F401  (imported before the tracer wraps it)
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    panel = [int(s) for s in args.panel.split(",")] if args.panel else None
    workload = workloads.WORKLOADS[args.workload](args.seed, panel)
    ops = workload.ops[: args.ops]
    setup_s = time.monotonic() - args.t0
    boundaries = [calibrate()]
    setup_ref_s = at_reference_speed(setup_s, boundaries[0])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    outputs: list[dict | None] = []
    errors: list[str | None] = []
    op_s: list[float] = []
    for op in ops:
        t = time.perf_counter()
        try:
            outputs.append(op.run())
            errors.append(None)
        except Exception as exc:  # an operation that raises counts as failed
            outputs.append(None)
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - t)
        boundaries.append(calibrate())
    op_ref_s = [at_reference_speed(s, boundaries[i] + boundaries[i + 1]) for i, s in enumerate(op_s)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    failed = 0
    for op, out, err in zip(ops, outputs, errors):
        found = [err] if err else [f"{op.name}: {p}" for p in op.check(out)]
        failed += bool(found)
        problems += found
    if args.ops is None:
        problems += workload.final_check(outputs)

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": sum(op_s),
        "wall_ref_s": sum(op_ref_s),
        "op_s": op_s,
        "op_ref_s": op_ref_s,
        "calibration_s": boundaries,
        "op_names": [op.name for op in ops],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
