"""Benchmark command: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (the directory holding `src/`).
Each pass of the workload runs in a fresh child interpreter, one at a time,
with PYTHONHASHSEED and the BLAS/OpenMP thread counts pinned.  Passes repeat
while another one is expected to finish within --seconds (at least one
runs).  With --trace 0 the last line of output holds the end-to-end metrics
(medians over passes); their times are at the reference speed that child.py
calibrates against, because this kind of machine drifts in speed by tens of
percent.  With --trace 1 every untraced pass is followed by a traced one and
the last line holds the per-layer metrics, in wall-clock seconds.  The lines
before it describe the environment, the wall-clock medians and, for `canon`,
the spread across labelings.  Full results and traced spans are written
under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("search", "scan", "canon", "codes")
SETUP_RUNS = 4  # set-up-only children per run, besides the passes' own set-ups
# A run must end within 180 s.  `search` (one pass takes minutes today) is
# not in BENCHMARK.json and is only run by hand.
RUN_LIMIT_S = {"search": 900}

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    # Bytecode goes to a cache inside the checkout, filled by the import probe.
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, trace: int, options: list[str], deadline: float) -> dict:
    """Run child.py once and return its JSON summary; it must end by `deadline`."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(trace), repr(t0), *options]
    timeout = max(1.0, deadline - t0)
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "child failed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["child_s"] = time.monotonic() - t0
    return result


def environment(deadline: float) -> dict:
    """Versions, core count and commit; importing here also warms the bytecode cache."""
    probe = (
        "import json, numpy, sympy, sympy.combinatorics, embedrank; "
        "print(json.dumps({'numpy': numpy.__version__, 'sympy': sympy.__version__}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "import failed")
    env = json.loads(proc.stdout)
    env.update(
        git_sha=git_sha(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
    )
    return env


def git_sha() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


UNITS = {"peak_rss_mb": "MB", "ok_share": "share", "iso.cert_yield": "share", "codes.words_per_s": "1/s"}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def median(values):
    return statistics.median(values) if values else 0.0


def canon_spread(passes: list[dict]) -> dict:
    """Per design, min/median/max reference seconds of one operation across the relabeling panel."""
    by_design: dict[str, list[float]] = {}
    for p in passes:
        for out, secs in zip(p["outputs"], p["op_ref_s"]):
            if out is not None:
                by_design.setdefault(out["design"], []).append(secs)
    return {
        name: {"min": min(v), "median": statistics.median(v), "max": max(v), "samples": len(v)}
        for name, v in by_design.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--panel", default=None,
                    help="canon only: comma-separated relabeling seeds replacing the fixed panel")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "embedrank" / "__init__.py").is_file():
        print(f"error: no embedrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S.get(args.workload, 170)
    extra = ["--panel", args.panel] if args.panel else []
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        env = environment(deadline)
        start = time.monotonic()
        untraced: list[dict] = []
        traced: list[dict] = []
        longest = 0.0
        while True:
            t = time.monotonic()
            untraced.append(run_child(args.workload, args.seed, 0, extra, deadline))
            if args.trace:
                spans = OUT / f"spans-{tag}-pass{len(traced)}.json"
                traced.append(run_child(args.workload, args.seed, 1, [*extra, "--spans", str(spans)], deadline))
            longest = max(longest, time.monotonic() - t)
            if time.monotonic() + longest > start + args.seconds:
                break
        setup_runs = untraced + [
            run_child(args.workload, args.seed, 0, [*extra, "--setup-only"], deadline) for _ in range(SETUP_RUNS)
        ]
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    # Traced and untraced passes must compute the same thing.
    if any(p["outputs"] != untraced[0]["outputs"] for p in passes):
        problems.append("outputs differ between passes")
    correct = failed == 0 and not problems

    # Wall-clock medians, reported beside the metrics (which are at reference speed).
    raw = {
        "wall_s": median([p["wall_s"] for p in untraced]),
        "setup_s": median([p["setup_s"] for p in setup_runs]),
        "op_max_s": median([max(p["op_s"]) for p in untraced]),
    }
    if args.trace:
        # Layer times are raw seconds: they are shares of one traced pass.
        metrics = {"op_max_s": median([max(p["op_s"]) for p in traced])}
        metrics.update({name: median([p["layers"][name] for p in traced]) for name in traced[0]["layers"]})
        metrics["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - raw["wall_s"]
    else:
        metrics = {
            "wall_s": median([p["wall_ref_s"] for p in untraced]),
            "setup_s": median([p["setup_ref_s"] for p in setup_runs]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
            "ok_share": (attempted - failed) / attempted,
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": len(untraced),
        "setup_samples": [p["setup_s"] for p in setup_runs],
        "wall_clock_s": raw,
        "problems": problems,
    }
    if args.workload == "canon":
        report["canon_spread_s"] = canon_spread(untraced)
    (OUT / f"result-{tag}.json").write_text(json.dumps({**report, "runs": passes}, indent=1))
    print(json.dumps(report))
    for line in problems:
        print(f"mismatch: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
