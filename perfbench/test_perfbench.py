"""Checks of the benchmark itself: run with `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing


@pytest.mark.parametrize("workload, ops", [("scan", 2), ("canon", 2), ("codes", 7)])
def test_tracing_leaves_outputs_unchanged(workload, ops):
    deadline = time.monotonic() + 170
    plain = run.run_child(workload, 3, 0, ["--ops", str(ops)], deadline)
    traced = run.run_child(workload, 3, 1, ["--ops", str(ops)], deadline)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["problems"] == traced["problems"] == []
    assert plain["outputs"] == traced["outputs"]
    assert "layers" in traced and "layers" not in plain


def test_layer_metrics_subtract_children_and_nested_repeats():
    def span(i, name, parent, start, end, **extra):
        return {"id": i, "name": name, "parent": parent, "start": start, "end": end, **extra}

    spans = [
        span(0, "embedding.search", None, 0.0, 10.0, candidates=5, viable_codes=1, completions=2),
        span(1, "iso.cert", 0, 1.0, 4.0, digest="a"),
        span(2, "designs.good_block", 0, 5.0, 7.0),
        span(3, "designs.verify_tdesign", 2, 5.5, 6.0),
        span(4, "iso.cert", 0, 8.0, 9.0, digest="a"),
        span(5, "codes.words_of_weight", None, 10.0, 12.0, words=8),
        span(6, "codes.iter", 5, 10.0, 10.0, words=8),
    ]
    m = tracing.layer_metrics(spans)
    assert m["embedding.search_self_s"] == 10.0 - 3.0 - 2.0 - 1.0
    assert m["iso.cert_s"] == 4.0 and m["iso.cert_calls"] == 2 and m["iso.cert_max_s"] == 3.0
    assert m["iso.cert_yield"] == 0.5
    assert m["designs.facts_s"] == 2.0 and m["designs.facts_calls"] == 2
    assert m["codes.words"] == 8 and m["codes.words_per_s"] == 4.0
    assert (m["embedding.candidates"], m["embedding.viable_codes"], m["embedding.completions"]) == (5, 1, 2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
