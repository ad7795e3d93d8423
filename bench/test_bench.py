"""Self-test of the benchmark on ``--smoke`` sizes: ``pytest bench/ -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Every
run goes through the command line exactly as the driver invokes it.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "2"


@lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, repeat: int = 0):
    """(driver JSON line, result-file entry) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = BENCH_DIR / "out" / f"{workload}.seed{seed}.trace{trace}.json"
    entry = json.loads(path.read_text())["workloads"][workload]
    path.unlink()
    return line, entry


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_declared_metrics_are_emitted(workload, trace, section):
    line, _ = run(workload, 1, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert list(line["metrics"]) == list(declared)
    for name, got in line["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert got["unit"] == declared[name]
        assert math.isfinite(got["value"])
        if section == "end_to_end":
            assert got["value"] > 0, name


def _import_bench():
    """Make bench/ and src/ importable in this process."""
    sys.path.insert(0, str(BENCH_DIR))
    import run as bench_run  # noqa: F401  (its import sets the paths)


def test_benchmark_json_matches_the_code():
    _import_bench()
    import metrics
    import workloads

    assert SPEC["paths"] == ["bench"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_same_seed_same_stream_and_counts():
    _, first = run("solve_cold", 1, 1)
    _, again = run("solve_cold", 1, 1, repeat=1)
    _, other = run("solve_cold", 2, 1)
    assert first["stream_digest"] == again["stream_digest"]
    assert first["stream_digest"] != other["stream_digest"]
    for count in ("engine.iterations", "aprod.calls"):
        assert first["per_layer"][count] == again["per_layer"][count]
    assert first["requests"] == again["requests"]


def test_trace_covers_the_cold_solve():
    line, entry = run("solve_cold", 1, 1)
    assert line["metrics"]["trace.coverage"]["value"] >= 0.9
    assert entry["check_failures"] == []


def test_corrupted_solution_is_caught_and_counted_failed():
    _import_bench()
    import check
    import metrics
    import workloads as wl

    workload = wl.WORKLOADS["solve_cold"]
    ctx = workload.setup(1, 1.0, wl.SMOKE)
    try:
        recs = workload.run(ctx)
    finally:
        workload.close(ctx)
    assert check.check_requests(recs, must_converge=True) == []
    recs[0].report.x[::7] *= 1.0 + 1e-3
    failures = check.check_requests(recs, must_converge=True)
    assert len(failures) == 1 and recs[0].rid in failures[0]
    assert recs[0].status == "failed"
    assert metrics.request_counts(recs)["failed"] == 1
