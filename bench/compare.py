"""Compare two sets of benchmark result files, metric by metric.

::

    python3 bench/compare.py --base a1.json a2.json a3.json \\
                             --new  b1.json b2.json b3.json
    python3 bench/compare.py --self 3 [--seed N] [--seconds S]

One row per workload x end-to-end metric: median and quartiles of each
side, and the ratio new/base with its base.  The verdict applies the
bound ``BENCHMARK.json`` fixes for the metric:

``ok``
    the new median is no worse than the base median by more than the
    bound;
``REGRESSION``
    it is worse by more than the bound;
``unresolved``
    the run-to-run spread (quartile distance over median, either side)
    exceeds the bound, so the comparison cannot tell -- reported as
    such, not as unchanged -- unless every new run reads better than
    every base run.

Exits nonzero on a regression, on a higher failed share, or (``--self``)
when a count that must repeat exactly did not (the request stream and
requests sent everywhere; ``engine.iterations`` and ``aprod.calls`` on
the closed loops).  ``--self N`` runs
``run.py --all`` 2N times on this commit, alternately into set A and
set B, and compares them: the A/A test of the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: Traced-pass counts that must repeat exactly for one (seed, seconds).
EXACT_COUNTS = ("engine.iterations", "aprod.calls")


def load_spec() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) from BENCHMARK.json."""
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"])
            for m in doc["end_to_end"]}


def collect(paths) -> dict[str, dict]:
    """workload -> {"metrics": {name: [values]}, "sent", "failed", ...}."""
    out: dict[str, dict] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for name, entry in doc["workloads"].items():
            slot = out.setdefault(name, {
                "metrics": {}, "sent": 0, "failed": 0, "counts": {},
                "streams": set()})
            for metric, value in entry["end_to_end"].items():
                slot["metrics"].setdefault(metric, []).append(value)
            count = entry["requests"]
            slot["sent"] += count["sent"]
            slot["failed"] += count["failed"] + count["rejected"]
            slot["streams"].add((entry["seed"], entry["seconds"],
                                 entry["stream_digest"]))
            key = (entry["seed"], entry["seconds"])
            # In an open loop, whether a request hits the cache, joins a
            # flight or fuses depends on arrival against completion
            # time, so there only the stream and its size repeat.
            counts = {c: entry["per_layer"][c] for c in EXACT_COUNTS
                      if c in entry.get("per_layer", {})
                      and entry["loop"] == "closed"}
            counts["requests.sent"] = count["sent"]
            slot["counts"].setdefault(key, []).append(counts)
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse = sign * (n_med - b_med) / abs(b_med)
    spread = max((q[2] - q[0]) / abs(q[1]) for q in
                 (quartiles(base), quartiles(new)))
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if spread > bound and not all_better:
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def compare(base_paths, new_paths) -> int:
    spec = load_spec()
    base, new = collect(base_paths), collect(new_paths)
    status = 0
    print(f"{'workload':18s} {'metric':14s} "
          f"{'base q1/median/q3':>32s} {'new q1/median/q3':>32s} "
          f"{'new/base':>9s}  verdict (bound)")
    for workload in base:
        if workload not in new:
            print(f"{workload}: missing from the new set")
            status = 1
            continue
        for metric, (better, bound) in spec.items():
            b = base[workload]["metrics"].get(metric)
            n = new[workload]["metrics"].get(metric)
            if not b or not n:
                continue
            (b1, b2, b3), (n1, n2, n3) = quartiles(b), quartiles(n)
            result = verdict(b, n, better, bound)
            if result == "REGRESSION":
                status = 1
            print(f"{workload:18s} {metric:14s} "
                  f"{b1:10.4g}/{b2:10.4g}/{b3:10.4g} "
                  f"{n1:10.4g}/{n2:10.4g}/{n3:10.4g} "
                  f"{n2 / b2:9.4f}  {result} ({bound:g}, base "
                  f"{b2:.4g}, n={len(b)}+{len(n)})")
        b_fail = base[workload]["failed"] / max(1, base[workload]["sent"])
        n_fail = new[workload]["failed"] / max(1, new[workload]["sent"])
        print(f"{workload:18s} failed share   base {b_fail:.4f} "
              f"({base[workload]['failed']}/{base[workload]['sent']})  "
              f"new {n_fail:.4f} "
              f"({new[workload]['failed']}/{new[workload]['sent']})")
        if n_fail > b_fail:
            print(f"{workload}: failed share rose")
            status = 1
    return status


def check_counts_repeat(paths) -> int:
    """Counts and streams of equal (seed, seconds) must be identical."""
    status = 0
    for workload, slot in collect(paths).items():
        for key, rows in slot["counts"].items():
            if any(row != rows[0] for row in rows[1:]):
                print(f"{workload} {key}: counts did not repeat: {rows}")
                status = 1
        seeds = {}
        for seed, seconds, digest in slot["streams"]:
            if seeds.setdefault((seed, seconds), digest) != digest:
                print(f"{workload} seed {seed}: request stream differs "
                      "between runs")
                status = 1
    if status == 0:
        print("request streams and requests sent repeated exactly; so did "
              "engine.iterations and aprod.calls on every closed loop")
    return status


def self_compare(n: int, seed: int, seconds: float) -> int:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    sets: tuple[list, list] = ([], [])
    for i in range(2 * n):
        path = out_dir / f"self.{'AB'[i % 2]}{i // 2}.json"
        print(f"-- run {i + 1}/{2 * n} -> {path.name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--all",
             "--seed", str(seed), "--seconds", str(seconds),
             "--out", str(path)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout[-2000:])
            sys.stderr.write(proc.stderr[-2000:])
            print("run.py --all failed; no comparison made")
            return 1
        sets[i % 2].append(path)
    status = compare(*sets)
    return status | check_counts_repeat(sets[0] + sets[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--new", nargs="+")
    parser.add_argument("--self", type=int, dest="self_runs", metavar="N",
                        help="A/A: N runs per side of this commit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    if args.self_runs:
        return self_compare(args.self_runs, args.seed, args.seconds)
    if not (args.base and args.new):
        parser.error("give --base FILES --new FILES, or --self N")
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
