"""A/B the repo benchmark against another commit, alternating sides.

::

    python3 tools/bench_ab.py --base REF [--pairs N] [--seed0 S]
                              [--metric NAME --workload NAME]
    make bench-ab BASE=REF PAIRS=N SEED0=S [METRIC=NAME WORKLOAD=NAME]

Exports ``REF`` with ``git archive`` into a temporary directory (no
worktree, no change to this checkout's git metadata) and runs
``bench/run.py --all --seed S+i`` on both sides for ``i = 0..N-1``,
alternating which side runs first (pair 0 runs the base first, pair 1
this checkout first, ...), so slow drift of the host lands on both
sides alike.  Results go to ``bench/out/ab/{base,new}.i.json`` of this
checkout (``bench/out/`` ignores its contents); the export is removed
at the end.  Then prints ``bench/compare.py --base ... --new ...``.

With ``--metric`` and ``--workload`` it also prints that metric per
pair, the number of pairs the new side won, both medians and the
base's quartile distance -- the terms a claimed gain is judged in.
Nothing under ``bench/`` is edited.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out" / "ab"


def export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(checkout: Path, seed: int, out: Path) -> None:
    """One ``run.py --all`` in ``checkout``; raises if it fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    print(f"-- {out.name}: seed {seed} in {checkout}", flush=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--all", "--seed", str(seed),
         "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout[-3000:])
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"bench/run.py failed in {checkout}")


def better(metric: str) -> str:
    """``"higher"`` or ``"lower"``, as BENCHMARK.json declares it."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in doc["end_to_end"] + doc["per_layer"]:
        if entry["name"] == metric:
            return entry["better"]
    raise SystemExit(f"{metric!r} is not a metric of BENCHMARK.json")


def value(path: Path, workload: str, metric: str) -> float:
    entry = json.loads(path.read_text())["workloads"][workload]
    return {**entry["per_layer"], **entry["end_to_end"]}[metric]


def report_metric(pairs: list[tuple[Path, Path]], workload: str,
                  metric: str) -> None:
    """Per-pair values, the win count and the claim terms."""
    sign = 1.0 if better(metric) == "higher" else -1.0
    base, new = [], []
    print(f"\n{workload} {metric} ({better(metric)} is better)")
    for i, (b_path, n_path) in enumerate(pairs):
        b, n = value(b_path, workload, metric), value(n_path, workload,
                                                      metric)
        base.append(b)
        new.append(n)
        print(f"  pair {i}: base {b:.6g}  new {n:.6g}  new/base "
              f"{n / b:.4f}  {'win' if sign * (n - b) > 0 else 'loss'}")
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    b_med, n_med = statistics.median(base), statistics.median(new)
    q = statistics.quantiles(base, n=4) if len(base) > 1 else [b_med] * 3
    print(f"  new won {wins}/{len(pairs)} pairs; median base {b_med:.6g} "
          f"new {n_med:.6g} (difference {n_med - b_med:+.6g}); base "
          f"quartile distance {q[2] - q[0]:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--metric")
    parser.add_argument("--workload")
    args = parser.parse_args(argv)
    if bool(args.metric) != bool(args.workload):
        parser.error("give --metric and --workload together")
    if args.metric:
        better(args.metric)  # fail before hours of runs, not after
    OUT.mkdir(parents=True, exist_ok=True)
    # A polite kill unwinds through the ``finally`` that removes the
    # export, like an error does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    pairs = []
    try:
        export(args.base, tmp)
        for i in range(args.pairs):
            seed = args.seed0 + i
            sides = {"base": (tmp, OUT / f"base.{i}.json"),
                     "new": (ROOT, OUT / f"new.{i}.json")}
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                run(sides[side][0], seed, sides[side][1])
            pairs.append((sides["base"][1], sides["new"][1]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    status = subprocess.run(
        [sys.executable, "bench/compare.py",
         "--base", *[str(b) for b, _ in pairs],
         "--new", *[str(n) for _, n in pairs]], cwd=ROOT).returncode
    if args.metric:
        report_metric(pairs, args.workload, args.metric)
    return status


if __name__ == "__main__":
    sys.exit(main())
