"""A/B the repo benchmark against another commit, alternating sides.

::

    python3 tools/bench_ab.py --base REF [--pairs N] [--seed0 S]
                              [--workload NAME]
    make bench-ab BASE=REF PAIRS=N SEED0=S [WORKLOAD=NAME]

Exports ``REF`` with ``git archive`` into a temporary directory (no
worktree, no change to this checkout's git metadata) and runs the
benchmark on both sides with seed ``S+i`` for ``i = 0..N-1``,
alternating which side runs first (pair 0 runs the base first, pair 1
this checkout first, ...), so slow drift of the host lands on both
sides alike.  Results go to ``bench/out/ab/{base,new}.i.json`` of this
checkout (``bench/out/`` ignores its contents); the export is removed
at the end.

- By default each run is ``bench/run.py --all`` (every workload, every
  check), and ``bench/compare.py --base ... --new ...`` is printed.
- ``--workload NAME`` runs only that workload, in the form a single
  benchmark measurement takes: ``bench/run.py --workload NAME
  --seconds <BENCHMARK.json run_seconds> --trace 0`` (no traced pass,
  no probes -- a ``solve_cold`` pair takes about 30 s instead of 8
  minutes).

Either way it then prints, per workload and end-to-end metric, the
value of each pair, the number of pairs the new side won, both medians
and both quartile distances -- the terms a claimed gain is judged in --
and each side's failed share.  Nothing under ``bench/`` is edited.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(checkout: Path, seed: int, out: Path, workload: str | None) -> None:
    """One benchmark run in ``checkout`` into ``out``; raises if it
    fails.  ``workload`` None is ``--all``; otherwise the single
    workload's result line is what ``out`` keeps."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if workload is None:
        args = ["--all", "--out", str(out)]
    else:
        args = ["--workload", workload, "--trace", "0",
                "--seconds", str(SPEC["run_seconds"])]
    print(f"-- {out.name}: seed {seed} in {checkout}", flush=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--seed", str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout[-3000:])
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"bench/run.py failed in {checkout}")
    if workload is not None:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        out.write_text(json.dumps({"workload": workload, **line}))


def load(path: Path) -> dict[str, dict]:
    """workload -> {"values": {metric: value}, "attempted", "failed",
    "correct"} from an ``--all`` file or a saved result line."""
    doc = json.loads(path.read_text())
    if "workload" in doc:
        return {doc["workload"]: {
            "values": {n: m["value"] for n, m in doc["metrics"].items()},
            "attempted": doc["attempted"], "failed": doc["failed"],
            "correct": doc["correct"]}}
    return {name: {
        "values": entry["end_to_end"],
        "attempted": entry["requests"]["sent"],
        "failed": entry["requests"]["failed"]
        + entry["requests"]["rejected"],
        "correct": entry["correct"]}
        for name, entry in doc["workloads"].items()}


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance)."""
    if len(values) < 2:
        return statistics.median(values), 0.0
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[2] - q[0]


def report(pairs: list[tuple[Path, Path]]) -> None:
    """Per workload: each end-to-end metric per pair, the win count,
    medians and quartile distances; then the failed share."""
    runs = [(load(b), load(n)) for b, n in pairs]
    for workload in runs[0][0]:
        print(f"\n== {workload} ({len(runs)} pairs)")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            base = [b[workload]["values"][name] for b, _ in runs]
            new = [n[workload]["values"][name] for _, n in runs]
            wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
            (b_med, b_iqr), (n_med, n_iqr) = _spread(base), _spread(new)
            print(f"  {name} ({metric['better']} is better): "
                  + "  ".join(f"{b:.4g}->{n:.4g}"
                              for b, n in zip(base, new)))
            print(f"    new won {wins}/{len(runs)}; median base "
                  f"{b_med:.6g} new {n_med:.6g} (difference "
                  f"{n_med - b_med:+.6g}); quartile distance base "
                  f"{b_iqr:.6g} new {n_iqr:.6g}")
        for side, k in (("base", 0), ("new", 1)):
            entries = [run_pair[k][workload] for run_pair in runs]
            failed = sum(e["failed"] for e in entries)
            attempted = sum(e["attempted"] for e in entries)
            correct = sum(e["correct"] for e in entries)
            print(f"  {side}: failed share {failed}/{attempted} = "
                  f"{failed / max(1, attempted):.4f}; correct runs "
                  f"{correct}/{len(entries)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload",
                        help="run only this workload, untraced (default: "
                             "--all)")
    args = parser.parse_args(argv)
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
                run(sides[side][0], seed, sides[side][1], args.workload)
            pairs.append((sides["base"][1], sides["new"][1]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    status = 0
    if args.workload is None:
        status = subprocess.run(
            [sys.executable, "bench/compare.py",
             "--base", *[str(b) for b, _ in pairs],
             "--new", *[str(n) for _, n in pairs]], cwd=ROOT).returncode
    report(pairs)
    return status


if __name__ == "__main__":
    sys.exit(main())
