"""The repo benchmark's one command.

Driver form (one workload, one pass set)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both forms of ``--trace`` run the untraced pass and measure the
end-to-end metrics; ``--trace 0`` reports them.  ``--trace 1`` goes on
to the traced pass and the layer probes and reports the per-layer
metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

Human form (everything)::

    python3 bench/run.py --all --seed N [--seconds S]

runs every workload in a fresh child interpreter (both metric sets,
every check), prints each metric by name with its unit, writes the
result JSON under ``bench/out/`` and exits nonzero if any check fails
or anything is left behind.

BLAS/OpenMP threads are pinned to 1 *before* numpy loads, so the only
parallelism is the program's own (at most 2 solver threads/processes).
The C allocator is pinned too (see :data:`ALLOCATOR_PINS`); it reads
its settings at process start, so the script re-executes itself once
with them in the environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: One BLAS/OpenMP thread per process; inherited by worker processes.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

#: glibc malloc keeps what the program frees instead of unmapping it.
#: The program frees and re-allocates 100-250 MB of plan arrays per
#: request; on the reference VM freed pages go back to the *host*, and
#: touching them again is a host-level fault of ~5 us/KB whose cost
#: doubles from one run to the next.  That was the largest single source
#: of run-to-run spread (system time 4.7-9.5 s per run unpinned,
#: 3.4-4.0 s pinned, alternating runs of one seed); it is the sandbox's
#: doing, not the program's, so it is pinned away like the BLAS threads.
ALLOCATOR_PINS = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_TOP_PAD_": str(1 << 28),
    "MALLOC_ARENA_MAX": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
for _path in (str(ROOT / "src"), str(BENCH_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 3
#: Cap on one child of ``--all`` (the driver's own cap per run).
CHILD_TIMEOUT_S = 180
#: How long a process still alive at the end gets to end on SIGTERM.
STOP_GRACE_S = 5.0


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent dies.

    Without it the workers of a killed ``--all`` child are re-parented
    to init, where :func:`stop_children` can neither see nor reap them.
    """
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: nothing to adopt
        pass


def stop_children() -> list[int]:
    """End every process this run started and wait until each is gone.

    The worker pools are joined by their schedulers; what is left is the
    multiprocessing resource tracker, which only exits once it reads
    end-of-file on its pipe -- some time *after* this process has ended
    unless it is stopped here -- and whatever a failed or timed-out path
    left behind.  Returns the pids that would not end (none, normally).
    """
    import metrics
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)

    def alive_after(timeout: float, keep: int | None = None) -> list[int]:
        """Reap what ends within ``timeout``; the pids still alive."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            alive = [pid for pid in metrics.descendants() if pid != keep]
            if not alive or time.monotonic() >= deadline:
                return alive
            time.sleep(0.01)

    def kill(pids: list[int], sig: int) -> None:
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass

    for sig in (signal.SIGTERM, signal.SIGKILL):
        kill(alive_after(0.0, keep=tracker_pid), sig)
        if not alive_after(STOP_GRACE_S, keep=tracker_pid):
            break
    # The tracker last, when no worker holds its pipe open any more: it
    # unlinks what was leaked and exits, and _stop waits for it.
    if hasattr(tracker, "_stop") and not alive_after(0.0, keep=tracker_pid):
        tracker._stop()
    kill(alive_after(0.0), signal.SIGKILL)
    return alive_after(STOP_GRACE_S)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 smoke: bool) -> dict:
    """One run of one workload; returns its result-file entry."""
    import check
    import metrics
    import probes
    import tracer as tr
    import workloads as wl

    workload = wl.WORKLOADS[name]
    sizing = wl.SMOKE if smoke else wl.FULL
    must_converge = workload.converges
    failures: list[str] = []
    open_ctx: list = []

    def setup(tracer=None):
        t0 = time.perf_counter()
        ctx = workload.setup(seed, seconds, sizing, tracer)
        elapsed = time.perf_counter() - t0
        open_ctx.append(ctx)
        return ctx, elapsed

    def close(ctx) -> None:
        workload.close(ctx)
        open_ctx.remove(ctx)
        failures.extend(check.check_hygiene(ctx))

    entry: dict = {"seed": seed, "seconds": seconds, "smoke": smoke,
                   "loop": workload.loop, "clients": workload.clients,
                   "slo_s": workload.slo_s}
    try:
        # -- untraced pass: the end-to-end numbers ---------------------
        uctx, first_setup = setup()
        entry["stream_digest"] = wl.stream_digest(
            [item[1] for item in uctx.requests])
        cpu0 = metrics.tree_cpu_s()
        urecs = workload.run(uctx)
        cpu_s = metrics.tree_cpu_s() - cpu0
        peak_rss_mb = metrics.tree_peak_rss_mb()
        close(uctx)
        failures += check.check_requests(urecs,
                                         must_converge=must_converge)
        entry["requests"] = metrics.request_counts(urecs)
        late = [r.submit - r.due for r in urecs if r.done is not None]
        entry["generator_lateness_s"] = {
            "max": max(late, default=0.0),
            "p99": metrics.pct(late, 99)}
        entry["samples"] = {"latency": entry["requests"]["ok"]}
        entry["latencies_s"] = [r.latency for r in urecs
                                if r.status == "ok"]
        # Set-up again, after the window so that it cannot touch the
        # window's CPU or peak-RSS reading; the first (cold allocator)
        # set-up is one of the three.
        setups = [first_setup]
        for _ in range(SETUP_REPEATS - 1):
            ctx, elapsed = setup()
            setups.append(elapsed)
            close(ctx)
        entry["setup_samples_s"] = setups
        entry["end_to_end"] = metrics.end_to_end(
            urecs, slo_s=workload.slo_s,
            setup_s=statistics.median(setups), cpu_s=cpu_s,
            peak_rss_mb=peak_rss_mb)
        if trace:
            # -- traced pass, probes, deep checks ----------------------
            tracer = tr.Tracer()
            tctx, _ = setup(tracer)
            trecs = workload.run(tctx)
            close(tctx)
            failures += check.check_requests(trecs,
                                             must_converge=must_converge)
            failures += check.check_traced_equals_untraced(
                urecs, trecs, exact=must_converge)
            failures += workload.deep_check(urecs)
            failures += check.check_modeled_pin()
            probe_metrics, bitwise = probes.run_probes(
                urecs[0].system, probe_gb=sizing.probe_gb, seed=seed,
                devices=workload.devices,
                out_dir=Path(tempfile.gettempdir()))
            if not bitwise:
                failures.append("probe: traced decomposed solve is not "
                                "bitwise the untraced api.solve")
            layer, shares = metrics.per_layer(
                workload, urecs, trecs, uctx, tctx, probe_metrics)
            entry["per_layer"] = layer
            entry["ledger_share_of_latency"] = shares
            groups: dict[str, set] = {}
            for rec in trecs:
                groups.setdefault(workload.group(rec), set()).add(rec.rid)
            if len(groups) > 1:
                entry["ledger_by_group"] = {
                    group: tr.ledger(tracer.spans, only=rids)[0]
                    for group, rids in sorted(groups.items())}
            entry["traced_requests"] = metrics.request_counts(trecs)
            entry["samples"]["spans"] = len(tracer.spans)
            tracer.dump(OUT_DIR / f"{name}.trace.json")
    finally:
        for ctx in list(open_ctx):
            try:
                workload.close(ctx, abort=True)
            except Exception as exc:  # keep tearing the rest down
                failures.append(f"teardown: {exc!r}")
    entry["check_failures"] = failures
    entry["correct"] = not failures
    return entry


def result_line(entry: dict, trace: bool) -> dict:
    """The driver's JSON object for one run."""
    import metrics

    values = entry["per_layer"] if trace else entry["end_to_end"]
    names = [n for n, *_ in (metrics.PER_LAYER if trace
                             else metrics.END_TO_END)]
    count = entry["requests"]
    return {
        "correct": entry["correct"],
        "attempted": count["sent"],
        "failed": count["failed"] + count["rejected"],
        "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]}
                    for n in names},
    }


def run_one(args) -> int:
    """Driver form: one workload, result JSON on the last line."""
    import metrics

    record = metrics.host_record(ROOT, {**THREAD_PINS, **ALLOCATOR_PINS})
    entry = run_workload(args.workload, args.seed, args.seconds,
                         bool(args.trace), smoke=args.smoke)
    record["ended"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    path = OUT_DIR / (f"{args.workload}.seed{args.seed}"
                      f".trace{args.trace}.json")
    path.write_text(json.dumps(
        {"record": record, "workloads": {args.workload: entry}},
        indent=1))
    for failure in entry["check_failures"]:
        print(f"CHECK FAILED [{args.workload}]: {failure}",
              file=sys.stderr)
    print(json.dumps(result_line(entry, bool(args.trace))))
    return 0


def run_all(args) -> int:
    """Human form: every workload, both metric sets, every check."""
    import metrics
    import workloads as wl

    record = metrics.host_record(ROOT, {**THREAD_PINS, **ALLOCATOR_PINS})
    record["seed"] = args.seed
    result = {"record": record, "workloads": {}}
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1"]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {name}", flush=True)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"   TIMED OUT after {CHILD_TIMEOUT_S} s")
            status = 1
            continue
        sys.stderr.write(proc.stderr)
        child = OUT_DIR / f"{name}.seed{args.seed}.trace1.json"
        if proc.returncode != 0 or not child.exists():
            print(f"   FAILED (exit {proc.returncode})")
            status = 1
            continue
        entry = json.loads(child.read_text())["workloads"][name]
        child.unlink()
        result["workloads"][name] = entry
        print_entry(name, entry)
        if not entry["correct"]:
            status = 1
    record["ended"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    out = Path(args.out) if args.out else OUT_DIR / (
        f"result.seed{args.seed}.{time.strftime('%Y%m%dT%H%M%S')}.json")
    out.write_text(json.dumps(result, indent=1))
    print(f"result written to {out}")
    print("ALL CHECKS PASSED" if status == 0 else "CHECKS FAILED")
    return status


def print_entry(name: str, entry: dict) -> None:
    """Every metric by name with its unit, then the ledger."""
    import metrics

    count = entry["requests"]
    print(f"   requests: sent {count['sent']}  ok {count['ok']}  "
          f"failed {count['failed']}  rejected {count['rejected']}  "
          f"({entry['loop']} loop, latency samples "
          f"{entry['samples']['latency']})")
    for title, key in (("end to end", "end_to_end"),
                       ("per layer", "per_layer")):
        print(f"   -- {title}")
        for metric, value in entry[key].items():
            print(f"   {metric:34s} {value:14.6g} {metrics.UNITS[metric]}")
    print("   -- share of request latency by layer (self time)")
    for layer, share in sorted(entry["ledger_share_of_latency"].items(),
                               key=lambda kv: -kv[1]):
        print(f"   {layer:34s} {share:14.1%}")
    for group, shares in entry.get("ledger_by_group", {}).items():
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print(f"   {group:12s} " + "  ".join(
            f"{layer} {share:.1%}" for layer, share in top))
    late = entry["generator_lateness_s"]
    print(f"   generator lateness: max {late['max']:.6f} s, "
          f"p99 {late['p99']:.6f} s")
    for failure in entry["check_failures"]:
        print(f"   CHECK FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy system sizes (self-test only)")
    parser.add_argument("--out", help="--all: result file path")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")

    # The program's imports must resolve before anything is created, so
    # that a directory without the program fails without side effects.
    import workloads as wl

    if args.workload and args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {sorted(wl.WORKLOADS)}")
    adopt_orphans()
    # A polite kill unwinds through the ``finally`` blocks like an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT_DIR.mkdir(exist_ok=True)
    # Every temporary file of the run (session stores, checkpoints)
    # lives inside the checkout and goes away with this directory.
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    before = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    try:
        status = run_all(args) if args.all else run_one(args)
    finally:
        left = stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
        tempfile.tempdir = before[1]
        if before[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = before[0]
    if left:
        print(f"processes still alive at exit: {left}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in ALLOCATOR_PINS.items()):
        os.environ.update(ALLOCATOR_PINS)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
