"""Metric definitions and the arithmetic that turns a pass into numbers.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of the
metric names, units and directions; ``BENCHMARK.json`` lists exactly
these (``test_bench.py`` checks it).  Every second here is
host-measured; nothing from the analytic GPU model is a metric.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import tracer as tr
from probes import computed_bytes

#: (name, unit, better, bound): what a user of the system sees.
#: One rule sets every bound (README, "Calibration"): the smallest of
#: 0.10 / 0.15 / 0.20 / 0.25 that is at least 2.5 times the widest
#: spread the metric showed on any workload in any ten-seed calibration
#: set on the reference host; 0.25 is the most the contract allows.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("slo_met_share", "ratio", "higher", 0.15),
    ("iters_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_job", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: (name, unit, better): one layer each, no bound.
PER_LAYER = (
    ("system.generate_s", "s", "lower"),
    ("system.append_s", "s", "lower"),
    ("system.digest_s", "s", "lower"),
    ("aprod.plan_build_s", "s", "lower"),
    ("aprod.plan_workspace_mb", "MiB", "lower"),
    ("aprod.aprod1_s", "s", "lower"),
    ("aprod.aprod2_s", "s", "lower"),
    ("aprod.aprod1_gbs", "GB/s", "higher"),
    ("aprod.aprod2_gbs", "GB/s", "higher"),
    ("aprod.calls", "count", "lower"),
    ("aprod.batch8_aprod1_s", "s", "lower"),
    ("aprod.batch8_aprod2_s", "s", "lower"),
    ("precond.build_s", "s", "lower"),
    ("engine.step_self_s", "s", "lower"),
    ("engine.iterations", "count", "lower"),
    ("engine.checkpoint_write_s", "s", "lower"),
    ("engine.checkpoint_bytes", "B", "lower"),
    ("api.solve_self_s", "s", "lower"),
    ("api.solve_batch8_s", "s", "lower"),
    ("resilience.r1_overhead_ratio", "ratio", "lower"),
    ("dist.ranks2_solve_s", "s", "lower"),
    ("scheduler.submit_s", "s", "lower"),
    ("scheduler.queue_wait_p50_s", "s", "lower"),
    ("scheduler.queue_wait_p95_s", "s", "lower"),
    ("scheduler.exec_p50_s", "s", "lower"),
    ("scheduler.overhead_p50_s", "s", "lower"),
    ("scheduler.noop_jobs_per_s", "1/s", "higher"),
    ("scheduler.fused_members", "count", "higher"),
    ("scheduler.rejected", "count", "lower"),
    ("scheduler.failed", "count", "lower"),
    ("scheduler.lane_utilization", "ratio", "higher"),
    ("scheduler.latency_p50_s", "s", "lower"),
    ("scheduler.latency_p95_s", "s", "lower"),
    ("scheduler.latency_mean_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.key_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cost.estimate_s", "s", "lower"),
    ("shm.publish_s", "s", "lower"),
    ("shm.attach_s", "s", "lower"),
    ("shm.segment_mb", "MiB", "lower"),
    ("shm.leaked_segments", "count", "lower"),
    ("worker.spawn_ready_s", "s", "lower"),
    ("worker.process_overhead_s", "s", "lower"),
    ("sessions.put_s", "s", "lower"),
    ("sessions.get_s", "s", "lower"),
    ("sessions.resolve_s", "s", "lower"),
    ("sessions.record_bytes", "B", "lower"),
    ("sessions.ancestor_hit_ratio", "ratio", "higher"),
    ("sessions.iterations_saved", "count", "higher"),
    ("obs.telemetry_overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


# ----------------------------------------------------------------------
# Process-tree accounting (workload process + live and reaped children)
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def descendants() -> list[int]:
    """Pids of every live process below this one."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we were looking
    found, frontier = [], [os.getpid()]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, parent in parents.items() if parent == pid]
        found += kids
        frontier += kids
    return found


def tree_cpu_s() -> float:
    """User+sys CPU seconds of this process and all its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in descendants():
        try:
            fields = Path("/proc", str(pid), "stat").read_text() \
                .rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICK
        except (OSError, IndexError, ValueError):
            continue
    return total


def tree_peak_rss_mb() -> float:
    """Peak RSS (MiB) of this process plus each live child's."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in descendants():
        try:
            for line in Path("/proc", str(pid), "status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def host_record(root: Path, pins: dict[str, str]) -> dict:
    """Where and on what this run was measured."""
    import scipy

    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache.is_dir():
        levels = sorted(cache.glob("index*"),
                        key=lambda p: int(read(str(p / "level")) or 0))
        if levels:
            llc = read(str(levels[-1] / "size"))
    sha = "not a git checkout"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, text=True,
                capture_output=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
        "llc_size": llc, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "environment_pins": pins,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def request_counts(recs) -> dict[str, int]:
    count = {"ok": 0, "failed": 0, "rejected": 0}
    for rec in recs:
        # A request still marked "sent" never got an outcome: failed.
        count[rec.status if rec.status in count else "failed"] += 1
    return {"sent": len(recs), **count}


def end_to_end(recs, *, slo_s: float, setup_s: float, cpu_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass.

    Only requests that completed *and passed the check* count as done;
    a failed or rejected request misses the latency limit.  Latency is
    completion minus due time.
    """
    good = [r for r in recs if r.status == "ok"]
    if not good:
        raise RuntimeError("no request completed correctly")
    window = max(r.done for r in good) - min(
        r.due for r in recs if r.done is not None)
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(good) / window,
        "slo_met_share": sum(r.latency <= slo_s for r in good) / len(recs),
        "iters_per_s": sum(r.report.itn for r in good
                           if not r.cache_hit) / window,
        "cpu_s_per_job": cpu_s / len(good),
        "peak_rss_mb": peak_rss_mb,
    }


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def per_layer(workload, untraced, traced, uctx, tctx, probes: dict
              ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one (untraced, traced) pair of passes.

    ``*_s`` metrics taken from spans are the mean seconds of one call
    of that layer function on this workload (0 when the workload never
    calls it); counts are totals over the traced pass.  Returns the
    metrics and the layer shares of request latency (the ledger).
    """
    spans = tctx.tracer.spans
    out = {name: 0.0 for name, *_ in PER_LAYER}
    out.update({k: v for k, v in probes.items() if k in out})

    def mean_span(name: str) -> float:
        count, total = tr.span_stats(spans, name)
        return total / count if count else 0.0

    out["system.generate_s"] = _mean(uctx.generate_s)
    out["system.append_s"] = _mean(uctx.append_s)
    for metric, span in (
            ("aprod.plan_build_s", "aprod.plan_build"),
            ("aprod.aprod1_s", "aprod.aprod1"),
            ("aprod.aprod2_s", "aprod.aprod2"),
            ("precond.build_s", "precond.build"),
            ("scheduler.submit_s", "scheduler.submit"),
            ("cache.key_s", "cache.key"), ("cache.get_s", "cache.get"),
            ("cache.put_s", "cache.put"),
            ("sessions.put_s", "sessions.put"),
            ("sessions.get_s", "sessions.get"),
            ("sessions.resolve_s", "sessions.resolve")):
        out[metric] = mean_span(span)

    # Kernel rate in computed bytes: per request, calls x the bytes one
    # product of *that* request's system must move, over measured time.
    system_of = {r.rid: r.system for r in traced}
    for direction in ("aprod1", "aprod2"):
        moved = seconds = 0.0
        for s in spans:
            if s.name == f"aprod.{direction}" and s.request_id in system_of:
                moved += computed_bytes(system_of[s.request_id])
                seconds += s.duration
        out[f"aprod.{direction}_gbs"] = (moved / seconds / 1e9
                                         if seconds else 0.0)
    out["aprod.calls"] = float(sum(
        s.name.startswith("aprod.aprod") for s in spans))

    solved = [r for r in traced if r.status == "ok" and not r.cache_hit]
    out["engine.iterations"] = float(sum(r.report.itn for r in solved))
    # One forward product per engine step (a fused sweep steps all its
    # members at once), so their count is the step count.
    selfs = tr.self_times(spans)
    lsqr_self = sum(selfs[s.id] for s in spans if s.name == "engine.lsqr")
    steps = sum(s.name in ("aprod.aprod1", "aprod.aprod1_batch")
                for s in spans)
    out["engine.step_self_s"] = lsqr_self / steps if steps else 0.0

    # Scheduler and cache: what the program reports on its outcomes of
    # the *untraced* pass (tracing off), plus the outside latency.
    good = [r for r in untraced if r.status == "ok"]
    latencies = [r.latency for r in good]
    count = request_counts(untraced)
    out["scheduler.latency_p50_s"] = pct(latencies, 50)
    out["scheduler.latency_p95_s"] = pct(latencies, 95)
    out["scheduler.latency_mean_s"] = _mean(latencies)
    out["scheduler.rejected"] = float(count["rejected"])
    out["scheduler.failed"] = float(count["failed"])
    if uctx.scheduler is not None:
        waits = [r.queue_wait_s for r in good]
        out["scheduler.queue_wait_p50_s"] = pct(waits, 50)
        out["scheduler.queue_wait_p95_s"] = pct(waits, 95)
        out["scheduler.exec_p50_s"] = pct([r.exec_s for r in good], 50)
        out["scheduler.overhead_p50_s"] = pct(
            [r.latency - r.queue_wait_s - r.exec_s for r in good], 50)
        out["scheduler.fused_members"] = float(sum(r.fused for r in good))
        report = uctx.serve_report
        out["scheduler.lane_utilization"] = max(
            report.utilization.values())
        stats = report.cache_stats
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        out["cache.hit_ratio"] = (stats.get("hits", 0) / lookups
                                  if lookups else 0.0)
        out["worker.spawn_ready_s"] = uctx.spawn_ready_s
        if workload.backend == "process":
            # Same stream, process pass minus thread (traced) pass.
            out["worker.process_overhead_s"] = (
                out["scheduler.exec_p50_s"] - pct(
                    [r.exec_s for r in traced if r.status == "ok"], 50))
    stats = uctx.store_stats
    if stats:
        out["sessions.record_bytes"] = (
            stats["bytes"] / stats["records"] if stats["records"] else 0.0)
        resolves = stats["hits"] + stats["ancestor_hits"] + stats["misses"]
        out["sessions.ancestor_hit_ratio"] = (
            stats["ancestor_hits"] / resolves if resolves else 0.0)
        out["sessions.iterations_saved"] = float(sum(
            r.report.warm_start.iterations_saved for r in good
            if r.report.warm_start is not None))

    traced_lat = [r.latency for r in traced if r.status == "ok"]
    if latencies and traced_lat:
        out["trace.overhead_ratio"] = (statistics.median(traced_lat)
                                       / statistics.median(latencies))
    shares, coverage = tr.ledger(spans)
    out["trace.coverage"] = coverage
    return out, shares
