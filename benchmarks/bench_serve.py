"""Serving-layer throughput vs sequential solving (E35) and
serve-side request fusion vs the per-job path (E36).

The acceptance experiment for ``repro.serve``: a 16-job mixed
10/30/60 GB-shaped workload on a 4-device pool (V100, A100, H100,
MI250X per-GCD) must clear **3x** the throughput of sequentially
calling :func:`repro.api.solve` on the same jobs, while

- admitting **zero** jobs onto a device whose memory cannot hold the
  job's nominal footprint (the paper's "60 GB fits only
  H100/MI250X" constraint, checked against the placement log), and
- returning solutions **bitwise identical** to solo solves for every
  cache-miss job (the cache/coalescing layer must never change the
  numerics).

The speedup has two honest sources, reported separately: the result
cache + request single-flight collapse repeated jobs into one solve
each (the workload repeats itself, as serving traffic does), and the
worker pool overlaps the distinct solves.  ``make serve-bench``
writes ``BENCH_serve.json``; ``--smoke`` shrinks the workload for CI
and asserts the same invariants at a 2x bar (tiny runs leave the
speedup more exposed to scheduler overhead and machine noise).

**E36 (request fusion).**  A same-matrix/different-rhs stream
(``distinct_systems=1, rhs_variants=K``) run twice through a
single-worker, cache-less scheduler: once per-job (``max_fuse=1``)
and once fused (``max_fuse=K``), so the only difference is the
batched many-RHS engine.  Both paths apply the same compiled CSR
matrix, so the ratio prices fusion alone: one matrix read per product
for the whole batch, and one plan/preconditioner build per batch
instead of per job.  At K=8 that reads 1.6-1.9x on the 2-vCPU
reference host (five runs: per-job 10.9-12.2 jobs/s, fused 18.4-20.3
jobs/s) and the bar is **1.2x**.  (The 3x bar this replaced was
cleared, at 3.5x, only while the per-job path ran the slower emulated
products and the K=8 batch already ran CSR: it measured the kernel
gap.)  The fused run must demultiplex **bitwise** what a direct
:func:`repro.api.solve_batch` of the same members produces, and
every member must be **bitwise** its solo solve.  ``make
bench-batch-smoke`` (``--batch-smoke``) runs the K=4 CI version at a
>1x bar.

**E37 (sustained load under an SLO, thread vs process backend).**
The acceptance experiment for ``Scheduler(backend="process")``: one
matvec-dominated workload (scale 6e-4, where the GIL actually convoys
the thread backend on a busy host) is driven at increasing offered
load through both backends and must show the process pool sustaining
*strictly higher* jobs/s than the thread pool at the overload point.
Per backend the harness first measures *capacity* closed-loop
(``concurrency = workers``: the pipeline always full, never
over-full), then replays the same open-loop arrival stream at rate
multipliers of the **thread** capacity -- identical absolute rates
for both backends -- recording sustained jobs/s and p50/p95/p99 of
the end-to-end per-job latency (queue wait + execution) against a
stated SLO.  Backends are pre-started (``wait_ready``) so process
spawn + imports are a setup fee, not throughput; the solutions stay
bitwise identical across backends (pinned separately by
``tests/test_serve_mp.py``).

**E39 (gang-scheduled sharding vs exclusion).**  The same
too-large-for-any-lane job submitted twice: to a pool without the
gang opt-in (must be ``REJECTED_TOO_LARGE`` -- the paper's "60 GB
fits only H100/MI250X" exclusion) and to the same pool with
``PlacementConstraints(allow_gang=True, max_shards=R)`` (must
complete as an R-rank gang).  The gang solution must be **bitwise**
what ``api.solve(ranks=R)`` produces for the same request and
allclose to the serial engine (rank-ordered summation grouping
differs at R > 1, so bitwise-vs-serial is not the contract), with
every lane back to exactly full-free afterwards.  A migration arm
kills one rank mid-gang by deterministic fault seed and requires the
shard to move to a spare lane and resume from the gang checkpoint.
The modeled "1 big device vs R small + comm" comparison
(``estimate`` vs ``estimate_gang``) is reported alongside.  ``make
gang-smoke`` (``--gang-smoke``) runs the 2xT4/16 GB CI version.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import (
    PlacementConstraints,
    ResilienceConfig,
    SolveRequest,
    solve,
    solve_batch,
)
from repro.core.engine import StopReason
from repro.gpu.platforms import placement_devices
from repro.obs.telemetry import Telemetry
from repro.serve import (
    AdmissionDecision,
    DevicePool,
    LoadGenerator,
    LoadSpec,
    PlacementCostModel,
    ResultCache,
    Scheduler,
    ServeJob,
    run_closed_loop,
)
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb

ROOT = Path(__file__).resolve().parent.parent

POOL_DEVICES = ("V100", "A100", "H100", "MI250X")

#: The acceptance workload: 16 jobs over 3 distinct (system, config)
#: slots covering all three nominal sizes (seed 1 draws 6/5/5 jobs of
#: 10/30/60 GB).
BENCH_SPEC = LoadSpec(n_jobs=16, distinct_systems=3, scale=2e-4,
                      iter_lim=60, seed=1)
SMOKE_SPEC = LoadSpec(n_jobs=8, distinct_systems=2, scale=1e-4,
                      iter_lim=40, seed=1)

#: The E36 workload: one shared matrix, 8 rhs variants -- the
#: same-matrix/different-b stream request fusion is built for.  Each
#: job is unique work (no cache, no dedupe), so any speedup comes
#: from the batched engine alone.  Scale 6e-4 puts the matvec firmly
#: in charge of the iteration cost (the regime the paper's full-size
#: systems live in); at the cache-sized 1e-4 systems the per-member
#: scalar recurrences dominate and batching only breaks even.
FUSION_SPEC = LoadSpec(n_jobs=16, mix=((10.0, 1.0),),
                       distinct_systems=1, rhs_variants=8,
                       scale=6e-4, iter_lim=60, seed=2)
#: Smoke variant: K=4 on a system large enough for the matvec to
#: dominate the per-iteration fixed costs (at 1e-4 scale the batched
#: engine only breaks even, which a >1x bar cannot pin reliably).
FUSION_SMOKE_SPEC = LoadSpec(n_jobs=8, mix=((10.0, 1.0),),
                             distinct_systems=1, rhs_variants=4,
                             scale=6e-4, iter_lim=40, seed=2)

#: The E37 workload: 10 GB-shaped jobs at the matvec-dominated 1e-3
#: scale, where each job's working set is large enough that
#: *interleaving* concurrent solves through one cache hierarchy is
#: what hurts.  The thread backend must interleave (its solves run in
#: the dispatcher threads, GIL handoffs forcing fine-grained switches
#: between working sets); the process backend sizes its solve pool to
#: the physical cores and runs each job with a dedicated cache.  No
#: result cache: every job is real work, as a load test requires.
SUSTAINED_SPEC = LoadSpec(n_jobs=12, mix=((10.0, 1.0),),
                          distinct_systems=4, rhs_variants=3,
                          scale=1e-3, iter_lim=50, seed=3)

#: End-to-end (queue wait + execution) p99 latency objective for the
#: sub-capacity point of the E37 sweep.
SUSTAINED_SLO_S = 15.0

#: Offered-load multipliers of the measured *thread* capacity: one
#: comfortably under, one just past, one deep overload.
SUSTAINED_MULTIPLIERS = (0.6, 1.2, 2.0)

#: E39 acceptance arm: the paper's 60 GB class (63.7 GB solver
#: footprint) on four 32 GB V100s -- no single lane can ever hold it,
#: a 3- or 4-way gang can.  The modeled single-device reference is
#: the H100, the smallest NVIDIA part the exclusion rule allows.
GANG_SPEC = dict(pool=("V100", "V100", "V100", "V100"),
                 nominal_gb=60.0, max_shards=4, single_device="H100",
                 scale=2e-4, iter_lim=60)
#: CI-sized arm: 16 GB (17.0 GB footprint) on two 15 GB T4s -> a
#: forced 2-rank gang; V100 is the modeled single-device reference.
GANG_SMOKE_SPEC = dict(pool=("T4", "T4"), nominal_gb=16.0,
                       max_shards=2, single_device="V100",
                       scale=1e-4, iter_lim=40)


def run_bench(spec: LoadSpec, *, workers: int = 4,
              min_speedup: float = 3.0) -> dict:
    """One full comparison run; returns the BENCH document."""
    jobs = LoadGenerator(spec).jobs()

    # Solo reference solves, one per job: the sequential baseline and
    # the bitwise reference for every cache-miss job.
    t0 = time.perf_counter()
    solo = {job.job_id: solve(job.request) for job in jobs}
    sequential_s = time.perf_counter() - t0

    tel = Telemetry()
    pool = DevicePool(POOL_DEVICES, per_gcd=True, telemetry=tel)
    scheduler = Scheduler(pool, workers=workers,
                          cache=ResultCache(64, telemetry=tel),
                          telemetry=tel)
    report = scheduler.run(jobs)

    # -- invariant 1: zero oversize admissions ------------------------
    memory_of = {lane.lane_id: lane.spec.memory_gb
                 for lane in pool.lanes}
    oversize = [
        p for p in report.placement_log
        if p.footprint_gb > memory_of[p.device]
    ]

    # -- invariant 2: cache-miss solutions bitwise == solo solves -----
    miss_ids = {p.job_id for p in report.placement_log
                if not p.cache_hit}
    bitwise_failures = []
    outcomes = {o.job.job_id: o for o in report.completed}
    for job_id in sorted(miss_ids):
        served = outcomes[job_id].report
        if not np.array_equal(served.x, solo[job_id].x):
            bitwise_failures.append(job_id)

    speedup = sequential_s / report.wall_s if report.wall_s else 0.0
    doc = {
        "workload": {
            "n_jobs": spec.n_jobs,
            "distinct_systems": spec.distinct_systems,
            "nominal_mix_gb": sorted({j.nominal_gb for j in jobs}),
            "scale": spec.scale,
            "seed": spec.seed,
            "pool": list(POOL_DEVICES),
            "per_gcd": True,
            "workers": workers,
        },
        "sequential_s": sequential_s,
        "serve_wall_s": report.wall_s,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "throughput_jobs_per_s": report.throughput_jobs_per_s,
        "queue_wait_p50_s": report.wait_percentile(50),
        "queue_wait_p99_s": report.wait_percentile(99),
        "device_utilization": report.utilization,
        "cache": report.cache_stats,
        "coalesced": int(tel.counter("serve.coalesced").value),
        "distinct_solves": len(miss_ids),
        "oversize_admissions": len(oversize),
        "bitwise_mismatches": bitwise_failures,
        "placements": [
            {"job_id": p.job_id, "nominal_gb": p.nominal_gb,
             "device": p.device, "port": p.port_key,
             "cache_hit": p.cache_hit}
            for p in report.placement_log
        ],
    }
    doc["passed"] = (speedup >= min_speedup and not oversize
                     and not bitwise_failures
                     and len(report.completed) == spec.n_jobs)
    return doc


def run_fusion_bench(spec: LoadSpec, *, k: int,
                     min_speedup: float = 1.2) -> dict:
    """E36: fused (``max_fuse=k``) vs per-job scheduling, same stream.

    Both runs use one worker and no cache, so fusion is the only
    variable.  The per-job run doubles as the solo reference: with
    ``max_fuse=1`` every job goes through :func:`repro.api.solve`
    untouched.
    """
    jobs = LoadGenerator(spec).jobs()

    def _run(max_fuse: int):
        tel = Telemetry()
        pool = DevicePool(POOL_DEVICES, per_gcd=True, telemetry=tel)
        scheduler = Scheduler(pool, workers=1, cache=None,
                              max_fuse=max_fuse, telemetry=tel)
        return scheduler.run(jobs), tel

    perjob_report, _ = _run(1)
    fused_report, fused_tel = _run(k)

    solo = {o.job.job_id: o.report for o in perjob_report.completed}
    served = {o.job.job_id: o.report for o in fused_report.completed}

    # -- demux integrity: each fused batch, re-solved directly through
    # api.solve_batch on the same members in the same order, must
    # reproduce the served solutions bitwise.
    batches: dict[str, list] = {}
    for p in fused_report.placement_log:
        if p.batch_id is not None:
            batches.setdefault(p.batch_id, []).append(p.job_id)
    demux_mismatches = []
    job_of = {j.job_id: j for j in jobs}
    for batch_id, member_ids in batches.items():
        direct = solve_batch([job_of[i].request for i in member_ids])
        for job_id, ref in zip(member_ids, direct):
            if not np.array_equal(served[job_id].x, ref.x):
                demux_mismatches.append(job_id)

    # -- solution quality: every member is bitwise its solo solve
    # (solution, stop reason and iteration count).
    solo_mismatches = [
        job_id for job_id, ref in solo.items()
        if not (np.array_equal(served[job_id].x, ref.x)
                and served[job_id].stop == ref.stop
                and served[job_id].itn == ref.itn)]

    n_batches = len(batches)
    fused_members = sum(len(m) for m in batches.values())
    speedup = (fused_report.throughput_jobs_per_s
               / perjob_report.throughput_jobs_per_s
               if perjob_report.throughput_jobs_per_s else 0.0)
    doc = {
        "workload": {
            "n_jobs": spec.n_jobs,
            "rhs_variants": spec.rhs_variants,
            "max_fuse": k,
            "scale": spec.scale,
            "seed": spec.seed,
            "workers": 1,
            "cache": None,
        },
        "per_job_wall_s": perjob_report.wall_s,
        "fused_wall_s": fused_report.wall_s,
        "per_job_jobs_per_s": perjob_report.throughput_jobs_per_s,
        "fused_jobs_per_s": fused_report.throughput_jobs_per_s,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "fused_batches": n_batches,
        "fused_members": fused_members,
        "fusion_counters": {
            "batches": int(
                fused_tel.counter("serve.fusion.batches").value),
            "members": int(
                fused_tel.counter("serve.fusion.members").value),
            "fallbacks": int(
                fused_tel.counter("serve.fusion.fallback").value),
        },
        "demux_mismatches": demux_mismatches,
        "solo_mismatches": solo_mismatches,
    }
    doc["passed"] = (speedup >= min_speedup
                     and n_batches >= 1
                     and fused_members == spec.n_jobs
                     and not demux_mismatches
                     and not solo_mismatches
                     and len(fused_report.completed) == spec.n_jobs)
    return doc


def _latency_percentiles(report) -> dict:
    """p50/p95/p99 of end-to-end per-job latency (wait + exec)."""
    lat = np.asarray(sorted(o.queue_wait_s + o.exec_s
                            for o in report.completed))
    if lat.size == 0:
        return {"p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0}
    return {
        "p50_s": float(np.percentile(lat, 50)),
        "p95_s": float(np.percentile(lat, 95)),
        "p99_s": float(np.percentile(lat, 99)),
    }


def run_sustained_bench(spec: LoadSpec, *, workers: int = 4,
                        multipliers=SUSTAINED_MULTIPLIERS,
                        slo_s: float = SUSTAINED_SLO_S) -> dict:
    """E37: sustained jobs/s and latency under load, thread vs process.

    Per backend: a closed-loop capacity probe (``concurrency =
    workers``), then the same open-loop arrival stream at each offered
    rate -- identical absolute rates for both backends, anchored on
    the thread capacity so "overload" means the same thing on both
    sides.  Backends are pre-started and ``wait_ready``-warmed before
    every measured window, so process spawn + imports never count as
    serving time.
    """

    def _mk(backend: str) -> Scheduler:
        pool = DevicePool(POOL_DEVICES, per_gcd=True)
        sched = Scheduler(pool, workers=workers, cache=None,
                          max_queue_depth=max(64, spec.n_jobs),
                          backend=backend, drain_timeout=300.0)
        sched.wait_ready(120.0)
        return sched

    capacity: dict[str, float] = {}
    for backend in ("thread", "process"):
        report = run_closed_loop(_mk(backend),
                                 LoadGenerator(spec).jobs(),
                                 concurrency=workers)
        capacity[backend] = report.throughput_jobs_per_s

    rates = [m * capacity["thread"] for m in multipliers]
    sweeps: dict[str, list[dict]] = {"thread": [], "process": []}
    for backend in ("thread", "process"):
        for mult, rate in zip(multipliers, rates):
            sched = _mk(backend)
            report = sched.run(
                LoadGenerator(spec.at_rate(rate)).jobs())
            point = {
                "rate_multiplier": mult,
                "offered_rate_hz": rate,
                "sustained_jobs_per_s": report.throughput_jobs_per_s,
                "completed": len(report.completed),
                "stuck_workers": list(report.stuck_workers),
                **_latency_percentiles(report),
            }
            point["slo_met"] = point["p99_s"] <= slo_s
            sweeps[backend].append(point)

    # The acceptance comparison happens at the deepest overload point.
    over_t = sweeps["thread"][-1]
    over_p = sweeps["process"][-1]
    complete = all(pt["completed"] == spec.n_jobs
                   for pts in sweeps.values() for pt in pts)
    doc = {
        "workload": {
            "n_jobs": spec.n_jobs,
            "distinct_systems": spec.distinct_systems,
            "rhs_variants": spec.rhs_variants,
            "scale": spec.scale,
            "iter_lim": spec.iter_lim,
            "seed": spec.seed,
            "workers": workers,
            "cache": None,
        },
        "slo_s": slo_s,
        "capacity_jobs_per_s": capacity,
        "offered_rates_hz": rates,
        "sweep": sweeps,
        "overload_thread_jobs_per_s": over_t["sustained_jobs_per_s"],
        "overload_process_jobs_per_s": over_p["sustained_jobs_per_s"],
        "overload_gain": (
            over_p["sustained_jobs_per_s"]
            / over_t["sustained_jobs_per_s"]
            if over_t["sustained_jobs_per_s"] else 0.0),
    }
    doc["passed"] = (
        over_p["sustained_jobs_per_s"] > over_t["sustained_jobs_per_s"]
        and complete
        # At sub-capacity offered load both backends must hold the SLO;
        # the overload points are *reported* against it, not gated
        # (shedding-free overload necessarily grows the queue).
        and sweeps["thread"][0]["slo_met"]
        and sweeps["process"][0]["slo_met"]
    )
    return doc


def _pool_leaks(pool: DevicePool) -> list[str]:
    """Lanes not back to exactly full-free with an empty FIFO."""
    return [lane.lane_id for lane in pool.lanes
            if lane.free_gb != lane.spec.memory_gb or lane.lane]


def run_gang_bench(*, pool: tuple[str, ...], nominal_gb: float,
                   max_shards: int, single_device: str,
                   scale: float, iter_lim: int) -> dict:
    """E39: gang-vs-exclusion A/B plus the numerics + migration arms.

    The job's nominal footprint exceeds every lane in ``pool``;
    without the gang opt-in admission must reject it outright, with
    it the scheduler must decompose it into an R-rank gang whose
    solution is bitwise the R-rank distributed reference.  The
    migration arm reruns the gang on ``pool`` plus one spare lane
    with a deterministic rank death and requires the dead shard to
    move and the solve to resume from the gang checkpoint.
    """
    seed = 11
    system = make_system(dims_from_gb(scale), seed=seed,
                         noise_sigma=1e-9)

    def _request(**extra) -> SolveRequest:
        return SolveRequest(system=system, seed=seed,
                            iter_lim=iter_lim, **extra)

    # -- A: exclusion.  No opt-in -> the seed behavior, a hard reject.
    pool_a = DevicePool(pool, per_gcd=True)
    decision_a = Scheduler(pool_a, workers=1).submit(
        ServeJob(request=_request(), nominal_gb=nominal_gb,
                 job_id="excluded"))
    rejected = decision_a is AdmissionDecision.REJECTED_TOO_LARGE

    # -- B: gang.  Same pool, same job, allow_gang -> must complete.
    pool_b = DevicePool(pool, per_gcd=True)
    sched_b = Scheduler(pool_b, workers=1)
    gang_request = _request(constraints=PlacementConstraints(
        allow_gang=True, max_shards=max_shards))
    t0 = time.perf_counter()
    report_b = sched_b.run([ServeJob(request=gang_request,
                                     nominal_gb=nominal_gb,
                                     job_id="gang")])
    gang_wall_s = time.perf_counter() - t0
    outcome = report_b.outcomes[0]
    completed = (outcome.decision is AdmissionDecision.ADMITTED
                 and outcome.report is not None)
    placement = outcome.placements[-1] if outcome.placements else None
    ranks = outcome.report.ranks if completed else 0

    # The gang IS the R-rank distributed solve, bitwise; the serial
    # engine is the allclose reference (summation grouping differs).
    bitwise_ok = worst_rel = None
    if completed and ranks >= 2:
        ref = solve(_request(ranks=ranks))
        bitwise_ok = bool(np.array_equal(outcome.report.x, ref.x))
        serial = solve(_request())
        denom = float(np.max(np.abs(serial.x))) or 1.0
        worst_rel = float(
            np.max(np.abs(outcome.report.x - serial.x))) / denom

    # -- migration arm: one spare lane, rank 1 dies at iteration 12.
    spare_pool = DevicePool(pool + (pool[0],), per_gcd=True)
    sched_m = Scheduler(spare_pool, workers=1, max_replacements=1)
    mig_request = _request(
        constraints=PlacementConstraints(allow_gang=True,
                                         max_shards=max_shards),
        resilience=ResilienceConfig(rank_deaths=((1, 12),),
                                    allow_degraded=False,
                                    max_restarts=0,
                                    checkpoint_every=5))
    mig_outcome = sched_m.run(
        [ServeJob(request=mig_request, nominal_gb=nominal_gb,
                  job_id="migrate")]).outcomes[0]
    mig_final = (mig_outcome.placements[-1]
                 if mig_outcome.placements else None)
    moved = ([s for s in mig_final.shards if s.migrated_from]
             if mig_final else [])
    migrated_ok = (
        mig_outcome.report is not None
        and mig_outcome.report.stop not in (StopReason.DEGRADED,
                                            StopReason.ABORTED_FAULTS)
        and len(mig_outcome.placements) == 2
        and len(moved) == 1 and moved[0].rank == 1
        and moved[0].device != moved[0].migrated_from)

    # -- modeled economics: one big device vs R small + comm, priced
    # in the same currency by the placement cost model.
    model = PlacementCostModel(n_iterations=iter_lim)
    single_spec = placement_devices((single_device,), per_gcd=True)[0]
    single_est = model.estimate(nominal_gb, single_spec)
    gang_est = model.estimate_gang(
        nominal_gb, placement_devices(pool, per_gcd=True))

    doc = {
        "workload": {
            "nominal_gb": nominal_gb,
            "pool": list(pool),
            "max_shards": max_shards,
            "scale": scale,
            "iter_lim": iter_lim,
            "seed": seed,
        },
        "exclusion_rejected": rejected,
        "gang_completed": completed,
        "gang_ranks": ranks,
        "gang_wall_s": gang_wall_s,
        "shards": [
            {"rank": s.rank, "device": s.device,
             "footprint_gb": s.footprint_gb, "port": s.port_key}
            for s in (placement.shards if placement else ())
        ],
        "bitwise_vs_rank_reference": bitwise_ok,
        "worst_rel_error_vs_serial": worst_rel,
        "gang_pool_leaks": _pool_leaks(pool_b),
        "migration": {
            "completed": mig_outcome.report is not None,
            "attempts": (mig_final.attempt if mig_final else None),
            "moved": [
                {"rank": s.rank, "from": s.migrated_from,
                 "to": s.device} for s in moved
            ],
            "passed": migrated_ok,
            "pool_leaks": _pool_leaks(spare_pool),
        },
        "modeled": {
            "single_device": single_device,
            "single_seconds": (single_est.seconds
                               if single_est else None),
            "single_port": (single_est.port_key
                            if single_est else None),
            "gang_seconds": gang_est.seconds if gang_est else None,
            "gang_comm_s": gang_est.comm_s if gang_est else None,
            "gang_ranks": gang_est.ranks if gang_est else None,
            "gang_link": gang_est.link_name if gang_est else None,
        },
    }
    doc["passed"] = (
        rejected and completed and ranks >= 2
        and bitwise_ok is True
        and worst_rel is not None and worst_rel <= 1e-5
        and not doc["gang_pool_leaks"]
        and migrated_ok and not doc["migration"]["pool_leaks"]
        and single_est is not None and gang_est is not None
        and gang_est.comm_s > 0.0)
    return doc


def _print_gang(doc: dict, label: str = "gang") -> None:
    mod = doc["modeled"]
    print(f"{label}: exclusion rejected: {doc['exclusion_rejected']}; "
          f"gang x{doc['gang_ranks']} completed in "
          f"{doc['gang_wall_s']:.2f} s, bitwise vs "
          f"ranks={doc['gang_ranks']} reference: "
          f"{doc['bitwise_vs_rank_reference']}")
    print(f"{label}: migration: attempts "
          f"{doc['migration']['attempts']}, moved "
          f"{doc['migration']['moved'] or 'none'}; leaks: "
          f"{doc['gang_pool_leaks'] or 'none'}")
    if mod["gang_seconds"] is not None:
        print(f"{label}: modeled 1x{mod['single_device']} "
              f"{mod['single_seconds']:.1f} s vs "
              f"{mod['gang_ranks']}-rank gang "
              f"{mod['gang_seconds']:.1f} s "
              f"({mod['gang_comm_s']:.2f} s comm on "
              f"{mod['gang_link']})")


def _print_sustained(doc: dict) -> None:
    cap = doc["capacity_jobs_per_s"]
    print(f"sustained: capacity thread {cap['thread']:.2f} jobs/s, "
          f"process {cap['process']:.2f} jobs/s "
          f"(SLO p99 <= {doc['slo_s']:g} s)")
    for backend in ("thread", "process"):
        for pt in doc["sweep"][backend]:
            print(f"sustained[{backend}] x{pt['rate_multiplier']:g}: "
                  f"{pt['sustained_jobs_per_s']:.2f} jobs/s, "
                  f"p50 {pt['p50_s']:.2f} s, p99 {pt['p99_s']:.2f} s"
                  f"{'' if pt['slo_met'] else ' (SLO miss)'}")
    print(f"sustained: overload gain process/thread "
          f"{doc['overload_gain']:.2f}x")


def _print_fusion(doc: dict, label: str = "fusion") -> None:
    print(f"{label}: per-job {doc['per_job_jobs_per_s']:.2f} jobs/s "
          f"-> fused {doc['fused_jobs_per_s']:.2f} jobs/s "
          f"({doc['speedup']:.2f}x, bar {doc['min_speedup']:g}x) in "
          f"{doc['fused_batches']} batch(es) of "
          f"{doc['workload']['max_fuse']} max")
    print(f"{label}: demux mismatches: "
          f"{doc['demux_mismatches'] or 'none'}; members not bitwise "
          f"their solo solve: {doc['solo_mismatches'] or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workload with a 2x bar")
    parser.add_argument("--batch-smoke", action="store_true",
                        help="E36 only: K=4 fusion smoke at a >1x bar")
    parser.add_argument("--gang-smoke", action="store_true",
                        help="E39 only: 2-rank gang on 2xT4 with the "
                             "exclusion A/B and migration arms")
    args = parser.parse_args(argv)

    if args.gang_smoke:
        doc = run_gang_bench(**GANG_SMOKE_SPEC)
        out = (args.output if args.output != "BENCH_serve.json"
               else "BENCH_gang_smoke.json")
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
        _print_gang(doc, label="gang-smoke")
        print(f"wrote {out}")
        if not doc["passed"]:
            print("FAILED: gang smoke criteria not met",
                  file=sys.stderr)
            return 1
        return 0

    if args.batch_smoke:
        doc = run_fusion_bench(FUSION_SMOKE_SPEC, k=4,
                               min_speedup=1.0)
        out = (args.output if args.output != "BENCH_serve.json"
               else "BENCH_batch_smoke.json")
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
        _print_fusion(doc, label="batch-smoke")
        print(f"wrote {out}")
        if not doc["passed"]:
            print("FAILED: fusion smoke criteria not met",
                  file=sys.stderr)
            return 1
        return 0

    spec = SMOKE_SPEC if args.smoke else BENCH_SPEC
    min_speedup = 2.0 if args.smoke else 3.0
    doc = run_bench(spec, workers=args.workers,
                    min_speedup=min_speedup)
    if not args.smoke:
        doc["fusion"] = run_fusion_bench(FUSION_SPEC, k=8)
        doc["sustained"] = run_sustained_bench(SUSTAINED_SPEC,
                                               workers=args.workers)
        doc["gang"] = run_gang_bench(**GANG_SPEC)
        doc["passed"] = (doc["passed"] and doc["fusion"]["passed"]
                         and doc["sustained"]["passed"]
                         and doc["gang"]["passed"])

    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"sequential {doc['sequential_s']:.2f} s -> serve "
          f"{doc['serve_wall_s']:.2f} s "
          f"({doc['speedup']:.2f}x, bar {min_speedup:g}x); "
          f"{doc['distinct_solves']} distinct solves, "
          f"{doc['cache']['hits']} cache hits, "
          f"{doc['coalesced']} coalesced")
    print(f"oversize admissions: {doc['oversize_admissions']}; "
          f"bitwise mismatches: {doc['bitwise_mismatches'] or 'none'}")
    if "fusion" in doc:
        _print_fusion(doc["fusion"])
    if "sustained" in doc:
        _print_sustained(doc["sustained"])
    if "gang" in doc:
        _print_gang(doc["gang"])
    print(f"wrote {args.output}")
    if not doc["passed"]:
        print("FAILED: serving acceptance criteria not met",
              file=sys.stderr)
        return 1
    return 0


def test_serve_throughput_smoke(results_dir):
    """Pytest-harness entry: smoke workload, invariants only."""
    doc = run_bench(SMOKE_SPEC, workers=2, min_speedup=1.0)
    assert doc["oversize_admissions"] == 0
    assert not doc["bitwise_mismatches"]
    (results_dir / "serve_smoke.json").write_text(
        json.dumps(doc, indent=2))


def test_serve_fusion_smoke(results_dir):
    """Pytest-harness entry: E36 smoke, demux/quality invariants."""
    doc = run_fusion_bench(FUSION_SMOKE_SPEC, k=4, min_speedup=1.0)
    assert doc["fused_batches"] >= 1
    assert not doc["demux_mismatches"]
    assert not doc["solo_mismatches"]
    (results_dir / "batch_smoke.json").write_text(
        json.dumps(doc, indent=2))


if __name__ == "__main__":
    sys.exit(main())
