"""Solve-session lifecycle benchmark (E40): warm starts + preemption.

The acceptance experiment for :mod:`repro.sessions`, in two arms.

**Warm vs cold incremental re-solve.**  For each paper size class
(10/30/60 GB nominal, solved at the usual scaled-down replica), a
growing-system chain -- step 0 fresh, each later step the parent plus
an appended observation block -- is solved twice: *cold* (every step
from scratch, what a session-less pipeline does between data
reductions) and *warm* (each step seeded from the
:class:`~repro.sessions.SessionStore` record of its parent).  The
paper's cost model is iterations x iteration time, so the headline
number is **iterations saved**; wall-clock per step is reported
alongside.  Acceptance: warm starts save iterations at >= 2 of the
three sizes (every chain step past the first must also produce the
same solution, pinned to rtol 1e-6 against the cold solve).

**Preempt / park / resume.**  A single-lane pool runs a low-priority
solve as ``preempt_slice``-iteration checkpointed slices; an urgent
job arrives mid-solve, preempts it at the next slice boundary, runs,
and the preempted solve resumes from its parked
:class:`~repro.core.engine.EngineState` archive.  Measured on the thread
AND process backends: *latency to preemption* (the urgent job's
queue wait -- bounded by one slice instead of the whole low-priority
solve) and the resumed solve's report, which must be **bitwise**
identical to the never-preempted reference (``x``, ``r2norm``,
``var``, ``itn``, ``stop``).  Afterwards the store must hold zero
parked checkpoints and the process backend zero shared-memory
segments -- no leaks.

``make sessions-bench`` writes ``BENCH_sessions.json``; ``--smoke``
shrinks the ladder for CI and asserts the same invariants.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import SolveRequest, solve
from repro.serve import DevicePool, Scheduler, ServeJob
from repro.serve.shm import active_segments
from repro.sessions import SessionStore
from repro.system.generator import make_observation_block, make_system
from repro.system.merge import append_observations
from repro.system.sizing import dims_from_gb

ROOT = Path(__file__).resolve().parent.parent

#: Paper size ladder (nominal GB) and the scaled-replica factor.
SIZES = (10.0, 30.0, 60.0)
SCALE = 2e-4
SMOKE_SIZES = (10.0, 30.0)
SMOKE_SCALE = 1e-4

#: Chain shape: step 0 plus CHAIN_STEPS - 1 grown re-solves, each
#: adding CHAIN_GROWTH x the parent's observations.
CHAIN_STEPS = 3
CHAIN_GROWTH = 0.5

#: Preemption arm: slice width and the low/urgent iteration budget.
PREEMPT_SLICE = 4
PREEMPT_ITER_LIM = 48


def build_chain(nominal_gb: float, scale: float, *, seed: int = 0):
    """The growing-system chain for one size class."""
    systems = [make_system(dims_from_gb(nominal_gb * scale),
                           seed=seed, noise_sigma=1e-9)]
    for step in range(1, CHAIN_STEPS):
        parent = systems[-1]
        n_new = max(1, round(parent.dims.n_obs * CHAIN_GROWTH))
        block = make_observation_block(parent, n_new,
                                       seed=seed + step)
        systems.append(append_observations(parent, block))
    return systems


def run_warm_vs_cold(sizes, scale) -> dict:
    """The incremental re-solve arm; returns its BENCH section."""
    out = {"chain_steps": CHAIN_STEPS, "chain_growth": CHAIN_GROWTH,
           "scale": scale, "sizes": []}
    for nominal in sizes:
        chain = build_chain(nominal, scale, seed=int(nominal))
        steps = []
        with SessionStore(None) as store:
            for i, system in enumerate(chain):
                request = SolveRequest(system=system)
                t0 = time.perf_counter()
                cold = solve(request)
                cold_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                warm = solve(request, sessions=store)
                warm_s = time.perf_counter() - t0
                mismatch = (i > 0 and not np.allclose(
                    warm.x, cold.x, rtol=1e-6, atol=1e-8))
                steps.append({
                    "step": i,
                    "n_obs": system.dims.n_obs,
                    "cold_itn": cold.itn,
                    "warm_itn": warm.itn,
                    "cold_s": cold_s,
                    "warm_s": warm_s,
                    "warm_depth": (warm.warm_start.depth
                                   if warm.warm_start else None),
                    "solution_mismatch": mismatch,
                })
            leaked_parks = list(store.parked_keys())
        saved = sum(s["cold_itn"] - s["warm_itn"]
                    for s in steps[1:])
        out["sizes"].append({
            "nominal_gb": nominal,
            "steps": steps,
            "iterations_saved": saved,
            "wall_saved_s": sum(s["cold_s"] - s["warm_s"]
                                for s in steps[1:]),
            "leaked_parks": leaked_parks,
        })
        print(f"  {nominal:g} GB chain: {saved} iteration(s) saved "
              f"across {CHAIN_STEPS - 1} warm re-solve(s)")
    return out


def run_preemption(backend: str) -> dict:
    """The preempt/park/resume arm for one backend."""
    low_req = SolveRequest(
        system=make_system(dims_from_gb(0.004), seed=0,
                           noise_sigma=1e-9),
        iter_lim=PREEMPT_ITER_LIM, job_id="low")
    urgent_req = SolveRequest(
        system=make_system(dims_from_gb(0.003), seed=1,
                           noise_sigma=1e-9),
        iter_lim=PREEMPT_ITER_LIM, job_id="urgent")
    reference = solve(low_req)

    pool = DevicePool(("V100",))
    store = SessionStore(None)
    sched = Scheduler(pool, workers=2, sessions=store,
                      preempt_slice=PREEMPT_SLICE, backend=backend,
                      mp_workers=2)
    sched.start()
    sched.submit(ServeJob(request=low_req, nominal_gb=20.0,
                          priority=5, job_id="low"))
    deadline = time.monotonic() + 60.0
    while not sched.placement_log and time.monotonic() < deadline:
        time.sleep(0.01)
    t_urgent = time.perf_counter()
    sched.submit(ServeJob(request=urgent_req, nominal_gb=20.0,
                          priority=0, job_id="urgent"))
    report = sched.drain()
    leaked_parks = list(store.parked_keys())
    store.close()

    by_id = {o.job.job_id: o for o in report.completed}
    low = by_id["low"].report
    urgent = by_id["urgent"]
    bitwise = (np.array_equal(low.x, reference.x)
               and low.r2norm == reference.r2norm
               and low.itn == reference.itn
               and low.stop == reference.stop
               and np.array_equal(low.var, reference.var))
    resumes = [p for p in report.placement_log
               if p.job_id == "low" and p.attempt > 0]
    doc = {
        "backend": backend,
        "preemptions": report.preemptions,
        "latency_to_preempt_s": urgent.queue_wait_s,
        "urgent_submit_to_done_s": time.perf_counter() - t_urgent,
        "low_itn": low.itn,
        "resume_attempts": len(resumes),
        "resume_previous_devices": (list(resumes[0].previous_devices)
                                    if resumes else []),
        "bitwise_equal_to_unpreempted": bitwise,
        "leaked_parks": leaked_parks,
        "leaked_shm_segments": list(active_segments()),
    }
    print(f"  {backend}: {report.preemptions} preemption(s), "
          f"urgent waited {urgent.queue_wait_s * 1e3:.0f} ms, "
          f"bitwise={bitwise}")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_sessions.json")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized ladder (fewer/smaller sizes)")
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else SIZES
    scale = SMOKE_SCALE if args.smoke else SCALE
    min_sizes_saving = 1 if args.smoke else 2

    print(f"E40 warm vs cold incremental re-solve "
          f"({len(sizes)} sizes, scale {scale:g}):")
    warm_cold = run_warm_vs_cold(sizes, scale)
    print("E40 preempt/park/resume:")
    preemption = [run_preemption("thread"), run_preemption("process")]

    sizes_saving = sum(1 for s in warm_cold["sizes"]
                       if s["iterations_saved"] > 0)
    failures = []
    if sizes_saving < min_sizes_saving:
        failures.append(
            f"warm starts saved iterations at only {sizes_saving} "
            f"size(s); need >= {min_sizes_saving}")
    for s in warm_cold["sizes"]:
        if any(step["solution_mismatch"] for step in s["steps"]):
            failures.append(
                f"warm solution diverged from cold at "
                f"{s['nominal_gb']:g} GB")
        if s["leaked_parks"]:
            failures.append(
                f"store leaked parked state at "
                f"{s['nominal_gb']:g} GB: {s['leaked_parks']}")
    for arm in preemption:
        b = arm["backend"]
        if arm["preemptions"] < 1:
            failures.append(f"{b}: no preemption occurred")
        if not arm["bitwise_equal_to_unpreempted"]:
            failures.append(
                f"{b}: resumed solve is not bitwise the "
                f"never-preempted one")
        if arm["leaked_parks"]:
            failures.append(
                f"{b}: leaked parked checkpoints "
                f"{arm['leaked_parks']}")
        if arm["leaked_shm_segments"]:
            failures.append(
                f"{b}: leaked shm segments "
                f"{arm['leaked_shm_segments']}")

    doc = {
        "experiment": "E40",
        "smoke": args.smoke,
        "warm_vs_cold": warm_cold,
        "preemption": preemption,
        "sizes_with_savings": sizes_saving,
        "passed": not failures,
        "failures": failures,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {args.output}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    total = sum(s["iterations_saved"] for s in warm_cold["sizes"])
    print(f"PASS: {total} iteration(s) saved across the ladder, "
          f"preemption bitwise-clean on both backends")
    return 0


if __name__ == "__main__":
    sys.exit(main())
