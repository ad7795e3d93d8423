"""Direct calls into single layers, timed from outside.

The traced pass attributes a request's time to layers; these probes
cover what no request of a workload routes through (the distributed and
resilient drivers, checkpoint I/O, the telemetry on/off ratio) or what
only shows as an aggregate there (kernel rates at the workload's own
array size, shared-memory publish/attach, scheduler ceiling).  Kernel
and store probes use the workload's first system, because array size
is what they depend on; whole-solve probes use one small fixed-size
probe system so that they cost the same on every workload.

All seconds are host-measured.  Each probe reports the median of a few
repetitions.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import tracer as tr
from repro.api import ResilienceConfig, SolveReport, SolveRequest
from repro.api import solve as api_solve
from repro.api import solve_batch as api_solve_batch
from repro.core.aprod import AprodOperator
from repro.core.engine import LSQRStepEngine
from repro.core.precond import ColumnScaling, PreconditionedAprod
from repro.obs.telemetry import Telemetry
from repro.serve import (
    DevicePool,
    PlacementCostModel,
    Scheduler,
    ServeJob,
    SystemStore,
    active_segments,
)
from repro.system.digest import system_digest
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb
from repro.system.sparse import GaiaSystem

REPS = 3
BATCH = 8
NOOP_JOBS = 200
PROBE_ITER_LIM = 60


def _median_s(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def computed_bytes(system: GaiaSystem) -> int:
    """Bytes one sparse product must move, computed from array sizes.

    8 B value + 4 B column index per stored coefficient, plus the input
    and output vectors once.  Cache misses and the implementation's own
    index width or workspaces are deliberately not in it: it is the
    currency a kernel change is compared in, not a measurement.
    """
    d = system.dims
    return d.n_obs * d.nnz_per_row * 12 + (system.n_rows + d.n_params) * 8


def kernel_probes(system: GaiaSystem) -> dict[str, float]:
    """Plan workspace, batched products and digest on ``system``."""
    op = AprodOperator(system)
    n, m = system.dims.n_params, system.n_rows
    rng = np.random.default_rng(0)
    out = {
        "aprod.plan_workspace_mb": (
            op.plan.workspace_nbytes / 2**20 if op.plan is not None
            else 0.0),
        "system.digest_s": _median_s(lambda: system_digest(system)),
    }
    bop = AprodOperator(system, batch_hint=BATCH)
    X = rng.normal(size=(BATCH, n))
    Y = rng.normal(size=(BATCH, m))
    bop.aprod1_batch(X)  # builds the lazy batch workspaces / CSR pair
    bop.aprod2_batch(Y)
    out["aprod.batch8_aprod1_s"] = _median_s(lambda: bop.aprod1_batch(X))
    out["aprod.batch8_aprod2_s"] = _median_s(lambda: bop.aprod2_batch(Y))
    return out


def shm_probes(system: GaiaSystem) -> dict[str, float]:
    """Publish / attach one system through the shared-memory store."""
    before = set(active_segments())
    with SystemStore() as store:
        t0 = time.perf_counter()
        digest = store.publish(system)
        publish_s = time.perf_counter() - t0
        attach_s = _median_s(lambda: store.attach(digest))
        segment_mb = sum(
            os.stat(f"/dev/shm/{name}").st_size
            for name in set(active_segments()) - before) / 2**20
        store.release(digest)
    return {"shm.publish_s": publish_s, "shm.attach_s": attach_s,
            "shm.segment_mb": segment_mb}


def checkpoint_probe(system: GaiaSystem, out_dir: Path) -> dict[str, float]:
    """Write one mid-solve engine state the way the drivers do."""
    op = AprodOperator(system)
    scaled = PreconditionedAprod(op, ColumnScaling.from_operator(op))
    engine = LSQRStepEngine(scaled)
    state = engine.start(system.rhs().astype(np.float64, copy=True))
    for _ in range(3):
        engine.step(state)
    path = out_dir / "probe-checkpoint.npz"
    try:
        write_s = _median_s(lambda: state.save(path))
        nbytes = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    return {"engine.checkpoint_write_s": write_s,
            "engine.checkpoint_bytes": float(nbytes)}


def solve_probes(probe: GaiaSystem) -> tuple[dict[str, float], bool]:
    """Whole-solve probes on the fixed-size probe system.

    Returns the metrics and whether the decomposed traced solve's ``x``
    was bitwise the untraced ``api.solve``'s.
    """
    request = SolveRequest(system=probe, iter_lim=PROBE_ITER_LIM)
    reports: dict[str, SolveReport] = {}

    def run(key: str, req: SolveRequest):
        reports[key] = api_solve(req)

    run("serial", request)  # untimed: the allocator has seen this size
    serial, traced, layers = [], [], []
    for _ in range(REPS):  # interleaved, so drift hits both alike
        t0 = time.perf_counter()
        run("serial", request)
        serial.append(time.perf_counter() - t0)
        tracer = tr.Tracer()
        t0 = time.perf_counter()
        reports["traced"] = tr.traced_solve(request, tracer)
        traced.append(time.perf_counter() - t0)
        layers.append(sum(
            tr.span_stats(tracer.spans, name)[1] for name in
            ("aprod.plan_build", "precond.build", "engine.lsqr")))
    serial_s = statistics.median(serial)
    telemetry_s = _median_s(lambda: run(
        "telemetry", replace(request, telemetry=Telemetry())))
    resilient_s = _median_s(lambda: run("resilient", SolveRequest(
        system=probe, iter_lim=PROBE_ITER_LIM,
        resilience=ResilienceConfig())))
    ranks2_s = _median_s(lambda: run("ranks2", SolveRequest(
        system=probe, iter_lim=PROBE_ITER_LIM, ranks=2)))
    members = [
        SolveRequest(system=_variant(probe, v), iter_lim=PROBE_ITER_LIM)
        for v in range(BATCH)]
    batch_s = _median_s(lambda: api_solve_batch(members), reps=1)
    bitwise = bool(np.array_equal(reports["serial"].x,
                                  reports["traced"].x))
    return {
        # What api.solve spends outside the three layer calls it makes.
        "api.solve_self_s": serial_s - statistics.median(layers),
        "api.solve_batch8_s": batch_s,
        "resilience.r1_overhead_ratio": resilient_s / serial_s,
        "dist.ranks2_solve_s": ranks2_s,
        "obs.telemetry_overhead_ratio": telemetry_s / serial_s,
        "probe.serial_solve_s": serial_s,
        "probe.traced_solve_s": statistics.median(traced),
    }, bitwise


def _variant(system: GaiaSystem, v: int) -> GaiaSystem:
    if v == 0:
        return system
    rng = np.random.default_rng((7, v))
    return replace(system, known_terms=system.known_terms + rng.normal(
        scale=1e-9, size=system.known_terms.shape))


def scheduler_probes(probe: GaiaSystem,
                     devices: tuple[str, ...]) -> dict[str, float]:
    """Scheduler ceiling with a canned solve, and the pricing call."""
    devices = devices or ("A100", "H100")
    canned = api_solve(SolveRequest(system=probe, iter_lim=2))
    sched = Scheduler(DevicePool(devices, per_gcd=True), workers=2,
                      max_queue_depth=NOOP_JOBS,
                      solve_fn=lambda request: canned)
    jobs = [ServeJob(request=SolveRequest(system=probe, iter_lim=2,
                                          job_id=f"noop-{i}"),
                     nominal_gb=10.0, job_id=f"noop-{i}")
            for i in range(NOOP_JOBS)]
    t0 = time.perf_counter()
    report = sched.run(jobs)
    wall = time.perf_counter() - t0
    lanes = DevicePool(devices, per_gcd=True).lanes
    keys = [(gb, lane.spec) for lane in lanes for gb in (10.0, 30.0, 60.0)]
    # The model memoizes per (size, lane), so each repetition prices on
    # a fresh one: what submit pays on a first-seen key.
    models = [PlacementCostModel() for _ in range(20)]
    t0 = time.perf_counter()
    for model in models:
        for gb, spec in keys:
            model.estimate(gb, spec)
    estimate_s = (time.perf_counter() - t0) / (len(models) * len(keys))
    return {"scheduler.noop_jobs_per_s": len(report.completed) / wall,
            "cost.estimate_s": estimate_s}


def run_probes(system: GaiaSystem, *, probe_gb: float, seed: int,
               devices: tuple[str, ...], out_dir: Path
               ) -> tuple[dict[str, float], bool]:
    """Every probe; returns (metrics, traced-solve-is-bitwise)."""
    probe = make_system(dims_from_gb(probe_gb), seed=seed,
                        noise_sigma=1e-9)
    out: dict[str, float] = {}
    out.update(kernel_probes(system))
    out.update(shm_probes(system))
    out.update(checkpoint_probe(system, out_dir))
    solve_metrics, bitwise = solve_probes(probe)
    out.update(solve_metrics)
    out.update(scheduler_probes(probe, devices))
    out["shm.leaked_segments"] = float(len(active_segments()))
    return out, bitwise
