"""Tests for the multi-tenant serving layer (repro.serve)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    PlacementConstraints,
    ResilienceConfig,
    SolveReport,
    SolveRequest,
    solve,
)
from repro.core.engine import StopReason
from repro.obs.telemetry import Telemetry
from repro.serve.cache import ResultCache, request_key
from repro.serve.cost import PlacementCostModel
from repro.serve.job import AdmissionDecision, ServeJob
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.pool import DevicePool
from repro.serve.scenario import (
    Scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from repro.serve.scheduler import Scheduler

DETERMINISTIC_SPEC = LoadSpec(n_jobs=10, distinct_systems=3,
                              scale=1e-4, iter_lim=30, seed=5,
                              priorities=(0, 1))


def _stub_solve(request: SolveRequest) -> SolveReport:
    return SolveReport(
        x=np.zeros(1), stop=StopReason.ATOL_BTOL, itn=1, r2norm=0.0,
        ranks=request.ranks, m=1, n=1,
    )


def _stub_job(system, nominal_gb, **kwargs) -> ServeJob:
    return ServeJob(
        request=SolveRequest(system=system, iter_lim=5,
                             **kwargs.pop("request_kwargs", {})),
        nominal_gb=nominal_gb, **kwargs,
    )


# ---------------------------------------------------------------------
# device pool
# ---------------------------------------------------------------------

def test_pool_per_gcd_memory_and_feasibility():
    pool = DevicePool(("T4", "V100", "A100", "H100", "MI250X"),
                      per_gcd=True)
    mem = {lane.lane_id: lane.spec.memory_gb for lane in pool.lanes}
    assert mem["MI250X"] == 64.0  # single GCD, not the 128 GB package
    # The paper's platform sets: 60 GB fits only H100 + MI250X (GCD);
    # 30 GB additionally excludes the T4.
    from repro.system.sizing import device_footprint_gb, dims_from_gb

    f60 = device_footprint_gb(dims_from_gb(60.0))
    assert sorted(lane.lane_id for lane in pool.feasible(f60)) == \
        ["H100", "MI250X"]
    f30 = device_footprint_gb(dims_from_gb(30.0))
    assert "T4" not in {lane.lane_id for lane in pool.feasible(f30)}


def test_pool_package_mi250x_without_gcd_flag():
    pool = DevicePool(("MI250X",), per_gcd=False)
    assert pool.lanes[0].spec.memory_gb == 128.0


def test_pool_reserve_release_roundtrip():
    pool = DevicePool(("A100",))
    lane = pool.lanes[0]
    pool.reserve("A100", 15.0, "j1")
    assert lane.free_gb == pytest.approx(25.0)
    assert list(lane.lane) == ["j1"]
    with pytest.raises(ValueError, match="cannot reserve"):
        pool.reserve("A100", 30.0, "j2")
    pool.release("A100", 15.0, "j1", busy_s=0.5)
    assert lane.free_gb == pytest.approx(40.0)
    assert not lane.lane and lane.jobs_run == 1


def test_pool_duplicate_platforms_get_distinct_lanes():
    pool = DevicePool(("H100", "H100"))
    assert [lane.lane_id for lane in pool.lanes] == ["H100#0", "H100#1"]


# ---------------------------------------------------------------------
# cost model (incl. the PSTL_EXECUTORS wiring)
# ---------------------------------------------------------------------

def test_cost_model_orders_devices_like_the_study():
    from repro.gpu.platforms import A100, H100, T4

    model = PlacementCostModel()
    costs = {d.name: model.estimate(10.0, d).seconds
             for d in (T4, A100, H100)}
    assert costs["H100"] < costs["A100"] < costs["T4"]


def test_cost_model_projected_port_joins_the_roster():
    from repro.frameworks.executors_future import PSTL_EXECUTORS
    from repro.gpu.platforms import H100

    base = PlacementCostModel()
    projected = PlacementCostModel(include_projected=True)
    with pytest.raises(KeyError):
        base.candidate_ports(PSTL_EXECUTORS.key)
    est = projected.estimate(10.0, H100,
                             framework=PSTL_EXECUTORS.key)
    assert est is not None and est.port_key == "PSTL+EXEC"
    # The projected port prices at tuned geometry, so pinning it is
    # never worse than pinning measured PSTL+V on the same device.
    measured = projected.estimate(10.0, H100, framework="PSTL+V")
    assert est.seconds <= measured.seconds


def test_cost_model_unsupported_pin_prices_to_none():
    from repro.gpu.platforms import MI250X_GCD

    model = PlacementCostModel()
    assert model.estimate(10.0, MI250X_GCD, framework="CUDA") is None


# ---------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------

def test_admission_rejects_oversize_and_backpressure(small_system):
    pool = DevicePool(("T4", "V100"))
    sched = Scheduler(pool, workers=1, max_queue_depth=2,
                      solve_fn=_stub_solve)
    too_big = _stub_job(small_system, 60.0)
    assert sched.submit(too_big) is AdmissionDecision.REJECTED_TOO_LARGE
    assert sched.submit(_stub_job(small_system, 10.0)) \
        is AdmissionDecision.ADMITTED
    assert sched.submit(_stub_job(small_system, 10.0)) \
        is AdmissionDecision.ADMITTED
    assert sched.submit(_stub_job(small_system, 10.0)) \
        is AdmissionDecision.REJECTED_BACKPRESSURE
    report = sched.run()
    assert len(report.completed) == 2
    assert len(report.rejected) == 2


def test_admission_respects_device_pin(small_system):
    pool = DevicePool(("V100", "H100"))
    sched = Scheduler(pool, workers=1, solve_fn=_stub_solve)
    pinned = _stub_job(small_system, 10.0, request_kwargs={
        "constraints": PlacementConstraints(devices=("A100",))})
    assert sched.submit(pinned) is AdmissionDecision.REJECTED_TOO_LARGE
    ok = _stub_job(small_system, 10.0, request_kwargs={
        "constraints": PlacementConstraints(devices=("V100",))})
    assert sched.submit(ok) is AdmissionDecision.ADMITTED
    report = sched.run()
    assert report.placement_log[0].device == "V100"


@settings(max_examples=25, deadline=None)
@given(
    device_names=st.lists(
        st.sampled_from(("T4", "V100", "A100", "H100", "MI250X")),
        min_size=1, max_size=4),
    nominals=st.lists(st.floats(min_value=1.0, max_value=150.0),
                      min_size=1, max_size=8),
)
def test_admitted_jobs_never_exceed_device_memory(
        small_system, device_names, nominals):
    """Property: no placement ever charges more than the device holds."""
    pool = DevicePool(tuple(device_names), per_gcd=True)
    sched = Scheduler(pool, workers=1, solve_fn=_stub_solve)
    jobs = [_stub_job(small_system, gb) for gb in nominals]
    decisions = [sched.submit(job) for job in jobs]
    report = sched.run()
    memory = {lane.lane_id: lane.spec.memory_gb for lane in pool.lanes}
    for placement in report.placement_log:
        assert placement.footprint_gb <= memory[placement.device]
    for job, decision in zip(jobs, decisions):
        feasible = any(job.footprint_gb <= m for m in memory.values())
        if decision is AdmissionDecision.REJECTED_TOO_LARGE:
            assert not feasible
        else:
            assert feasible
    assert len(report.completed) == sum(
        d is AdmissionDecision.ADMITTED for d in decisions)


# ---------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------

def test_cache_hit_requires_same_system_and_config(small_system,
                                                   noglob_system):
    a = SolveRequest(system=small_system, iter_lim=20)
    assert request_key(a) == request_key(
        SolveRequest(system=small_system, iter_lim=20))
    assert request_key(a) != request_key(
        SolveRequest(system=small_system, iter_lim=21))
    assert request_key(a) != request_key(
        SolveRequest(system=noglob_system, iter_lim=20))


def test_cache_serves_bitwise_identical_reports(small_system):
    cache = ResultCache(4)
    request = SolveRequest(system=small_system, iter_lim=30)
    key = cache.key(request)
    assert cache.get(key) is None
    report = solve(request)
    cache.put(key, report)
    cached = cache.get(key)
    assert cached is not None
    np.testing.assert_array_equal(cached.x, report.x)
    assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                             "size": 1}


def test_cache_lru_eviction(small_system):
    cache = ResultCache(2)
    reports = {}
    for lim in (5, 6, 7):
        req = SolveRequest(system=small_system, iter_lim=lim)
        reports[lim] = solve(req)
        cache.put(cache.key(req), reports[lim])
    assert len(cache) == 2 and cache.evictions == 1
    # iter_lim=5 was least recently used -> evicted.
    assert cache.get(cache.key(
        SolveRequest(system=small_system, iter_lim=5))) is None
    assert cache.get(cache.key(
        SolveRequest(system=small_system, iter_lim=7))) is not None


# ---------------------------------------------------------------------
# scheduler end to end
# ---------------------------------------------------------------------

def test_scheduler_deterministic_single_worker():
    """Same seed + scenario => identical placement + hit sequences."""
    def one_run():
        jobs = LoadGenerator(DETERMINISTIC_SPEC).jobs()
        sched = Scheduler(
            DevicePool(("V100", "A100", "H100", "MI250X")),
            workers=1, cache=ResultCache(16))
        report = sched.run(jobs)
        log = [(p.job_id, p.device, p.port_key, p.cache_hit,
                p.attempt) for p in report.placement_log]
        return log, report.cache_stats

    log1, stats1 = one_run()
    log2, stats2 = one_run()
    assert log1 == log2
    assert {k: stats1[k] for k in ("hits", "misses", "evictions")} == \
        {k: stats2[k] for k in ("hits", "misses", "evictions")}
    assert any(hit for *_, hit, _ in log1)  # the stream does repeat


def test_served_miss_solutions_match_solo_solves():
    jobs = LoadGenerator(LoadSpec(n_jobs=6, distinct_systems=2,
                                  scale=1e-4, iter_lim=30,
                                  seed=3)).jobs()
    solo = {job.job_id: solve(job.request) for job in jobs}
    sched = Scheduler(DevicePool(("A100", "H100")), workers=2,
                      cache=ResultCache(16))
    report = sched.run(jobs)
    assert len(report.completed) == len(jobs)
    for outcome in report.completed:
        np.testing.assert_array_equal(
            outcome.report.x, solo[outcome.job.job_id].x)
        assert outcome.report.job_id == outcome.job.job_id
        assert outcome.report.placement is not None


def test_degraded_solve_replaced_on_different_device(small_system):
    tel = Telemetry()
    request = SolveRequest(
        system=small_system, ranks=2, iter_lim=30,
        resilience=ResilienceConfig(rank_deaths=((1, 3),),
                                    checkpoint_every=2),
    )
    job = ServeJob(request=request, nominal_gb=10.0)
    sched = Scheduler(DevicePool(("A100", "H100")), workers=1,
                      cache=ResultCache(8), max_replacements=1,
                      telemetry=tel)
    sched.submit(job)
    report = sched.run()
    (outcome,) = report.completed
    # The deterministic rank death degrades every attempt; the
    # scheduler must still have re-placed it once, elsewhere.
    assert outcome.report.stop is StopReason.DEGRADED
    assert len(outcome.placements) == 2
    first, second = outcome.placements[0], outcome.placement
    assert second.attempt == 1
    assert second.device != first.device
    assert second.previous_devices == (first.device,)
    assert tel.counter("serve.replacement",
                       from_device=first.device).value == 1
    # Degraded results are never published to the cache.
    assert sched.cache.stats()["size"] == 0


def test_priorities_order_single_worker_dispatch(small_system):
    pool = DevicePool(("H100",))
    sched = Scheduler(pool, workers=1, solve_fn=_stub_solve)
    low = _stub_job(small_system, 10.0, priority=5, job_id="low")
    high = _stub_job(small_system, 10.0, priority=0, job_id="high")
    sched.submit(low)
    sched.submit(high)
    report = sched.run()
    assert [p.job_id for p in report.placement_log] == ["high", "low"]


def test_small_jobs_flow_around_blocked_large_job(small_system):
    """Bounded head-of-line blocking: a job waiting for big memory
    does not stall smaller jobs that fit elsewhere now."""
    pool = DevicePool(("V100", "H100"))
    sched = Scheduler(pool, workers=1, solve_fn=_stub_solve)
    # Fill the H100 so the 60 GB job cannot start yet.
    pool.reserve("H100", 90.0, "blocker")
    sched.submit(_stub_job(small_system, 60.0, job_id="big"))
    sched.submit(_stub_job(small_system, 10.0, job_id="small"))
    released = []

    def unblock_after_small(request):
        if not released:
            released.append(request.job_id)
            pool.release("H100", 90.0, "blocker")
        return _stub_solve(request)

    sched.solve_fn = unblock_after_small
    report = sched.run()
    assert [p.job_id for p in report.placement_log] == ["small", "big"]
    assert len(report.completed) == 2


# ---------------------------------------------------------------------
# scenarios and CLI
# ---------------------------------------------------------------------

def test_scenario_roundtrip_and_example_file():
    scenario = parse_scenario({
        "placement": {"devices": ["H100"], "per_gcd": False},
        "scheduler": {"workers": 2, "cache_capacity": 0},
        "load": {"n_jobs": 3, "mix": {"10": 1.0},
                 "distinct_systems": 1, "scale": 1e-4,
                 "iter_lim": 10, "priorities": [0, 1]},
    })
    assert scenario.devices == ("H100",)
    assert scenario.workers == 2 and scenario.cache_capacity == 0
    assert scenario.load.mix == ((10.0, 1.0),)

    from pathlib import Path

    example = (Path(__file__).resolve().parent.parent
               / "examples" / "serve_scenario.json")
    loaded = load_scenario(example)
    assert loaded.per_gcd and loaded.load.n_jobs == 16


def test_run_scenario_and_cli_smoke(tmp_path, capsys):
    scenario = Scenario(
        devices=("A100", "H100"), workers=2,
        load=LoadSpec(n_jobs=4, distinct_systems=2, scale=1e-4,
                      iter_lim=20, seed=2),
    )
    report = run_scenario(scenario)
    assert len(report.completed) == 4 and not report.rejected

    doc = {
        "placement": {"devices": ["A100", "H100"]},
        "scheduler": {"workers": 2},
        "load": {"n_jobs": 4, "distinct_systems": 2, "scale": 1e-4,
                 "iter_lim": 20, "seed": 2},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out_json = tmp_path / "serve.json"
    from repro.cli import main

    assert main(["serve", "--scenario", str(path), "--verbose",
                 "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "jobs: 4 completed" in out and "placement log:" in out
    written = json.loads(out_json.read_text())
    assert written["completed"] == 4
    assert len(written["placements"]) >= 4
