"""The scheduler's one execution pipeline, seen from outside.

Every job -- solo solve, sliced solve, gang, fused batch -- goes
through the same place -> open -> run -> deliver stages
(``docs/serving.md``, "Execution pipeline").  These tests hold the
shared epilogue to one contract on every route, whether the solve
returns or raises, and lock down what the deliver stage records in the
session store.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    PlacementConstraints,
    ResilienceConfig,
    SolveRequest,
    solve,
    solve_batch,
)
from repro.obs.telemetry import Telemetry
from repro.serve.job import AdmissionDecision, ServeJob
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler
from repro.sessions.store import SessionStore
from repro.system.digest import system_digest
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb

ROUTES = ("solo", "sliced", "gang", "batch")


@pytest.fixture(scope="module")
def system():
    return make_system(dims_from_gb(0.001), seed=7, noise_sigma=1e-9)


def _variant(system, v: int):
    """Same matrix, different right-hand side (fusible, not equal)."""
    rng = np.random.default_rng((3, v))
    return replace(system, known_terms=system.known_terms + rng.normal(
        scale=1e-9, size=system.known_terms.shape))


def _boom(*_args, **_kwargs):
    raise RuntimeError("injected failure")


def _route_setup(route, system, store, raises):
    """(pool, scheduler kwargs, jobs) driving exactly one route."""
    pool = DevicePool(("A100", "H100"))
    kwargs: dict = {}
    if raises:
        kwargs["solve_fn"] = _boom
    if route == "solo":
        jobs = [ServeJob(request=SolveRequest(system=system, iter_lim=12),
                         nominal_gb=10.0, job_id="solo")]
    elif route == "sliced":
        kwargs.update(sessions=store, preempt_slice=4)
        if raises:
            # The first slice runs (so a park file exists on disk);
            # the second one blows up mid-solve.
            calls = []

            def second_slice_fails(request):
                calls.append(request)
                if len(calls) > 1:
                    _boom()
                return solve(request)

            kwargs["solve_fn"] = second_slice_fails
        jobs = [ServeJob(request=SolveRequest(system=system, iter_lim=12),
                         nominal_gb=10.0, priority=3, job_id="sliced")]
    elif route == "gang":
        pool = DevicePool(("T4", "T4"))
        request = SolveRequest(
            system=system, seed=7, iter_lim=12,
            resilience=ResilienceConfig(checkpoint_every=5),
            constraints=PlacementConstraints(allow_gang=True,
                                             max_shards=2))
        jobs = [ServeJob(request=request, nominal_gb=16.0,
                         job_id="gang")]
    else:
        kwargs["max_fuse"] = 4
        if raises:
            kwargs["batch_solve_fn"] = _boom
        jobs = [ServeJob(
            request=SolveRequest(system=_variant(system, v), iter_lim=12,
                                 job_id=f"rhs-{v}"),
            nominal_gb=10.0, job_id=f"rhs-{v}") for v in range(3)]
    return pool, kwargs, jobs


@pytest.mark.parametrize("raises", [False, True],
                         ids=["returns", "raises"])
@pytest.mark.parametrize("route", ROUTES)
def test_every_route_shares_one_epilogue(route, raises, system, tmp_path,
                                         monkeypatch, own_segments):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    tel = Telemetry()
    with SessionStore(tmp_path / "store") as store:
        pool, kwargs, jobs = _route_setup(route, system, store, raises)
        sched = Scheduler(pool, workers=1, telemetry=tel, **kwargs)
        for job in jobs:
            assert sched.submit(job) is AdmissionDecision.ADMITTED
        report = sched.run()

        # The job really took the route under test.
        marker = {"solo": "serve.job",
                  "sliced": "serve.slice", "gang": "serve.gang",
                  "batch": "serve.batch"}[route]
        assert marker in {span.name for span in tel.spans}
        if route == "gang":
            assert all(p.shards for p in report.placement_log)
        if route == "batch":
            assert {p.batch_size for p in report.placement_log} == {3}

        # Exactly one terminal outcome per job.
        assert sorted(o.job.job_id for o in report.outcomes) == \
            sorted(job.job_id for job in jobs)
        # Every lane is whole again.
        for lane in pool.lanes:
            assert lane.free_gb == lane.spec.memory_gb
            assert not lane.lane
        # One wait and one exec observation per job that reached a lane,
        # one placement-log entry per attempt.
        assert tel.histogram("serve.queue_wait_s").count == len(jobs)
        assert tel.histogram("serve.exec_s").count == len(jobs)
        assert len(report.placement_log) == len(jobs)
        assert sum(len(o.placements) for o in report.outcomes) == \
            len(report.placement_log)
        # Nothing left behind: park files, gang checkpoint dirs, shm.
        assert store.parked_keys() == ()
        assert not list(store.root.glob("park-*"))
        assert not list(scratch.iterdir())
        assert own_segments() == []

        failures = tel.counter("serve.job_failures").value
        if raises:
            assert failures == len(jobs)
            assert len(report.failed) == len(jobs)
            for outcome in report.outcomes:
                assert outcome.report is None
                assert "injected failure" in outcome.error
        else:
            assert failures == 0 and not report.failed
            for outcome in report.outcomes:
                assert outcome.error is None
                assert outcome.report.job_id == outcome.job.job_id
                assert outcome.report.placement == outcome.placement


def test_relocated_attempts_each_log_one_placement(system):
    """Two attempts -> two log entries, still one outcome, one wait."""
    tel = Telemetry()
    request = SolveRequest(
        system=system, ranks=2, iter_lim=30,
        resilience=ResilienceConfig(rank_deaths=((1, 3),),
                                    checkpoint_every=2))
    pool = DevicePool(("A100", "H100"))
    sched = Scheduler(pool, workers=1, max_replacements=1, telemetry=tel)
    sched.submit(ServeJob(request=request, nominal_gb=10.0))
    report = sched.run()
    (outcome,) = report.outcomes
    assert len(outcome.placements) == len(report.placement_log) == 2
    assert [p.attempt for p in report.placement_log] == [0, 1]
    assert tel.histogram("serve.queue_wait_s").count == 1
    assert tel.histogram("serve.exec_s").count == 1
    for lane in pool.lanes:
        assert lane.free_gb == lane.spec.memory_gb and not lane.lane


def test_fused_batch_members_record_sessions(system, tmp_path):
    """``docs/sessions.md``: every completed plain solve records back --
    fused members included, each under its own digest."""
    members = [_variant(system, v) for v in range(4)]
    jobs = [ServeJob(
        request=SolveRequest(system=member, iter_lim=12,
                             job_id=f"rhs-{v}"),
        nominal_gb=10.0, job_id=f"rhs-{v}")
        for v, member in enumerate(members)]
    with SessionStore(tmp_path) as store:
        sched = Scheduler(DevicePool(("A100", "H100")), workers=1,
                          max_fuse=4, sessions=store)
        for job in jobs:
            sched.submit(job)
        report = sched.run()
        assert {p.batch_size for p in report.placement_log} == {4}
        assert len(store) == 4
        reference = solve_batch([job.request for job in jobs])
        for member, ref in zip(members, reference):
            record = store.get(system_digest(member))
            assert record is not None and record.itn == ref.itn
            np.testing.assert_array_equal(record.x, ref.x)


def test_gang_results_are_not_recorded(system, tmp_path):
    """The documented bypass: an R-rank result never seeds a serial
    re-solve of the same digest."""
    request = SolveRequest(
        system=system, seed=7, iter_lim=12,
        constraints=PlacementConstraints(allow_gang=True, max_shards=2))
    with SessionStore(tmp_path) as store:
        sched = Scheduler(DevicePool(("T4", "T4")), workers=1,
                          sessions=store)
        sched.submit(ServeJob(request=request, nominal_gb=16.0))
        report = sched.run()
        assert len(report.completed) == 1
        assert report.completed[0].placement.shards
        assert len(store) == 0
