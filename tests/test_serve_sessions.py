"""Serving-layer session tests: warm starts, preempt/park/resume.

The serving half of :mod:`repro.sessions`: the scheduler consults an
attached :class:`~repro.sessions.SessionStore` to seed ``x0`` on
plain serial solves, and -- with ``preempt_slice`` -- runs
preemptible low-priority jobs as checkpointed slices that park
mid-solve when a more urgent arrival is starved, then resume
bit-for-bit, the cornerstone ``docs/sessions.md`` documents.
"""

import time

import numpy as np
import pytest

from repro.api import SolveRequest, solve
from repro.obs.telemetry import Telemetry
from repro.serve.job import ServeJob
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler
from repro.sessions.store import SessionStore
from repro.system.generator import make_observation_block, make_system
from repro.system.merge import append_observations
from repro.system.sizing import dims_from_gb


def chain_systems(steps=2, seed=0, gb=0.004):
    systems = [make_system(dims_from_gb(gb), seed=seed,
                           noise_sigma=1e-9)]
    for step in range(1, steps):
        parent = systems[-1]
        block = make_observation_block(
            parent, max(1, parent.dims.n_obs // 2), seed=seed + step)
        systems.append(append_observations(parent, block))
    return systems


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# ----------------------------------------------------------------------
# Scheduler warm starts
# ----------------------------------------------------------------------
class TestSchedulerWarmStart:
    def test_chain_warm_starts(self, tmp_path):
        systems = chain_systems(steps=3)
        pool = DevicePool(("V100", "A100"))
        with SessionStore(tmp_path) as store:
            sched = Scheduler(pool, workers=1, sessions=store)
            sched.start()
            for i, system in enumerate(systems):
                sched.submit(ServeJob(
                    request=SolveRequest(system=system),
                    nominal_gb=10.0, job_id=f"step-{i}"))
            report = sched.drain()
        assert len(report.completed) == 3
        by_id = {o.job.job_id: o.report for o in report.completed}
        assert by_id["step-0"].warm_start is None
        for i in (1, 2):
            ws = by_id[f"step-{i}"].warm_start
            assert ws is not None
            assert ws.depth == 1 and not ws.exact
            assert ws.iterations_saved > 0
        assert "session warm starts" in report.summary()

    def test_warm_started_results_not_published_to_cache(self,
                                                         tmp_path):
        # The result cache promises cache-hit == bitwise the cold solo
        # solve; a warm-started solution has different bits, so it is
        # recorded in the session store but never published.
        system = chain_systems(steps=1)[0]
        pool = DevicePool(("V100",))
        with SessionStore(tmp_path) as store:
            sched = Scheduler(pool, workers=1, sessions=store)
            sched.start()
            for i in range(2):
                sched.submit(ServeJob(
                    request=SolveRequest(system=system),
                    nominal_gb=10.0, job_id=f"rep-{i}"))
            report = sched.drain()
        cold = solve(SolveRequest(system=system))
        by_id = {o.job.job_id: o.report for o in report.completed}
        # First solve is cold and cache-published as usual.
        np.testing.assert_array_equal(by_id["rep-0"].x, cold.x)
        # The repeat warm starts off the store (exact digest) instead
        # of being served the cached bits.
        ws = by_id["rep-1"].warm_start
        assert ws is not None and ws.exact

    def test_store_ownership(self, tmp_path):
        pool = DevicePool(("V100",))
        store = SessionStore(tmp_path)
        sched = Scheduler(pool, workers=1, sessions=store)
        sched.start()
        sched.drain()
        # Caller-owned store stays open after drain.
        store.put("d", np.zeros(4), itn=1, r2norm=1.0, stop="ATOL")
        store.close()


# ----------------------------------------------------------------------
# Preempt / park / resume
# ----------------------------------------------------------------------
def run_preemption(backend, tmp_path, iter_lim=48, telemetry=None):
    """One low-priority sliced solve preempted by an urgent arrival
    on a single-lane pool; returns (serve report, reports by job id,
    reference report, store leftovers)."""
    system = make_system(dims_from_gb(0.004), seed=0, noise_sigma=1e-9)
    low_req = SolveRequest(system=system, iter_lim=iter_lim,
                           job_id="low")
    high_req = SolveRequest(
        system=make_system(dims_from_gb(0.003), seed=1,
                           noise_sigma=1e-9),
        iter_lim=iter_lim, job_id="high")
    pool = DevicePool(("V100",))
    store = SessionStore(tmp_path)
    sched = Scheduler(pool, workers=2, sessions=store,
                      preempt_slice=4, backend=backend,
                      mp_workers=2, telemetry=telemetry)
    sched.start()
    sched.submit(ServeJob(request=low_req, nominal_gb=20.0,
                          priority=5, job_id="low"))
    # Wait for the sliced low-priority solve to actually occupy the
    # lane before the urgent job arrives.
    assert wait_until(lambda: len(sched.placement_log) >= 1,
                      timeout=30.0)
    sched.submit(ServeJob(request=high_req, nominal_gb=20.0,
                          priority=0, job_id="high"))
    report = sched.drain()
    leftovers = store.parked_keys()
    store.close()
    by_id = {o.job.job_id: o.report for o in report.completed}
    reference = solve(low_req)
    return report, by_id, reference, leftovers


def assert_the_serial_report(low, reference, tel):
    """The preempted, parked, resumed solve is the never-preempted
    direct ``api.solve`` in every numeric field, and ran on the serial
    driver: nothing of the recovery or SPMD drivers in its telemetry."""
    np.testing.assert_array_equal(low.x, reference.x)
    np.testing.assert_array_equal(low.var, reference.var)
    assert low.r2norm == reference.r2norm
    assert low.itn == reference.itn
    assert low.stop == reference.stop
    assert low.acond == reference.acond and low.acond is not None
    assert low.ranks == reference.ranks == 1
    assert low.resilience is None
    assert tel.tracer.find("serve.slice")
    assert not [c.name for c in tel.metrics.counters()
                if c.name.startswith(("resilience.", "dist."))]
    assert not [name for name in tel.tracer.span_names()
                if name.startswith(("resilience.", "dist."))]


class TestPreemption:
    def test_thread_backend_bitwise_resume(self, tmp_path):
        tel = Telemetry()
        report, by_id, reference, leftovers = run_preemption(
            "thread", tmp_path, telemetry=tel)
        assert report.preemptions >= 1
        assert_the_serial_report(by_id["low"], reference, tel)
        # Resume segments carry provenance: a later attempt that
        # remembers where the job ran before.
        resumed = [p for p in report.placement_log
                   if p.job_id == "low" and p.attempt > 0]
        assert resumed and resumed[0].previous_devices
        # Park files are claimed and discarded -- no store leaks.
        assert leftovers == ()
        assert "preempt/park/resume" in report.summary()

    def test_process_backend_bitwise_resume(self, tmp_path, own_segments):
        tel = Telemetry()
        report, by_id, reference, leftovers = run_preemption(
            "process", tmp_path, telemetry=tel)
        assert report.preemptions >= 1
        assert_the_serial_report(by_id["low"], reference, tel)
        # The worker's solver telemetry crossed the process boundary:
        # the serial driver's spans are there, no other driver's.
        assert "lsqr.iteration" in tel.tracer.span_names()
        assert leftovers == ()
        # The process backend must not leak shared-memory segments.
        assert own_segments() == []

    def test_one_checkpoint_write_per_segment(self, tmp_path,
                                              saved_itns):
        """Each segment ends on its checkpoint iteration: the in-loop
        save covers the final state and is not repeated."""
        system = make_system(dims_from_gb(0.003), seed=0,
                             noise_sigma=1e-9)
        tel = Telemetry()
        with SessionStore(tmp_path) as store:
            sched = Scheduler(DevicePool(("V100",)), workers=1,
                              sessions=store, preempt_slice=2,
                              telemetry=tel)
            sched.start()
            sched.submit(ServeJob(
                request=SolveRequest(system=system, iter_lim=10),
                nominal_gb=10.0, priority=5, job_id="sliced"))
            report = sched.drain()
        assert report.completed[0].report.itn == 10
        assert len(tel.tracer.find("serve.slice")) == 5
        assert saved_itns == [2, 4, 6, 8, 10]

    def test_priority_zero_never_sliced(self, tmp_path):
        # Default traffic stays on the cached fast path: priority 0
        # jobs never slice even with preempt_slice configured.
        system = make_system(dims_from_gb(0.003), seed=0,
                             noise_sigma=1e-9)
        pool = DevicePool(("V100",))
        with SessionStore(tmp_path) as store:
            sched = Scheduler(pool, workers=1, sessions=store,
                              preempt_slice=4)
            sched.start()
            sched.submit(ServeJob(
                request=SolveRequest(system=system, iter_lim=40),
                nominal_gb=10.0, priority=0, job_id="urgent"))
            report = sched.drain()
        assert report.preemptions == 0
        cold = solve(SolveRequest(system=system, iter_lim=40))
        np.testing.assert_array_equal(
            report.completed[0].report.x, cold.x)


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
class TestConfigSurface:
    def test_preempt_slice_requires_sessions(self):
        pool = DevicePool(("V100",))
        with pytest.raises(ValueError, match="sessions"):
            Scheduler(pool, workers=1, preempt_slice=4)

    def test_scenario_sessions_section(self):
        from repro.serve.scenario import parse_scenario

        sc = parse_scenario({
            "sessions": {"enabled": True, "budget_mb": 8,
                         "preempt_slice": 6},
            "load": {"n_jobs": 1, "chains": 1, "chain_length": 2},
        })
        assert sc.sessions_enabled
        assert sc.sessions_budget_mb == 8
        assert sc.preempt_slice == 6
        assert sc.load.chains == 1

    def test_scenario_preempt_requires_enabled(self):
        from repro.serve.scenario import parse_scenario

        with pytest.raises(ValueError, match="preempt_slice"):
            parse_scenario({"sessions": {"preempt_slice": 4}})

    def test_build_scheduler_owns_store(self, tmp_path):
        from repro.serve.scenario import build_scheduler, parse_scenario

        sc = parse_scenario({
            "sessions": {"enabled": True,
                         "dir": str(tmp_path / "store")},
            "load": {"n_jobs": 1},
        })
        sched = build_scheduler(sc)
        assert sched.sessions is not None
        assert sched._own_sessions
        sched.start()
        sched.drain()

    def test_chain_jobs_byte_compatible_when_disabled(self):
        spec = LoadSpec(n_jobs=3, mix=((10.0, 1.0),),
                        distinct_systems=2, seed=5)
        jobs = LoadGenerator(spec).jobs()
        assert [j.job_id for j in jobs] == [
            "job-000", "job-001", "job-002"]

    def test_chain_jobs_step_major(self):
        spec = LoadSpec(n_jobs=1, mix=((10.0, 1.0),),
                        distinct_systems=1, chains=2, chain_length=2,
                        chain_priority=3)
        jobs = LoadGenerator(spec).jobs()
        chain_ids = [j.job_id for j in jobs
                     if j.job_id.startswith("chain")]
        assert chain_ids == ["chain0-s0", "chain1-s0",
                             "chain0-s1", "chain1-s1"]
        chain_jobs = [j for j in jobs if j.job_id.startswith("chain")]
        assert all(j.priority == 3 for j in chain_jobs)
        # Step 1 systems chain back to step 0 digests.
        s1 = next(j for j in chain_jobs if j.job_id == "chain0-s1")
        assert s1.request.system.meta["parent_digest"]
