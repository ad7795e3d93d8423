"""Tests for the process worker backend and the shared-memory store.

The acceptance contract of ``Scheduler(backend="process")``: identical
numerics to the thread backend (the solve is a pure function of the
request, wherever it runs), zero leaked shared-memory segments under
every exit path (drain, abort, KeyboardInterrupt), and a graceful
shutdown that surfaces stuck workers instead of hanging.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.api import RequestSpec, SolveReport, SolveRequest
from repro.core.engine import StopReason
from repro.obs.telemetry import Telemetry
from repro.serve import (
    AdmissionDecision,
    DevicePool,
    LoadGenerator,
    LoadSpec,
    Scheduler,
    ServeJob,
    SystemStore,
    active_segments,
    run_closed_loop,
)
from repro.serve import shm as shm_mod
from repro.serve.cache import system_digest
from repro.serve.shm import attach
from repro.system.constraints import ConstraintRow, ConstraintSet
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb

POOL = ("V100", "A100", "H100", "MI250X")

#: Small, fully deterministic workload shared by the equivalence tests.
MP_SPEC = LoadSpec(n_jobs=6, mix=((10.0, 1.0),), distinct_systems=2,
                   scale=1e-4, iter_lim=30, seed=5)

_ARRAY_FIELDS = (
    "astro_values", "matrix_index_astro", "att_values",
    "matrix_index_att", "instr_values", "instr_col", "glob_values",
    "known_terms",
)


def _small_system(seed: int = 11, with_constraints: bool = False):
    system = make_system(dims_from_gb(10.0 * 1e-4), seed=seed,
                         noise_sigma=1e-9)
    if with_constraints:
        rows = ConstraintSet(rows=[ConstraintRow(
            cols=np.array([0, 1, 2], dtype=np.int64),
            vals=np.array([1.0, -2.0, 1.0]),
            rhs=0.5, label="test-row")])
        system = dataclasses.replace(system, constraints=rows)
    return system


def _sched(backend: str, **kwargs) -> Scheduler:
    return Scheduler(DevicePool(POOL, per_gcd=True),
                     backend=backend, **kwargs)


# ---------------------------------------------------------------------
# shared-memory store
# ---------------------------------------------------------------------

def test_shm_publish_attach_roundtrip():
    system = _small_system(with_constraints=True)
    with SystemStore() as store:
        digest = store.publish(system)
        assert store.refcount(digest) == 1

        # In-process view: every array bit-identical and read-only.
        view = store.attach(digest)
        for name in _ARRAY_FIELDS:
            got, want = getattr(view, name), getattr(system, name)
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype
            assert not got.flags.writeable
        assert view.dims == system.dims
        assert view.meta["shm_digest"] == digest
        rows = list(view.constraints)
        assert len(rows) == 1
        assert rows[0].label == "test-row"
        assert rows[0].rhs == 0.5
        assert np.array_equal(rows[0].cols, np.array([0, 1, 2]))

        # Worker-style attach by digest (fresh mapping).
        att = attach(digest)
        assert np.array_equal(att.system.known_terms,
                              system.known_terms)
        att.close()

        # Republishing the same object is memoized + refcounted.
        assert store.publish(system) == digest
        assert store.refcount(digest) == 2
        assert len(store) == 1
        # Drop the zero-copy views before the store unlinks, so the
        # mapping can actually close.
        del view, rows, got, want
    assert active_segments() == []


def test_shm_release_unlinks_eagerly_without_linger():
    store = SystemStore(linger=False)
    digest = store.publish(_small_system())
    assert len(active_segments()) == 1
    store.release(digest)  # refcount hits zero -> eager unlink
    assert len(store) == 0
    assert store.refcount(digest) == 0
    assert active_segments() == []
    store.release(digest)  # releasing an unknown digest is a no-op
    store.close()


def test_shm_close_is_idempotent_and_publish_after_close_fails():
    store = SystemStore()
    store.publish(_small_system())
    store.close()
    store.close()
    assert active_segments() == []
    with pytest.raises(RuntimeError):
        store.publish(_small_system())


def test_concurrent_publish_same_store_keeps_refcounts_exact():
    """Racing dispatchers publishing one system: one segment, N refs.

    Regression test for the publish race: a second publisher must
    never overwrite the refcount of (or hand out a digest into) a
    segment another thread is still writing.
    """
    system = _small_system(seed=23)
    store = SystemStore(linger=False)
    n = 8
    barrier = threading.Barrier(n)

    def pub():
        barrier.wait()
        store.publish(system)

    threads = [threading.Thread(target=pub) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    digest = store.digest_of(system)
    assert len(store) == 1
    assert store.refcount(digest) == n
    view = store.attach(digest)
    assert np.array_equal(view.known_terms, system.known_terms)
    del view
    for _ in range(n):
        store.release(digest)
    assert len(store) == 0  # eager unlink at refcount zero
    assert active_segments() == []
    store.close()


def test_concurrent_publish_across_stores_shares_one_segment():
    """Two stores racing on the same content co-own one valid segment.

    The loser of the create race must wait for the winner's
    publication marker before handing out the digest, so attached
    arrays are never partially written.
    """
    system = _small_system(seed=22)
    stores = [SystemStore() for _ in range(4)]
    barrier = threading.Barrier(len(stores))
    digests: list[str] = []
    errors: list[BaseException] = []

    def pub(store):
        try:
            barrier.wait()
            digests.append(store.publish(system))
        except BaseException as exc:  # pragma: no cover - fail loud
            errors.append(exc)

    threads = [threading.Thread(target=pub, args=(s,)) for s in stores]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert errors == []
    assert len(set(digests)) == 1
    assert len(active_segments()) == 1
    for store in stores:
        view = store.attach(digests[0])
        assert np.array_equal(view.known_terms, system.known_terms)
        del view
        store.close()
    assert active_segments() == []


def test_publish_reclaims_stale_partial_segment(monkeypatch):
    """A crashed run's partial segment is re-created, not served.

    The segment exists under the right content address but its
    publication marker (header-length field, written last) is still
    zero -- publish must notice, unlink the leftover and write a
    fresh complete segment instead of co-owning garbage.
    """
    from multiprocessing import shared_memory

    monkeypatch.setattr(shm_mod, "_ADOPT_TIMEOUT_S", 0.2)
    system = _small_system(seed=21)
    digest = system_digest(system)
    stale = shared_memory.SharedMemory(
        name=shm_mod._segment_name(digest), create=True, size=1 << 16)
    stale.close()
    with SystemStore() as store:
        assert store.publish(system) == digest
        view = store.attach(digest)
        assert np.array_equal(view.known_terms, system.known_terms)
        del view
    assert active_segments() == []


def test_request_spec_roundtrip():
    system = _small_system()
    request = SolveRequest(system=system, iter_lim=17, atol=1e-9,
                           damp=0.25, seed=42, job_id="rt-1")
    spec = RequestSpec.from_request(request)
    rebuilt = spec.to_request(system)
    assert rebuilt.system is system
    assert rebuilt.iter_lim == 17
    assert rebuilt.atol == 1e-9
    assert rebuilt.damp == 0.25
    assert rebuilt.seed == 42
    assert rebuilt.job_id == "rt-1"
    assert rebuilt.telemetry is None


def test_request_spec_carries_every_request_field(tmp_path):
    """The wire form is derived from ``SolveRequest``: every field but
    the system and the two live objects survives the process boundary
    (pickle included) with a non-default value, paths as ``str``."""
    import dataclasses
    import pickle

    from repro.api import PlacementConstraints, ResilienceConfig

    system = _small_system()
    common = dict(
        atol=1e-9, btol=1e-8, conlim=1e6, iter_lim=17,
        precondition=False, calc_var=False, strategy="classic", seed=42,
        checkpoint_every=4, checkpoint_path=tmp_path / "out.npz",
        job_id="rt-2", framework="CUDA",
        constraints=PlacementConstraints(priority=3),
    )
    # damp / x0 are serial-only, so two requests cover the field list.
    spmd = dict(ranks=2, resilience=ResilienceConfig(checkpoint_every=3),
                resume_from=tmp_path / "in.npz")
    serial = dict(damp=0.25, x0=np.ones(system.dims.n_params))
    names = {f.name for f in dataclasses.fields(SolveRequest)}
    assert set(common | spmd | serial) == names - {
        "system", "callback", "telemetry"}
    defaults = SolveRequest(system=system)
    for values in (common | spmd, common | serial):
        request = SolveRequest(system=system, callback=print, **values)
        spec = pickle.loads(pickle.dumps(RequestSpec.from_request(request)))
        rebuilt = spec.to_request(system)
        assert rebuilt.callback is None and rebuilt.telemetry is None
        for name, value in values.items():
            got = getattr(rebuilt, name)
            if name == "x0":
                np.testing.assert_array_equal(got, value)
                continue
            assert got != getattr(defaults, name), name
            assert got == (str(value) if name in ("checkpoint_path",
                                                  "resume_from")
                           else value), name


# ---------------------------------------------------------------------
# thread/process equivalence
# ---------------------------------------------------------------------

def test_process_backend_bitwise_identical_to_thread():
    """The tentpole contract: same scenario, same bits, either backend.

    Also exercises the async front end (submit/start/drain) and the
    cross-process telemetry merge, and checks the run leaves no
    shared-memory segments behind.
    """
    jobs = LoadGenerator(MP_SPEC).jobs()

    thread_sched = _sched("thread", workers=2)
    thread_report = thread_sched.run(LoadGenerator(MP_SPEC).jobs())

    tel = Telemetry()
    proc_sched = _sched("process", workers=2, drain_timeout=120.0,
                        telemetry=tel)
    for job in jobs:
        assert proc_sched.submit(job) is AdmissionDecision.ADMITTED
    proc_sched.start()
    proc_report = proc_sched.drain()

    assert proc_report.backend == "process"
    assert proc_report.stuck_workers == ()
    assert len(proc_report.completed) == MP_SPEC.n_jobs
    thread_x = {o.job.job_id: o.report.x
                for o in thread_report.completed}
    proc_x = {o.job.job_id: o.report.x for o in proc_report.completed}
    assert set(thread_x) == set(proc_x)
    for job_id in thread_x:
        assert np.array_equal(thread_x[job_id], proc_x[job_id]), job_id

    # Worker spans came back rebased onto the parent clock.
    assert any(s.track.startswith("mp/") for s in tel.spans)
    assert active_segments() == []


def test_every_report_field_but_raw_survives_the_process_boundary():
    """The reply crosses as the dataclass it is: whatever the driver
    put on a ``SolveReport`` the thread backend delivers, the process
    backend delivers too (``raw``, the driver's own result object,
    stays in the worker)."""
    from repro.api import ResilienceConfig

    system = _small_system()

    def reports(backend):
        jobs = [ServeJob(request=SolveRequest(
                    system=system, iter_lim=12, job_id=job_id, **kwargs),
                    nominal_gb=10.0, job_id=job_id)
                for job_id, kwargs in (
                    ("serial", {}),
                    ("chaos", dict(ranks=2, resilience=ResilienceConfig())))]
        done = _sched(backend, workers=1, drain_timeout=120.0).run(jobs)
        return {o.job.job_id: o.report for o in done.completed}

    thread, proc = reports("thread"), reports("process")
    crossed = set()
    for job_id, want in thread.items():
        got = proc[job_id]
        assert want.raw is not None and got.raw is None
        for f in dataclasses.fields(SolveReport):
            a, b = getattr(want, f.name), getattr(got, f.name)
            if f.name in ("raw", "placement"):
                continue  # placement is stamped parent-side, with waits
            if f.name == "mean_iteration_time":
                assert a > 0 and b > 0  # wall clock: present, not equal
            elif isinstance(a, np.ndarray):
                np.testing.assert_array_equal(b, a)
            else:
                assert b == a, (job_id, f.name)
            if b is not None:
                crossed.add(f.name)
    # warm_start needs a session store; every other field was exercised
    assert crossed == {f.name for f in dataclasses.fields(SolveReport)
                       } - {"raw", "placement", "warm_start"}
    assert active_segments() == []


def test_process_backend_inline_fallback_for_injected_solve_fn():
    def stub(request):
        return SolveReport(x=np.zeros(3), stop=StopReason.ATOL_BTOL,
                           itn=1, r2norm=0.0, ranks=1, m=3, n=3)

    tel = Telemetry()
    sched = _sched("process", workers=1, solve_fn=stub, telemetry=tel)
    job = ServeJob(request=SolveRequest(system=_small_system(),
                                        iter_lim=5),
                   nominal_gb=10.0)
    report = sched.run([job])
    assert len(report.completed) == 1
    assert tel.counter("serve.mp.inline").value >= 1
    assert active_segments() == []


# ---------------------------------------------------------------------
# failure containment
# ---------------------------------------------------------------------

def test_failing_solve_records_failed_outcome_not_dead_dispatcher():
    """A raising solve must not kill the dispatcher or strand drain.

    Regression test: the failed job gets a JobOutcome (error recorded,
    ``serve.job_failures`` counted) and the *same* dispatcher thread
    goes on to complete the next job.
    """
    def flaky(request):
        if request.job_id == "bad":
            raise ValueError("injected solve failure")
        return SolveReport(x=np.zeros(2), stop=StopReason.ATOL_BTOL,
                           itn=1, r2norm=0.0, ranks=1, m=2, n=2)

    tel = Telemetry()
    sched = _sched("thread", workers=1, solve_fn=flaky, telemetry=tel)
    jobs = [
        ServeJob(request=SolveRequest(system=_small_system(),
                                      iter_lim=5, job_id="bad"),
                 nominal_gb=10.0),
        ServeJob(request=SolveRequest(system=_small_system(seed=12),
                                      iter_lim=5, job_id="good"),
                 nominal_gb=10.0),
    ]
    report = sched.run(jobs)
    assert [o.job.job_id for o in report.completed] == ["good"]
    assert [o.job.job_id for o in report.failed] == ["bad"]
    assert "ValueError" in report.failed[0].error
    assert report.stuck_workers == ()
    assert tel.counter("serve.job_failures").value == 1
    assert "failed" in report.summary()


def test_worker_process_failure_contained_and_pool_survives():
    """A solve failing *inside a worker process* fails only its job.

    The worker answers with a traceback; the parent must turn that
    into a failed outcome -- not let the RuntimeError kill the
    dispatcher, shrink the pool, and leave drain() incomplete.
    """
    tel = Telemetry()
    sched = _sched("process", workers=1, drain_timeout=120.0,
                   telemetry=tel)
    sched.start()
    assert sched.wait_ready(120.0)
    system = _small_system(seed=31)
    digest = sched._store.publish(system)
    # Sabotage: zero the publication marker so the worker-side attach
    # rejects the segment -- a deterministic stand-in for any
    # exception raised inside the worker's solve path.
    sched._store._segments[digest].buf[:8] = b"\x00" * 8
    sched.submit(ServeJob(
        request=SolveRequest(system=system, iter_lim=5, job_id="bad"),
        nominal_gb=10.0))
    sched.submit(ServeJob(
        request=SolveRequest(system=_small_system(seed=32),
                             iter_lim=5, job_id="good"),
        nominal_gb=10.0))
    report = sched.drain()
    assert [o.job.job_id for o in report.failed] == ["bad"]
    assert "worker solve failed" in report.failed[0].error
    assert [o.job.job_id for o in report.completed] == ["good"]
    assert report.stuck_workers == ()
    assert tel.counter("serve.job_failures").value == 1
    assert active_segments() == []


# ---------------------------------------------------------------------
# drain / shutdown
# ---------------------------------------------------------------------

def test_graceful_drain_finishes_jobs_in_flight():
    release = threading.Event()
    started = threading.Event()

    def slow(request):
        started.set()
        assert release.wait(10.0)
        return SolveReport(x=np.zeros(2), stop=StopReason.ATOL_BTOL,
                           itn=1, r2norm=0.0, ranks=1, m=2, n=2)

    sched = _sched("thread", workers=1, solve_fn=slow,
                   drain_timeout=30.0)
    sched.submit(ServeJob(request=SolveRequest(system=_small_system(),
                                               iter_lim=5),
                          nominal_gb=10.0))
    sched.start()
    assert started.wait(10.0)
    # Admission closes the moment drain begins; the in-flight job
    # still completes.
    release.set()
    report = sched.drain()
    assert len(report.completed) == 1
    assert report.stuck_workers == ()
    late = sched.submit(ServeJob(
        request=SolveRequest(system=_small_system(), iter_lim=5),
        nominal_gb=10.0))
    assert late is AdmissionDecision.REJECTED_CLOSED


def test_drain_timeout_surfaces_stuck_worker():
    release = threading.Event()
    started = threading.Event()

    def wedged(request):
        started.set()
        assert release.wait(30.0)
        return SolveReport(x=np.zeros(2), stop=StopReason.ATOL_BTOL,
                           itn=1, r2norm=0.0, ranks=1, m=2, n=2)

    tel = Telemetry()
    sched = _sched("thread", workers=1, solve_fn=wedged,
                   drain_timeout=0.2, telemetry=tel)
    sched.submit(ServeJob(request=SolveRequest(system=_small_system(),
                                               iter_lim=5),
                          nominal_gb=10.0))
    sched.start()
    assert started.wait(10.0)
    report = sched.drain()  # bounded: returns despite the wedge
    assert report.stuck_workers == ("serve-w0",)
    assert tel.counter("serve.workers_stuck").value == 1
    assert "stuck" in report.summary()
    # Unwedge and let the thread exit so the test leaves nothing behind.
    release.set()
    sched._threads[0].join(10.0)
    assert not sched._threads[0].is_alive()


def test_keyboard_interrupt_leaves_no_processes_or_segments():
    sched = _sched("process", workers=1, drain_timeout=30.0)
    jobs = [ServeJob(request=SolveRequest(system=_small_system(seed=s),
                                          iter_lim=5),
                     nominal_gb=10.0, arrival_s=0.05 * (s + 1))
            for s in range(3)]

    def interrupted(delay):
        raise KeyboardInterrupt

    sched._sleep = interrupted
    with pytest.raises(KeyboardInterrupt):
        sched.run(jobs)
    deadline = time.perf_counter() + 10.0
    procs = sched._backend._procs
    while (any(p.is_alive() for p in procs)
           and time.perf_counter() < deadline):
        time.sleep(0.05)
    assert not any(p.is_alive() for p in procs)
    assert active_segments() == []
    # The run is closed for good: late submissions bounce.
    late = sched.submit(ServeJob(
        request=SolveRequest(system=_small_system(), iter_lim=5),
        nominal_gb=10.0))
    assert late is AdmissionDecision.REJECTED_CLOSED


# ---------------------------------------------------------------------
# closed-loop driver
# ---------------------------------------------------------------------

def test_run_closed_loop_bounds_outstanding_jobs():
    lock = threading.Lock()
    state = {"now": 0, "max": 0}

    def tracked(request):
        with lock:
            state["now"] += 1
            state["max"] = max(state["max"], state["now"])
        time.sleep(0.02)
        with lock:
            state["now"] -= 1
        return SolveReport(x=np.zeros(2), stop=StopReason.ATOL_BTOL,
                           itn=1, r2norm=0.0, ranks=1, m=2, n=2)

    sched = _sched("thread", workers=4, solve_fn=tracked)
    jobs = [ServeJob(request=SolveRequest(system=_small_system(),
                                          iter_lim=5),
                     nominal_gb=10.0) for _ in range(10)]
    report = run_closed_loop(sched, jobs, concurrency=2)
    assert len(report.completed) == 10
    assert state["max"] <= 2


def test_run_closed_loop_bounded_wait_returns_despite_wedged_worker():
    """A wedged pipeline times the slot wait out instead of hanging."""
    release = threading.Event()

    def wedged(request):
        assert release.wait(30.0)
        return SolveReport(x=np.zeros(2), stop=StopReason.ATOL_BTOL,
                           itn=1, r2norm=0.0, ranks=1, m=2, n=2)

    sched = _sched("thread", workers=1, solve_fn=wedged,
                   drain_timeout=0.2)
    jobs = [ServeJob(request=SolveRequest(system=_small_system(),
                                          iter_lim=5),
                     nominal_gb=10.0) for _ in range(3)]
    report = run_closed_loop(sched, jobs, concurrency=1,
                             wait_timeout=0.2)
    assert report.stuck_workers == ("serve-w0",)
    # Unwedge and let the thread exit so the test leaves nothing behind.
    release.set()
    sched._threads[0].join(10.0)
    assert not sched._threads[0].is_alive()
