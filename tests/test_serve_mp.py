"""Tests for the process worker backend and the shared-memory store.

The acceptance contract of ``Scheduler(backend="process")``: identical
numerics to the thread backend (the solve is a pure function of the
request, wherever it runs), zero leaked shared-memory segments under
every exit path (drain, abort, KeyboardInterrupt), and a graceful
shutdown that surfaces stuck workers instead of hanging.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from repro.serve import shm as shm_mod
from repro.serve.cache import matrix_digest, system_digest
from repro.serve.shm import attach
from repro.system.constraints import ConstraintRow, ConstraintSet
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb
from repro.system.sparse import MATRIX_FIELDS

POOL = ("V100", "A100", "H100", "MI250X")

#: Small, fully deterministic workload shared by the equivalence tests.
MP_SPEC = LoadSpec(n_jobs=6, mix=((10.0, 1.0),), distinct_systems=2,
                   scale=1e-4, iter_lim=30, seed=5)

_ARRAY_FIELDS = MATRIX_FIELDS + ("known_terms",)


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


def _rhs_variants(system, n: int, seed: int = 0):
    """``n`` systems over ``system``'s matrix arrays, each with its own
    ``known_terms``."""
    rng = np.random.default_rng(seed)
    return [dataclasses.replace(
        system, known_terms=system.known_terms
        + rng.normal(scale=1e-9, size=system.dims.n_obs))
        for _ in range(n)]


def _semaphores() -> list[str]:
    return sorted(p.name for p in Path("/dev/shm").glob("sem.*"))


# ---------------------------------------------------------------------
# shared-memory store
# ---------------------------------------------------------------------

def test_shm_publish_attach_roundtrip():
    system = _small_system(with_constraints=True)
    with SystemStore() as store:
        digest = store.publish(system)
        assert digest == matrix_digest(system)
        assert store.refcount(digest) == 1

        # In-process views: every matrix array bit-identical and
        # read-only; the right-hand side is bound by ``system()``.
        view = store.attach(digest)
        assert list(view.arrays) == list(MATRIX_FIELDS)
        for name in MATRIX_FIELDS:
            got, want = view.arrays[name], getattr(system, name)
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype
            assert not got.flags.writeable
        assert view.dims == system.dims
        rebuilt = view.system(system.known_terms,
                              system.constraints.rhs)
        for name in _ARRAY_FIELDS:
            got, want = getattr(rebuilt, name), getattr(system, name)
            assert np.array_equal(got, want) and got.dtype == want.dtype
        assert rebuilt.meta["shm_digest"] == digest
        assert system_digest(rebuilt) == system_digest(system)
        rows = list(rebuilt.constraints)
        assert len(rows) == 1
        assert rows[0].label == "test-row"
        assert rows[0].rhs == 0.5
        assert np.array_equal(rows[0].cols, np.array([0, 1, 2]))
        assert np.array_equal(rows[0].vals, np.array([1.0, -2.0, 1.0]))
        assert not rows[0].vals.flags.writeable
        # Binding the caller's right-hand side leaves it writable.
        assert system.known_terms.flags.writeable
        with pytest.raises(ValueError, match="constraint rhs"):
            view.system(system.known_terms)

        # Worker-style attach by digest (fresh mapping).
        att = attach(digest)
        worker_side = att.system(system.known_terms,
                                 system.constraints.rhs)
        assert system_digest(worker_side) == system_digest(system)
        del worker_side
        att.close()

        # Republishing the same object is memoized + refcounted.
        assert store.publish(system) == digest
        assert store.refcount(digest) == 2
        assert len(store) == 1
        # Drop the zero-copy views before the store unlinks, so the
        # mapping can actually close.
        del view, rebuilt, rows, got, want
    assert active_segments() == []


def test_rhs_variants_of_one_matrix_share_one_segment():
    """Systems differing only in their right-hand side publish one
    segment, counted once per publish."""
    variants = _rhs_variants(_small_system(seed=24, with_constraints=True),
                             3)
    assert len({system_digest(v) for v in variants}) == 3
    with SystemStore(linger=False) as store:
        digests = {store.publish(v) for v in variants}
        assert digests == {matrix_digest(variants[0])}
        (digest,) = digests
        assert len(store) == 1 and len(active_segments()) == 1
        assert store.refcount(digest) == 3
        for _ in variants:
            store.release(digest)
        assert active_segments() == []


def test_no_constraint_set_and_an_empty_one_share_a_segment():
    """Both hash to one matrix digest; each job keeps its own form."""
    bare = dataclasses.replace(_small_system(seed=31), constraints=None)
    empty = dataclasses.replace(bare, constraints=ConstraintSet())
    with SystemStore() as store:
        digest = store.publish(bare)
        assert store.publish(empty) == digest and len(store) == 1
        view = store.attach(digest)
        assert view.system(bare.known_terms).constraints is None
        assert len(view.system(empty.known_terms, ()).constraints) == 0
        del view


def test_segment_holds_the_matrix_and_a_json_header_only():
    """The segment is the seven matrix arrays and the constraint rows'
    ``cols``/``vals`` behind a JSON header: no right-hand side, no
    pickle."""
    system = _small_system(seed=28, with_constraints=True)
    with SystemStore() as store:
        digest = store.publish(system)
        buf = store._segments[digest].buf
        hlen = int.from_bytes(buf[:8], "little")
        header = json.loads(bytes(buf[8:8 + hlen]))
        assert [b[0] for b in header["blocks"]] == list(MATRIX_FIELDS) + [
            "constraint0.cols", "constraint0.vals"]
        assert header["constraints"] == ["test-row"]
        assert all(b[3] % 64 == 0 for b in header["blocks"])
        matrix_bytes = (
            sum(getattr(system, n).nbytes for n in MATRIX_FIELDS)
            + sum(r.cols.nbytes + r.vals.nbytes for r in system.constraints))
        assert header["total"] < matrix_bytes + 64 * 9
        del buf


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
    assert digest == matrix_digest(system)
    assert len(store) == 1
    assert store.refcount(digest) == n
    view = store.attach(digest)
    assert np.array_equal(view.arrays["astro_values"], system.astro_values)
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
        assert np.array_equal(view.arrays["att_values"], system.att_values)
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
    digest = matrix_digest(system)
    stale = shared_memory.SharedMemory(
        name=shm_mod._segment_name(digest), create=True, size=1 << 16)
    stale.close()
    with SystemStore() as store:
        assert store.publish(system) == digest
        view = store.attach(digest)
        assert np.array_equal(view.arrays["instr_col"], system.instr_col)
        del view
    assert active_segments() == []


class _Planted:
    """Unpickling this creates the file it names."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (str(self.path), "w"))


def test_a_planted_pickle_header_is_reclaimed_never_loaded(
        monkeypatch, tmp_path):
    """The segment name is a predictable content address, so any local
    process can pre-create it.  A header that is a pickle payload does
    not parse into the JSON schema: the segment is treated as a stale
    leftover and re-created, and the payload never runs -- neither in
    the publisher nor in an attaching worker."""
    import pickle
    from multiprocessing import shared_memory

    monkeypatch.setattr(shm_mod, "_ADOPT_TIMEOUT_S", 0.2)
    marker = tmp_path / "payload-ran"
    payload = pickle.dumps(_Planted(marker))
    pickle.loads(payload).close()  # the payload is live ...
    marker.unlink()  # ... and its trace is gone again
    system = _small_system(seed=27)
    digest = matrix_digest(system)
    planted = shared_memory.SharedMemory(
        name=shm_mod._segment_name(digest), create=True, size=1 << 16)
    planted.buf[8:8 + len(payload)] = payload
    planted.buf[:8] = len(payload).to_bytes(8, "little")
    try:
        with pytest.raises(RuntimeError, match="incomplete or foreign"):
            attach(digest)
        with SystemStore() as store:
            assert store.publish(system) == digest
            view = attach(digest)
            assert np.array_equal(view.arrays["glob_values"],
                                  system.glob_values)
            view.close()
    finally:
        planted.close()
    assert not marker.exists()
    assert active_segments() == []


def _plant(digest: str, system):
    """A complete segment under ``digest``'s name holding ``system``'s
    matrix, created the way any local process could."""
    from multiprocessing import shared_memory

    header, blocks, size = shm_mod._pack(system)
    seg = shared_memory.SharedMemory(
        name=shm_mod._segment_name(digest), create=True, size=size)
    shm_mod._write_segment(seg, header, blocks)
    return seg


def test_a_schema_valid_segment_with_other_arrays_is_reclaimed(monkeypatch):
    """A header in the schema is not enough: a segment whose blocks do
    not hash back to the digest it is named after is reclaimed, and the
    store serves the publisher's own matrix."""
    monkeypatch.setattr(shm_mod, "_ADOPT_TIMEOUT_S", 0.2)
    system = _small_system(seed=33, with_constraints=True)
    other = _small_system(seed=34, with_constraints=True)
    assert other.dims == system.dims
    digest = matrix_digest(system)
    planted = _plant(digest, other)
    try:
        with SystemStore() as store:
            assert store.publish(system) == digest
            view = store.attach(digest)
            for name in MATRIX_FIELDS:
                assert np.array_equal(view.arrays[name],
                                      getattr(system, name)), name
            del view
    finally:
        planted.close()
    assert active_segments() == []


def test_a_segment_others_could_write_is_never_adopted_or_attached():
    """Right content is not enough either: a segment group- or
    world-writable could be rewritten after validation, so a worker
    refuses it and the publisher re-creates the name as its own."""
    import os

    system = _small_system(seed=35)
    digest = matrix_digest(system)
    planted = _plant(digest, system)
    os.fchmod(planted._fd, 0o666)
    try:
        with pytest.raises(RuntimeError, match="incomplete or foreign"):
            attach(digest)
        with SystemStore() as store:
            assert store.publish(system) == digest
            path = Path("/dev/shm") / shm_mod._segment_name(digest)
            assert path.stat().st_mode & 0o077 == 0
            # The planted mapping is detached from the served one.
            np.ndarray(8, dtype=np.uint8, buffer=planted.buf)[:] = 0
            view = attach(digest)
            assert np.array_equal(view.arrays["astro_values"],
                                  system.astro_values)
            view.close()
    finally:
        planted.close()
    assert active_segments() == []


@pytest.mark.parametrize("mutate", [
    lambda h: h.pop("total"),
    lambda h: h.update(extra=1),
    lambda h: h["blocks"].reverse(),
    lambda h: h["blocks"][0].__setitem__(2, "|O"),
    lambda h: h["blocks"][0].__setitem__(3, 1 << 40),
    lambda h: h["blocks"][0].__setitem__(1, [-1, 5]),
    lambda h: h.__setitem__("constraints", [7]),
    lambda h: h.__setitem__("dims", [0, 1, 4, 6, 1]),
], ids=["missing key", "extra key", "block order", "object dtype",
        "block outside", "negative shape", "label type", "bad dims"])
def test_a_header_outside_the_schema_is_not_ready(mutate):
    system = _small_system(seed=29, with_constraints=True)
    header, blocks, size = shm_mod._pack(system)
    parsed = json.loads(header)
    buf = bytearray(size + 4096)
    for valid in (True, False):
        if not valid:
            mutate(parsed)
        text = json.dumps(parsed).encode()
        buf[8:8 + len(text)] = text
        buf[:8] = len(text).to_bytes(8, "little")
        assert (shm_mod._read_header(memoryview(buf)) is not None) is valid


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20) | st.binary())
def test_any_header_payload_reads_as_valid_or_not_ready(payload):
    """Whatever sits behind the marker, reading it never raises: a
    payload outside the schema is simply not ready."""
    text = payload if isinstance(payload, bytes) else json.dumps(
        payload).encode()
    buf = bytearray(8 + len(text) + 256)
    buf[8:8 + len(text)] = text
    buf[:8] = len(text).to_bytes(8, "little")
    assert shm_mod._read_header(memoryview(buf)) is None


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


def _x_by_job(report) -> dict:
    return {o.job.job_id: o.report.x for o in report.completed}


def test_process_workers_map_each_matrix_once_and_match_thread():
    """Three right-hand sides on each of two matrices: at most one
    mapping per (worker, matrix), every solution bitwise the thread
    backend's, and the pool's named semaphores gone after drain."""
    jobs = []
    for seed in (25, 26):
        for i, system in enumerate(
                _rhs_variants(_small_system(seed=seed), 3, seed=seed)):
            job_id = f"m{seed}-{i}"
            jobs.append(ServeJob(
                request=SolveRequest(system=system, iter_lim=8,
                                     job_id=job_id),
                nominal_gb=10.0, job_id=job_id))
    semaphores = _semaphores()
    tel = Telemetry()
    sched = _sched("process", workers=2, mp_workers=2,
                   drain_timeout=120.0, telemetry=tel)
    sched.start()
    assert len(_semaphores()) > len(semaphores)
    proc = sched.run(jobs)
    assert _semaphores() == semaphores
    thread = _sched("thread", workers=1).run(jobs)
    assert 2 <= tel.counter("serve.mp.attach").value <= 2 * 2
    want, got = _x_by_job(thread), _x_by_job(proc)
    assert set(got) == set(want) and len(got) == 6
    for job_id, x in want.items():
        assert np.array_equal(got[job_id], x), job_id
    assert active_segments() == []


def test_fused_batch_on_one_segment_is_bitwise_the_thread_batch():
    """A 3-member batch of one matrix runs on one mapping and gives the
    thread backend's bits."""
    jobs = [ServeJob(request=SolveRequest(system=system, iter_lim=8,
                                          job_id=f"b{i}"),
                     nominal_gb=10.0, job_id=f"b{i}")
            for i, system in enumerate(
                _rhs_variants(_small_system(seed=30), 3, seed=3))]
    tel = Telemetry()
    proc = _sched("process", workers=1, max_fuse=3, drain_timeout=120.0,
                  telemetry=tel).run(jobs)
    thread = _sched("thread", workers=1, max_fuse=3).run(jobs)
    assert tel.counter("serve.fusion.members").value == 3
    assert tel.counter("serve.mp.attach").value == 1
    want, got = _x_by_job(thread), _x_by_job(proc)
    assert set(got) == set(want) and len(got) == 3
    for job_id, x in want.items():
        assert np.array_equal(got[job_id], x), job_id
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


def test_drain_returns_when_a_large_task_waits_behind_a_wedged_worker():
    """A task larger than the pipe buffer, queued behind a worker that
    stopped answering, leaves the parent's queue feeder blocked
    mid-write.  The forced stop after the drain timeout must still
    return, and release the pool's semaphores and segments."""
    import os
    import signal

    system = make_system(dims_from_gb(3e-3), seed=36, noise_sigma=1e-9)
    assert system.known_terms.nbytes > 1 << 16
    semaphores = _semaphores()
    sched = _sched("process", workers=1, mp_workers=1, drain_timeout=1.0)
    sched.start()
    assert sched.wait_ready(120.0)
    (worker,) = sched._backend._procs
    # A stopped process holds SIGTERM pending until it resumes, so the
    # forced stop's terminate also resumes it: the worker then dies the
    # way a busy one does, without reading another byte.
    terminate = worker.terminate

    def terminate_wedged():
        terminate()
        os.kill(worker.pid, signal.SIGCONT)

    worker.terminate = terminate_wedged
    os.kill(worker.pid, signal.SIGSTOP)
    try:
        sched.submit(ServeJob(
            request=SolveRequest(system=system, iter_lim=5, job_id="big"),
            nominal_gb=10.0))
        reports = []
        drain = threading.Thread(target=lambda: reports.append(
            sched.drain()), daemon=True)
        drain.start()
        drain.join(30.0)
        assert not drain.is_alive(), "drain() blocked on the queue feeder"
    finally:
        try:
            os.kill(worker.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
    (report,) = reports
    assert report.stuck_workers == ("serve-w0",)
    assert not worker.is_alive()
    assert active_segments() == []
    deadline = time.perf_counter() + 10.0
    while (_semaphores() != semaphores
           and time.perf_counter() < deadline):
        time.sleep(0.05)
    assert _semaphores() == semaphores


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
# closed-loop primitive
# ---------------------------------------------------------------------

def test_wait_for_outcomes_times_out_on_a_wedged_worker():
    """A wedged pipeline times the outcome wait out instead of hanging,
    and the wait succeeds once the worker delivers."""
    release = threading.Event()

    def wedged(request):
        assert release.wait(30.0)
        return SolveReport(x=np.zeros(2), stop=StopReason.ATOL_BTOL,
                           itn=1, r2norm=0.0, ranks=1, m=2, n=2)

    sched = _sched("thread", workers=1, solve_fn=wedged)
    sched.start()
    sched.submit(ServeJob(request=SolveRequest(system=_small_system(),
                                               iter_lim=5),
                          nominal_gb=10.0))
    assert not sched.wait_for_outcomes(1, timeout=0.2)
    release.set()
    assert sched.wait_for_outcomes(1, timeout=10.0)
    assert len(sched.drain().completed) == 1
