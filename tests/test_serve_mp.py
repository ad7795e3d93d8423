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
import secrets
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
from repro.serve import shm as shm_mod
from repro.serve.job import AdmissionDecision, ServeJob
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler
from repro.serve.shm import SystemStore, active_segments, attach
from repro.system.constraints import ConstraintRow, ConstraintSet
from repro.system.digest import system_digest
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


#: ``/dev/shm`` names of the POSIX semaphores this process created, so
#: :func:`_semaphores` ignores a concurrent run's.
_OWN_SEMAPHORES: set[str] = set()


@pytest.fixture(autouse=True)
def _record_semaphores(monkeypatch):
    from multiprocessing.synchronize import SemLock

    make_name = SemLock._make_name

    def recording_make_name():
        name = make_name()
        _OWN_SEMAPHORES.add("sem." + name.lstrip("/"))
        return name

    monkeypatch.setattr(SemLock, "_make_name",
                        staticmethod(recording_make_name))


def _semaphores() -> list[str]:
    return sorted(p.name for p in Path("/dev/shm").glob("sem.*")
                  if p.name in _OWN_SEMAPHORES)


# ---------------------------------------------------------------------
# shared-memory store
# ---------------------------------------------------------------------

def test_shm_publish_attach_roundtrip(own_segments):
    system = _small_system(with_constraints=True)
    with SystemStore() as store:
        name = store.publish(system)
        assert name.startswith(shm_mod.SEGMENT_PREFIX)
        assert own_segments() == [name]
        assert store.refcount(name) == 1

        # In-process views: every matrix array bit-identical and
        # read-only; the right-hand side is bound by ``system()``.
        view = store.attach(name)
        assert list(view.arrays) == list(MATRIX_FIELDS)
        for field in MATRIX_FIELDS:
            got, want = view.arrays[field], getattr(system, field)
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype
            assert not got.flags.writeable
        assert view.dims == system.dims
        rebuilt = view.system(system.known_terms,
                              system.constraints.rhs)
        for field in _ARRAY_FIELDS:
            got, want = getattr(rebuilt, field), getattr(system, field)
            assert np.array_equal(got, want) and got.dtype == want.dtype
        assert rebuilt.meta["shm_segment"] == name
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

        # Worker-style attach by name (fresh mapping).
        att = attach(name)
        worker_side = att.system(system.known_terms,
                                 system.constraints.rhs)
        assert system_digest(worker_side) == system_digest(system)
        del worker_side
        att.close()

        # Republishing the same object is memoized + refcounted.
        assert store.publish(system) == name
        assert store.refcount(name) == 2
        assert len(store) == 1
        # Drop the zero-copy views before the store unlinks, so the
        # mapping can actually close.
        del view, rebuilt, rows, got, want
    assert own_segments() == []


def test_rhs_variants_of_one_matrix_share_one_segment(own_segments):
    """Systems differing only in their right-hand side publish one
    segment, counted once per publish and kept until close."""
    variants = _rhs_variants(_small_system(seed=24, with_constraints=True),
                             3)
    assert len({system_digest(v) for v in variants}) == 3
    with SystemStore() as store:
        names = {store.publish(v) for v in variants}
        assert len(names) == 1
        (name,) = names
        assert len(store) == 1 and own_segments() == [name]
        assert store.refcount(name) == 3
        for _ in variants:
            store.release(name)
        assert store.refcount(name) == 0
        assert own_segments() == [name]  # mapped until close
        store.release("unknown")  # releasing an unknown name is a no-op
    assert own_segments() == []


def test_no_constraint_set_and_an_empty_one_share_a_segment():
    """Both hash to one matrix digest; each job keeps its own form."""
    bare = dataclasses.replace(_small_system(seed=31), constraints=None)
    empty = dataclasses.replace(bare, constraints=ConstraintSet())
    with SystemStore() as store:
        name = store.publish(bare)
        assert store.publish(empty) == name and len(store) == 1
        view = store.attach(name)
        assert view.system(bare.known_terms).constraints is None
        assert len(view.system(empty.known_terms, ()).constraints) == 0
        del view


def test_segment_holds_the_matrix_and_a_json_header_only():
    """The segment is the coefficient block, the three index arrays and
    the constraint rows' ``cols``/``vals`` behind a JSON header: no
    right-hand side, no pickle."""
    system = _small_system(seed=28, with_constraints=True)
    with SystemStore() as store:
        name = store.publish(system)
        buf = store._segments[name].buf
        hlen = int.from_bytes(buf[:8], "little")
        header = json.loads(bytes(buf[8:8 + hlen]))
        assert [b[0] for b in header["blocks"]] == [
            "coefficients", "matrix_index_astro", "matrix_index_att",
            "instr_col", "constraint0.cols", "constraint0.vals"]
        assert header["blocks"][0][1] == [system.dims.n_obs,
                                          system.dims.nnz_per_row]
        assert header["constraints"] == ["test-row"]
        assert all(b[3] % 64 == 0 for b in header["blocks"])
        matrix_bytes = (
            sum(getattr(system, n).nbytes for n in MATRIX_FIELDS)
            + sum(r.cols.nbytes + r.vals.nbytes for r in system.constraints))
        assert header["total"] < matrix_bytes + 64 * 9
        del buf


def test_shm_close_is_idempotent_and_publish_after_close_fails(own_segments):
    store = SystemStore()
    store.publish(_small_system())
    store.close()
    store.close()
    assert own_segments() == []
    with pytest.raises(RuntimeError):
        store.publish(_small_system())


def test_concurrent_publish_same_store_keeps_refcounts_exact(own_segments):
    """Racing dispatchers publishing one system: one segment, N refs.

    Regression test for the publish race: a second publisher must
    never overwrite the refcount of (or hand out a name into) a
    segment another thread is still writing.
    """
    system = _small_system(seed=23)
    store = SystemStore()
    n = 8
    barrier = threading.Barrier(n)
    names: list[str] = []

    def pub():
        barrier.wait()
        names.append(store.publish(system))

    threads = [threading.Thread(target=pub) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    (name,) = set(names)
    assert len(names) == n and len(store) == 1
    assert store.refcount(name) == n
    view = store.attach(name)
    assert np.array_equal(view.arrays["astro_values"], system.astro_values)
    del view
    for _ in range(n):
        store.release(name)
    assert store.refcount(name) == 0
    store.close()
    assert own_segments() == []


def test_concurrent_publish_across_stores_owns_separate_segments(
        own_segments):
    """Four stores racing on the same content each create their own
    complete segment: no name is shared, adopted or waited on."""
    system = _small_system(seed=22)
    stores = [SystemStore() for _ in range(4)]
    barrier = threading.Barrier(len(stores))
    names: list[str | None] = [None] * len(stores)
    errors: list[BaseException] = []

    def pub(i):
        try:
            barrier.wait()
            names[i] = stores[i].publish(system)
        except BaseException as exc:  # pragma: no cover - fail loud
            errors.append(exc)

    threads = [threading.Thread(target=pub, args=(i,))
               for i in range(len(stores))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert errors == []
    assert len(set(names)) == 4
    assert own_segments() == sorted(names)
    for store, name in zip(stores, names):
        view = attach(name)
        assert np.array_equal(view.arrays["att_values"], system.att_values)
        view.close()
        store.close()
    assert own_segments() == []


def test_two_stores_publishing_one_matrix_own_separate_segments(
        own_segments):
    """Closing one store never unlinks what another store serves."""
    system = _small_system(seed=38, with_constraints=True)
    a, b = SystemStore(), SystemStore()
    a_name, b_name = a.publish(system), b.publish(system)
    assert a_name != b_name
    a.close()
    assert b.refcount(b_name) == 1
    view = attach(b_name)
    for field in MATRIX_FIELDS:
        assert np.array_equal(view.arrays[field], getattr(system, field))
    view.close()
    b.close()
    assert own_segments() == []


@pytest.fixture()
def foreign_segment():
    """A live segment of a second store, published before the test's
    own leak check starts recording (a concurrent run's segment)."""
    with SystemStore() as store:
        yield store.publish(_small_system(seed=36))


def test_leak_check_ignores_a_foreign_store(foreign_segment, own_segments):
    assert foreign_segment in active_segments()
    assert own_segments() == []
    with SystemStore() as store:
        store.publish(_small_system(seed=37))
        (mine,) = own_segments()
        assert mine != foreign_segment
    assert own_segments() == []
    assert foreign_segment in active_segments()


@pytest.fixture()
def planted():
    """Plant a segment the way any local process could; unlinked after.

    Yields a function ``(payload) -> (name, segment)`` that creates a
    fresh prefixed segment holding ``payload``: raw header bytes with
    the publication marker set, or a system's matrix in the schema.
    """
    from multiprocessing import shared_memory

    segments = []

    def plant(payload):
        name = shm_mod.SEGMENT_PREFIX + "planted-" + secrets.token_hex(8)
        if isinstance(payload, bytes):
            seg = shared_memory.SharedMemory(name=name, create=True,
                                             size=1 << 16)
            seg.buf[8:8 + len(payload)] = payload
            seg.buf[:8] = len(payload).to_bytes(8, "little")
        else:
            header, blocks, size = shm_mod._pack(payload)
            seg = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
            shm_mod._write_segment(seg, header, blocks)
        segments.append(seg)
        return name, seg

    yield plant
    for seg in segments:
        seg.close()
        seg.unlink()


def test_publish_draws_a_new_name_when_one_is_taken(planted, monkeypatch,
                                                    own_segments):
    """A store never opens, adopts or unlinks a segment it did not
    create: a taken name is skipped, and its segment outlives close."""
    system = _small_system(seed=39)
    taken, _ = planted(system)
    fresh = secrets.token_hex(16)
    draws = iter([taken.removeprefix(shm_mod.SEGMENT_PREFIX), fresh])
    monkeypatch.setattr(shm_mod.secrets, "token_hex", lambda n: next(draws))
    with SystemStore() as store:
        assert store.publish(system) == shm_mod.SEGMENT_PREFIX + fresh
    assert taken in active_segments()
    assert own_segments() == []


class _Planted:
    """Unpickling this creates the file it names."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (str(self.path), "w"))


def test_attach_refuses_a_planted_pickle_header_and_never_loads_it(
        tmp_path, planted):
    """A header that is a pickle payload does not parse into the JSON
    schema: attaching the segment fails, and the payload never runs."""
    import pickle

    marker = tmp_path / "payload-ran"
    payload = pickle.dumps(_Planted(marker))
    pickle.loads(payload).close()  # the payload is live ...
    marker.unlink()  # ... and its trace is gone again
    name, _ = planted(payload)
    with pytest.raises(RuntimeError, match="incomplete or foreign"):
        attach(name)
    assert not marker.exists()


def test_attach_refuses_a_segment_others_could_write(planted,
                                                     own_segments):
    """Right content is not enough: a segment group- or world-writable
    could be rewritten after validation, so a worker refuses it; the
    store's own segments are this user's alone."""
    import os

    system = _small_system(seed=35)
    name, seg = planted(system)
    os.fchmod(seg._fd, 0o666)
    with pytest.raises(RuntimeError, match="incomplete or foreign"):
        attach(name)
    with SystemStore() as store:
        mine = store.publish(system)
        assert (Path("/dev/shm") / mine).stat().st_mode & 0o077 == 0
        view = attach(mine)
        assert np.array_equal(view.arrays["astro_values"],
                              system.astro_values)
        view.close()
    assert own_segments() == []


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
        precondition=False, calc_var=False, strategy="fused", seed=42,
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

def test_process_backend_bitwise_identical_to_thread(own_segments):
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
    assert own_segments() == []


def _x_by_job(report) -> dict:
    return {o.job.job_id: o.report.x for o in report.completed}


def test_process_workers_map_each_matrix_once_and_match_thread(own_segments):
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
    assert own_segments() == []


def test_fused_batch_on_one_segment_is_bitwise_the_thread_batch(own_segments):
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
    assert own_segments() == []


def test_every_report_field_but_raw_survives_the_process_boundary(
        own_segments):
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
    assert own_segments() == []


def test_process_backend_inline_fallback_for_injected_solve_fn(own_segments):
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
    assert own_segments() == []


# ---------------------------------------------------------------------
# failure containment
# ---------------------------------------------------------------------

#: A driver script without the ``__main__`` guard: every spawned worker
#: re-imports it, tries to start a pool of its own while bootstrapping,
#: and dies before it reports ready.
_UNGUARDED_DRIVER = """
from repro.api import SolveRequest
from repro.serve.job import ServeJob
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb

sched = Scheduler(DevicePool(("A100",)), workers=1, backend="process",
                  mp_workers=2)
sched.start()
sched.submit(ServeJob(request=SolveRequest(
    system=make_system(dims_from_gb(0.0005), seed=1)), nominal_gb=10.0))
for outcome in sched.drain(timeout=60).failed:
    print("ERROR:", outcome.error.splitlines()[-1])
"""


def test_workers_dead_at_startup_name_the_cause(tmp_path):
    """When every worker dies before answering, the failed outcome
    carries each worker's exit code, that none reported ready, and the
    ``__main__``-guard hint."""
    import os
    import subprocess
    import sys

    script = tmp_path / "driver.py"
    script.write_text(_UNGUARDED_DRIVER)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    errors = [line for line in done.stdout.splitlines()
              if line.startswith("ERROR:")]
    assert len(errors) == 1, done.stdout + done.stderr
    [error] = errors
    assert "every worker process died before answering" in error
    assert error.count("never ready") == 2
    assert "serve-mp0 exit code 1" in error
    assert "serve-mp1 exit code 1" in error
    assert 'if __name__ == "__main__":' in error


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


def test_worker_process_failure_contained_and_pool_survives(own_segments):
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
    assert own_segments() == []


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


def test_drain_returns_when_a_large_task_waits_behind_a_wedged_worker(
        own_segments):
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
    assert own_segments() == []
    deadline = time.perf_counter() + 10.0
    while (_semaphores() != semaphores
           and time.perf_counter() < deadline):
        time.sleep(0.05)
    assert _semaphores() == semaphores


def test_keyboard_interrupt_leaves_no_processes_or_segments(own_segments):
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
    assert own_segments() == []
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
