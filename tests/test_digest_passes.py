"""One digest pass per job: the pair is taken once and carried.

Every served job needs its system hashed for the result cache, the
fusion key, the shared-memory publish and the session store.  The
pair :attr:`repro.api.SolveRequest.digests` is taken once per request
-- at admission, outside the scheduler lock, and only when some stage
reads it -- and every consumer reads it there.  These tests count the
passes over the matrix on each route, hold the scheduler lock free of
SHA-256, pin the store's behaviour on a system mutated in place (the
id-keyed digest memo that served the old matrix is gone), and check on
the source that no second caller re-hashes a request.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import PlacementConstraints, SolveReport, SolveRequest, solve
from repro.core.engine import StopReason
from repro.obs.telemetry import Telemetry
from repro.serve.cache import ResultCache
from repro.serve.job import ServeJob
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler
from repro.serve.shm import SystemStore
from repro.sessions.store import SessionStore
from repro.system import digest as digest_mod
from repro.system.generator import make_system
from repro.system.sparse import MATRIX_FIELDS
from repro.system.structure import SystemDims

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

DIMS = SystemDims(n_stars=20, n_obs=600, n_deg_freedom_att=12,
                  n_instr_params=18, n_glob_params=1)


def _system(seed: int = 11):
    return make_system(DIMS, seed=seed, noise_sigma=1e-10)


def _variant(system, v: int):
    """Same matrix arrays, its own right-hand side."""
    rng = np.random.default_rng((41, v))
    return dataclasses.replace(
        system, known_terms=system.known_terms
        + rng.normal(scale=1e-9, size=system.known_terms.shape))


def _job(job_id: str, system, nominal_gb: float = 10.0,
         **request_kwargs) -> ServeJob:
    request_kwargs.setdefault("iter_lim", 30)
    return ServeJob(request=SolveRequest(system=system, job_id=job_id,
                                         **request_kwargs),
                    nominal_gb=nominal_gb, job_id=job_id)


@pytest.fixture()
def passes(monkeypatch):
    """Counts full passes over a matrix (``_hash_matrix`` calls)."""
    calls = []
    hash_matrix = digest_mod._hash_matrix

    def counting(h, system):
        calls.append(system)
        hash_matrix(h, system)

    monkeypatch.setattr(digest_mod, "_hash_matrix", counting)
    return calls


def _digest_passes(tel: Telemetry) -> float:
    return tel.counter("serve.digest_passes").value


# ---------------------------------------------------------------------
# the pair
# ---------------------------------------------------------------------

def test_pair_is_both_digests_in_one_pass(passes):
    system = _system()
    pair = digest_mod.digests(system)
    assert len(passes) == 1
    assert pair == (digest_mod.system_digest(system),
                    digest_mod.matrix_digest(system))
    constrained = make_system(DIMS, seed=3, noise_sigma=1e-10,
                              with_constraints=True)
    full, matrix = digest_mod.digests(constrained)
    assert full == digest_mod.system_digest(constrained)
    assert matrix == digest_mod.matrix_digest(constrained)


def test_request_takes_the_pair_once_and_derive_carries_it(passes):
    request = SolveRequest(system=_system(), iter_lim=5)
    assert not request.hashed
    pair = request.digests
    assert request.digests is pair and len(passes) == 1
    derived = request.derive(seed=3, x0=np.zeros(DIMS.n_params))
    assert derived.digests is pair and len(passes) == 1
    # dataclasses.replace builds a request that hashes for itself, so
    # a pair never rides to a request over another system.
    other = dataclasses.replace(request, system=_system(seed=12))
    assert not other.hashed
    assert other.digests != pair
    with pytest.raises(ValueError, match="system"):
        request.derive(system=_system())


# ---------------------------------------------------------------------
# a system mutated in place is published (and solved) as its new self
# ---------------------------------------------------------------------

def test_store_publishes_a_mutated_system_as_new_content(own_segments):
    system = _system()
    with SystemStore() as store:
        first = store.publish(system)
        system.astro_values[0, 0] += 1.0
        second = store.publish(system)
        assert second != first
        got = store.attach(second).arrays["astro_values"]
        assert np.array_equal(got, system.astro_values)
        assert store.attach(first).arrays["astro_values"][0, 0] != (
            system.astro_values[0, 0])


def test_process_backend_solves_a_mutated_system_as_mutated(own_segments):
    system = _system()
    sched = Scheduler(DevicePool(("A100",)), backend="process",
                      workers=1, mp_workers=1, cache=ResultCache(8),
                      drain_timeout=120.0)
    sched.start()
    try:
        sched.submit(_job("before", system))
        assert sched.wait_for_outcomes(1, timeout=120.0)
        system.astro_values[0, 0] += 1.0
        sched.submit(_job("after", system))
        assert sched.wait_for_outcomes(2, timeout=120.0)
    finally:
        report = sched.drain()
    after = {o.job.job_id: o.report for o in report.outcomes}["after"]
    want = solve(SolveRequest(system=system, iter_lim=30))
    assert np.array_equal(after.x, want.x)
    assert after.itn == want.itn and after.r2norm == want.r2norm
    assert own_segments() == []


# ---------------------------------------------------------------------
# passes per job, per route
# ---------------------------------------------------------------------

def test_thread_solo_with_cache_and_fusion_is_one_pass_per_job(passes):
    tel = Telemetry()
    jobs = [_job(f"j{i}", _system(seed=20 + i)) for i in range(3)]
    sched = Scheduler(DevicePool(("A100",)), workers=1, max_fuse=4,
                      cache=ResultCache(8), telemetry=tel)
    report = sched.run(jobs)
    assert len(report.completed) == 3
    assert not any(p.batch_id for p in report.placement_log)
    assert len(passes) == 3 == _digest_passes(tel)


def test_cache_hit_is_one_pass(passes):
    system = _system()
    tel = Telemetry()
    sched = Scheduler(DevicePool(("A100",)), workers=1,
                      cache=ResultCache(8), telemetry=tel)
    sched.start()
    sched.submit(_job("a", system))
    assert sched.wait_for_outcomes(1, timeout=60.0)
    del passes[:]
    sched.submit(_job("b", system))
    report = sched.drain()
    assert report.outcomes[-1].placement.cache_hit
    assert len(passes) == 1
    assert _digest_passes(tel) == 2


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_fused_batch_is_one_pass_per_member(backend, passes,
                                            own_segments):
    base = _system()
    k = 3
    jobs = [_job(f"m{v}", base if v == 0 else _variant(base, v))
            for v in range(k)]
    tel = Telemetry()
    sched = Scheduler(DevicePool(("A100",)), workers=1, max_fuse=k,
                      cache=ResultCache(8), backend=backend,
                      mp_workers=1, drain_timeout=120.0, telemetry=tel)
    for job in jobs:
        sched.submit(job)
    sched.start()
    report = sched.drain()
    assert len(report.completed) == k
    assert {p.batch_size for p in report.placement_log} == {k}
    # The process worker hashes nothing; this process hashed K times.
    assert len(passes) == k == _digest_passes(tel)
    assert own_segments() == []


def test_process_solo_is_one_pass_per_job(passes, own_segments):
    tel = Telemetry()
    jobs = [_job(f"p{i}", _system(seed=30 + i)) for i in range(2)]
    sched = Scheduler(DevicePool(("A100",)), backend="process",
                      workers=1, mp_workers=1, cache=ResultCache(8),
                      drain_timeout=120.0, telemetry=tel)
    report = sched.run(jobs)
    assert len(report.completed) == 2
    assert len(passes) == 2 == _digest_passes(tel)
    assert own_segments() == []


def test_session_solve_is_one_pass(passes, tmp_path):
    system = _system()
    with SessionStore(tmp_path) as store:
        first = solve(SolveRequest(system=system, iter_lim=30),
                      sessions=store)
        assert len(passes) == 1
        again = solve(SolveRequest(system=system, iter_lim=30),
                      sessions=store)
        assert len(passes) == 2
    assert again.warm_start is not None and again.warm_start.exact
    assert again.warm_start.source_digest == (
        digest_mod.system_digest(system))
    assert first.warm_start is None


def test_sessions_route_records_under_the_submit_pass(passes, tmp_path):
    tel = Telemetry()
    system = _system()
    with SessionStore(tmp_path) as store:
        sched = Scheduler(DevicePool(("A100",)), workers=1,
                          sessions=store, cache=ResultCache(8),
                          telemetry=tel)
        sched.run([_job("s", system)])
        assert len(passes) == 1 == _digest_passes(tel)
        assert digest_mod.system_digest(system) in store


def _stub_solve(request: SolveRequest) -> SolveReport:
    return SolveReport(x=np.zeros(1), stop=StopReason.ATOL_BTOL, itn=1,
                       r2norm=0.0, ranks=request.ranks, m=1, n=1)


def test_gang_takes_no_pass(passes, tmp_path):
    tel = Telemetry()
    job = ServeJob(
        request=SolveRequest(
            system=_system(), constraints=PlacementConstraints(
                allow_gang=True, max_shards=2)),
        nominal_gb=16.0, job_id="gang")
    with SessionStore(tmp_path) as store:
        sched = Scheduler(DevicePool(("T4", "T4")), workers=1,
                          max_fuse=4, cache=ResultCache(8),
                          sessions=store, solve_fn=_stub_solve,
                          telemetry=tel)
        report = sched.run([job])
    assert report.outcomes[0].placement.shards
    assert passes == [] and _digest_passes(tel) == 0


# ---------------------------------------------------------------------
# no SHA-256 under the scheduler lock
# ---------------------------------------------------------------------

def test_no_matrix_is_hashed_under_the_scheduler_lock(monkeypatch,
                                                      tmp_path):
    hash_matrix = digest_mod._hash_matrix
    sched = None
    seen = []

    def guarded(h, system):
        assert not sched._cond._is_owned()
        seen.append(system)
        hash_matrix(h, system)

    monkeypatch.setattr(digest_mod, "_hash_matrix", guarded)
    base = _system()
    # Fusible twins, an exact duplicate (cache / single-flight) and a
    # job on another matrix, all queued before the dispatcher starts,
    # so placement scans fusion keys with the lock held.
    jobs = [_job(f"f{v}", base if v == 0 else _variant(base, v))
            for v in range(3)]
    jobs += [_job("dup", base), _job("other", _system(seed=40))]
    with SessionStore(tmp_path) as store:
        sched = Scheduler(DevicePool(("A100", "H100")), workers=2,
                          max_fuse=3, cache=ResultCache(8),
                          sessions=store)
        for job in jobs:
            sched.submit(job)
        sched.start()
        report = sched.drain()
    assert len(report.completed) == len(jobs)
    assert len(seen) == len(jobs)


def test_concurrent_submits_count_every_pass(passes):
    """More submitting threads than cores, a short switch interval:
    every pass taken is counted once, and every pair is its own
    system's."""
    systems = [_system(seed=50 + i) for i in range(4)]
    jobs = [_job(f"c{i}", systems[i % 4]) for i in range(32)]
    tel = Telemetry()
    sched = Scheduler(DevicePool(("A100",)), workers=1,
                      cache=ResultCache(8), max_queue_depth=64,
                      telemetry=tel)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda chunk=jobs[i::8]: [
            sched.submit(job) for job in chunk]) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        sched.abort()
    assert len(passes) == len(jobs) == _digest_passes(tel)
    for job in jobs:
        assert job.request.digests == digest_mod.digests(
            job.request.system)


# ---------------------------------------------------------------------
# the seam, on the source
# ---------------------------------------------------------------------

def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _callers(name):
    """Modules with a call whose callee is (or ends in) ``name``."""
    return {
        module for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None),
                     getattr(node.func, "attr", None))
    }


def test_matrix_content_reaches_hashlib_only_in_the_digest_module():
    assert _callers("_hash_matrix") == {"system/digest.py"}
    assert _callers("_hash_rest") == {"system/digest.py"}
    # The other modules that hash read no system content at all.
    content = set(MATRIX_FIELDS) | {"known_terms", "constraints",
                                    "system"}
    for module, tree in _trees():
        imports_hashlib = any(
            isinstance(node, ast.Import)
            and any(alias.name == "hashlib" for alias in node.names)
            for node in ast.walk(tree))
        if not imports_hashlib or module == "system/digest.py":
            continue
        touched = {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)} & content
        assert touched == set(), module


def test_no_second_caller_rehashes_a_request():
    # The pair is taken in one place (the request), the standalone
    # digests only where no request exists: a grown system's parent
    # link, the warm-start helpers' direct callers, a bare publish.
    assert _callers("digests") == {"api.py", "system/digest.py"}
    assert _callers("system_digest") == {"system/merge.py",
                                         "sessions/warmstart.py"}
    assert _callers("matrix_digest") == {"serve/shm.py"}
    # Requests the serving path derives keep their pair: no
    # dataclasses.replace of a request in the scheduler or the
    # warm-start protocol.
    for module in ("serve/scheduler.py", "sessions/warmstart.py"):
        tree = ast.parse((SRC / module).read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "replace"):
                target = node.args[0]
                name = getattr(target, "id", getattr(target, "attr", ""))
                assert name not in ("request", "base"), (
                    module, node.lineno)
    # One site counts the serving layer's passes.
    counted = {
        module for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "inc"
        and isinstance(node.func.value, ast.Call)
        and [getattr(a, "value", None) for a in node.func.value.args]
        == ["serve.digest_passes"]}
    assert counted == {"serve/scheduler.py"}
