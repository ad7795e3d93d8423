"""Tests for :mod:`repro.sessions` -- store, lineage, warm starts.

Covers the session store's disk contract (atomic persistence, LRU
byte budget, parked-checkpoint immunity), the incremental-observation
system growth (:func:`append_observations` /
:func:`make_observation_block`), warm-start resolution and its
solution equivalence, and ``resume_from`` across every driver
:func:`repro.api.solve` dispatches to.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ResilienceConfig, SolveRequest, solve
from repro.core.aprod import aprod1
from repro.core.engine import EngineState
from repro.core.lsqr import lsqr_solve
from repro.obs.telemetry import Telemetry
from repro.sessions.store import SessionStore
from repro.sessions.warmstart import record_solution, resolve_warm_start
from repro.system.digest import system_digest
from repro.system.generator import make_observation_block, make_system
from repro.system.merge import append_observations
from repro.system.sizing import dims_from_gb
from repro.system.structure import SystemDims

DIMS = SystemDims(n_stars=8, n_obs=160, n_deg_freedom_att=8,
                  n_instr_params=10, n_glob_params=0)


def tiny_system(seed=0, noise=1e-9):
    return make_system(DIMS, seed=seed, noise_sigma=noise)


# ----------------------------------------------------------------------
# SessionStore disk contract
# ----------------------------------------------------------------------
class TestSessionStore:
    def test_roundtrip(self, tmp_path):
        x = np.linspace(0.0, 1.0, 64)
        with SessionStore(tmp_path) as store:
            store.put("d1", x, itn=12, r2norm=3.5, stop="ATOL_RTOL",
                      parent="d0")
            rec = store.get("d1")
            assert rec is not None
            np.testing.assert_array_equal(rec.x, x)
            assert rec.itn == 12
            assert rec.r2norm == 3.5
            assert rec.stop == "ATOL_RTOL"
            assert rec.parent == "d0"
            assert store.get("nope") is None

    def test_reopen_persistence(self, tmp_path):
        x = np.arange(32, dtype=np.float64)
        with SessionStore(tmp_path) as store:
            store.put("d1", x, itn=5, r2norm=1.0, stop="ATOL")
        with SessionStore(tmp_path) as store:
            rec = store.get("d1")
            assert rec is not None
            np.testing.assert_array_equal(rec.x, x)
            assert rec.parent is None

    def test_lru_eviction(self, tmp_path):
        x = np.zeros(1000)  # 8 kB payload per record
        with SessionStore(tmp_path, budget_bytes=20_000) as store:
            store.put("a", x, itn=1, r2norm=1.0, stop="ATOL")
            store.put("b", x, itn=1, r2norm=1.0, stop="ATOL")
            assert store.get("a") is not None  # refresh a
            store.put("c", x, itn=1, r2norm=1.0, stop="ATOL")
            # b was least recently used -> evicted; a survived.
            assert store.get("b") is None
            assert store.get("a") is not None
            assert store.get("c") is not None
            assert store.stats()["evictions"] >= 1

    def test_oversized_record_dropped(self, tmp_path):
        with SessionStore(tmp_path, budget_bytes=1000) as store:
            store.put("big", np.zeros(10_000), itn=1, r2norm=1.0,
                      stop="ATOL")
            assert store.get("big") is None
            assert store.stats()["records"] == 0

    def test_parked_never_evicted(self, tmp_path):
        x = np.zeros(1000)
        with SessionStore(tmp_path, budget_bytes=20_000) as store:
            np.savez(store.park_path("job-1"), itn=np.int64(7))
            store.park("job-1", itn=7, attempt=1, devices=("V100",))
            for i in range(6):
                store.put(f"d{i}", x, itn=1, r2norm=1.0, stop="ATOL")
            parked = store.parked("job-1")
            assert parked is not None
            assert parked.itn == 7
            assert parked.attempt == 1
            assert parked.devices == ("V100",)
            assert store.park_path("job-1").exists()
            claimed = store.claim("job-1")
            assert claimed is not None and claimed.itn == 7
            assert store.claim("job-1") is None
            store.discard("job-1")
            assert not store.park_path("job-1").exists()

    def test_parked_survives_reopen(self, tmp_path):
        with SessionStore(tmp_path) as store:
            np.savez(store.park_path("job-9"), itn=np.int64(3))
            store.park("job-9", itn=3, attempt=2,
                       devices=("V100", "A100"))
        with SessionStore(tmp_path) as store:
            parked = store.parked("job-9")
            assert parked is not None
            assert parked.attempt == 2
            assert parked.devices == ("V100", "A100")

    def test_a_failed_park_write_leaves_no_debris(self, tmp_path,
                                                  monkeypatch):
        """A park whose sidecar write fails leaves neither a temporary
        file nor a torn sidecar: the previous park stays readable."""
        with SessionStore(tmp_path) as store:
            np.savez(store.park_path("job-4"), itn=np.int64(3))
            store.park("job-4", itn=3, attempt=1)
            sidecar = store.park_path("job-4").with_suffix(".json")
            before = sidecar.read_bytes()
            files = sorted(tmp_path.iterdir())

            def no_space(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(os, "replace", no_space)
            with pytest.raises(OSError, match="disk full"):
                store.park("job-4", itn=5, attempt=2)
            monkeypatch.undo()
            assert sorted(tmp_path.iterdir()) == files
            assert sidecar.read_bytes() == before
            assert store.parked("job-4").itn == 3

    def test_owned_tempdir_cleanup(self):
        store = SessionStore(None)
        root = store.root
        store.put("d", np.zeros(4), itn=1, r2norm=1.0, stop="ATOL")
        assert root.exists()
        store.close()
        assert not root.exists()


# ----------------------------------------------------------------------
# Incremental observation growth
# ----------------------------------------------------------------------
class TestAppendObservations:
    def test_block_consistency_noise_free(self):
        parent = tiny_system(noise=0.0)
        block = make_observation_block(parent, 40, seed=3,
                                       noise_sigma=0.0)
        assert block.dims.n_obs == 40
        assert block.dims.n_stars == parent.dims.n_stars
        x_true = parent.meta["x_true"]
        np.testing.assert_allclose(
            block.known_terms, aprod1(block, x_true)[:40],
            rtol=0, atol=0)

    def test_child_shape_and_lineage(self):
        parent = tiny_system()
        block = make_observation_block(parent, 40, seed=3)
        child = append_observations(parent, block)
        assert child.dims.n_obs == parent.dims.n_obs + 40
        assert child.dims.n_stars == parent.dims.n_stars
        pd = system_digest(parent)
        assert child.meta["parent_digest"] == pd
        assert child.meta["lineage"] == (pd,)
        assert system_digest(child) != pd
        # Grandchild lineage is nearest-ancestor-first.
        block2 = make_observation_block(child, 30, seed=4)
        grand = append_observations(child, block2)
        assert grand.meta["lineage"] == (system_digest(child), pd)

    def test_constraints_reappended(self):
        parent = tiny_system()
        assert parent.constraints is not None
        block = make_observation_block(parent, 20, seed=1)
        child = append_observations(parent, block)
        assert child.constraints is not None
        assert len(child.constraints.rows) == len(
            parent.constraints.rows)
        assert child.constraints is not parent.constraints

    def test_block_with_constraints_rejected(self):
        parent = tiny_system()
        block = make_observation_block(parent, 20, seed=1)
        bad = dataclasses.replace(block,
                                  constraints=parent.constraints)
        with pytest.raises(ValueError, match="constraint"):
            append_observations(parent, bad)

    def test_block_requires_x_true(self):
        parent = tiny_system()
        orphan = dataclasses.replace(
            parent, meta={k: v for k, v in parent.meta.items()
                          if k != "x_true"})
        with pytest.raises(ValueError, match="x_true"):
            make_observation_block(orphan, 10)


@settings(max_examples=15, deadline=None)
@given(steps=st.integers(2, 4), seed=st.integers(0, 2**16),
       growth=st.floats(0.1, 1.0))
def test_lineage_digests_resolve_and_stay_distinct(tmp_path_factory,
                                                   steps, seed,
                                                   growth):
    """Lineage property: along any growth chain, digests are distinct
    (injective per chain) and every recorded parent link resolves in
    the store."""
    tmp = tmp_path_factory.mktemp("lineage")
    system = make_system(DIMS, seed=seed, noise_sigma=1e-9)
    digests = [system_digest(system)]
    with SessionStore(tmp) as store:
        store.put(digests[0], np.zeros(4), itn=1, r2norm=1.0,
                  stop="ATOL")
        for step in range(1, steps):
            n_new = max(1, round(system.dims.n_obs * growth))
            block = make_observation_block(system, n_new,
                                           seed=seed + step)
            system = append_observations(system, block)
            d = system_digest(system)
            digests.append(d)
            store.put(d, np.zeros(4), itn=1, r2norm=1.0,
                      stop="ATOL", parent=system.meta["parent_digest"])
        assert len(set(digests)) == len(digests)
        for d in digests[1:]:
            rec = store.get(d)
            assert rec is not None and rec.parent is not None
            assert store.get(rec.parent) is not None


# ----------------------------------------------------------------------
# Warm starts
# ----------------------------------------------------------------------
class TestWarmStart:
    def grow(self, parent, n_new, seed):
        block = make_observation_block(parent, n_new, seed=seed)
        return append_observations(parent, block)

    def test_equivalence_and_fewer_iterations(self, tmp_path):
        parent = make_system(dims_from_gb(0.004), seed=0,
                             noise_sigma=1e-9)
        child = self.grow(parent, parent.dims.n_obs // 2, seed=7)
        with SessionStore(tmp_path) as store:
            rep_parent = solve(SolveRequest(system=parent),
                               sessions=store)
            assert rep_parent.warm_start is None
            cold = solve(SolveRequest(system=child))
            warm = solve(SolveRequest(system=child), sessions=store)
            assert warm.warm_start is not None
            assert not warm.warm_start.exact
            assert warm.warm_start.depth == 1
            # Strictly fewer iterations than the cold re-solve...
            assert warm.itn < cold.itn
            assert warm.warm_start.iterations_saved > 0
            # ...and the same solution, through a tightening rtol
            # ladder (both stopped at the same atol-driven rule).
            for rtol in (1e-4, 1e-6):
                np.testing.assert_allclose(warm.x, cold.x, rtol=rtol,
                                           atol=1e-8)

    def test_exact_digest_rehit(self, tmp_path):
        system = tiny_system()
        with SessionStore(tmp_path) as store:
            first = solve(SolveRequest(system=system), sessions=store)
            again = solve(SolveRequest(system=system), sessions=store)
            assert again.warm_start is not None
            assert again.warm_start.exact
            assert again.warm_start.depth == 0
            # Re-solving from the converged solution stops almost
            # immediately.
            assert again.itn < first.itn
            assert again.warm_start.iterations_saved > 0
            assert "warm start" in again.summary()

    def test_a_truncated_record_is_a_cold_solve(self, tmp_path):
        """A record cut to half its size (a torn copy) is quarantined,
        not served: the session solve completes cold, bitwise a fresh
        cold solve, the torn file is moved out of the ``sol-*.npz``
        scan, and a reopened store neither indexes nor re-reads it."""
        system, other = tiny_system(), tiny_system(seed=1)
        record = tmp_path / f"sol-{system_digest(system)}.npz"
        moved = tmp_path / f"quarantined-{record.name}"

        def truncate():
            torn = record.read_bytes()[:record.stat().st_size // 2]
            record.write_bytes(torn)
            return torn

        tel = Telemetry()
        with SessionStore(tmp_path, telemetry=tel) as store:
            solve(SolveRequest(system=system), sessions=store)
            solve(SolveRequest(system=other), sessions=store)
            torn = truncate()
            again = solve(SolveRequest(system=system), sessions=store)
            assert store.stats()["quarantined"] == 1
        assert tel.counter("serve.sessions.quarantined").value == 1
        fresh = solve(SolveRequest(system=system))
        assert again.warm_start is None
        assert again.itn == fresh.itn
        np.testing.assert_array_equal(again.x, fresh.x)
        np.testing.assert_array_equal(again.var, fresh.var)
        assert moved.read_bytes() == torn
        # The cold re-solve recorded a whole record; tear that one too.
        torn = truncate()
        with SessionStore(tmp_path) as store:
            assert len(store) == 1
            assert store.get(system_digest(other)) is not None
            assert store.stats()["quarantined"] == 1
        assert moved.read_bytes() == torn and not record.exists()
        with SessionStore(tmp_path) as store:
            assert len(store) == 1
            assert store.stats()["quarantined"] == 0
        assert moved.read_bytes() == torn

    def test_resolve_warm_start_miss(self, tmp_path):
        with SessionStore(tmp_path) as store:
            assert resolve_warm_start(store, tiny_system()) is None
            assert store.stats()["misses"] == 1

    def test_record_and_resolve_roundtrip(self, tmp_path):
        system = tiny_system()
        report = solve(SolveRequest(system=system))
        with SessionStore(tmp_path) as store:
            digest = record_solution(store, system, report)
            assert digest == system_digest(system)
            warm = resolve_warm_start(store, system)
            assert warm is not None and warm.exact
            np.testing.assert_array_equal(warm.x0, report.x)
            assert warm.prior_itn == report.itn


# ----------------------------------------------------------------------
# resume_from: one archive, every driver
# ----------------------------------------------------------------------
#: The drivers ``api.solve`` dispatches to, as request fields, with
#: the rank count each runs on.
WRITERS = {"serial": dict(ranks=1), "ranks2": dict(ranks=2),
           "recovery2": dict(ranks=2, resilience=ResilienceConfig())}
READERS = {"serial": dict(ranks=1), "ranks3": dict(ranks=3),
           "recovery2": dict(ranks=2, resilience=ResilienceConfig())}


class TestResumeFrom:
    def test_resume_from_keeps_the_dispatch(self, tmp_path):
        req = SolveRequest(system=tiny_system(),
                           resume_from=str(tmp_path / "ck.npz"))
        assert req.resilience is None

    def test_explicit_resilience_untouched(self, tmp_path):
        cfg = ResilienceConfig(checkpoint_every=3)
        req = SolveRequest(system=tiny_system(), resilience=cfg,
                           resume_from=str(tmp_path / "ck.npz"))
        assert req.resilience is cfg

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("writer", WRITERS)
    def test_cross_driver_resume(self, writer, reader, tmp_path):
        """A 15-iteration dump of any driver resumes to 40 on any
        driver and rank count: bitwise the uninterrupted run on the
        same rank count (no-fault recovery is bitwise the SPMD
        driver), within the serial-vs-distributed tolerance of
        ``test_api.py`` otherwise."""
        system, path = tiny_system(), tmp_path / "ck.npz"
        solve(SolveRequest(system=system, iter_lim=15, checkpoint_every=5,
                           checkpoint_path=path, **WRITERS[writer]))
        assert EngineState.load(path).itn == 15
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]
        ref = solve(SolveRequest(system=system, iter_lim=40,
                                 **READERS[reader]))
        resumed = solve(SolveRequest(system=system, iter_lim=40,
                                     resume_from=path, **READERS[reader]))
        assert resumed.itn == ref.itn and resumed.stop is ref.stop
        if WRITERS[writer]["ranks"] == READERS[reader]["ranks"]:
            np.testing.assert_array_equal(resumed.x, ref.x)
            np.testing.assert_array_equal(resumed.var, ref.var)
            assert resumed.r2norm == ref.r2norm
            assert resumed.acond == ref.acond
        else:
            np.testing.assert_allclose(resumed.x, ref.x,
                                       rtol=1e-8, atol=1e-10)

    def test_truncated_archive_is_a_value_error(self, tmp_path):
        system, path = tiny_system(), tmp_path / "ck.npz"
        solve(SolveRequest(system=system, iter_lim=10, checkpoint_every=5,
                           checkpoint_path=path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        for ranks in (1, 2):
            with pytest.raises(ValueError, match="truncated") as err:
                solve(SolveRequest(system=system, ranks=ranks,
                                   resume_from=path))
            assert str(path) in str(err.value)

    def test_foreign_archive_is_a_value_error(self, tmp_path):
        """A session record is an ``.npz`` too, but not a checkpoint."""
        system = tiny_system()
        with SessionStore(tmp_path) as store:
            record_solution(store, system,
                            solve(SolveRequest(system=system)))
        (record,) = tmp_path.glob("sol-*.npz")
        with pytest.raises(ValueError, match="EngineState") as err:
            solve(SolveRequest(system=system, resume_from=record))
        assert str(record) in str(err.value)
        assert "'u'" in str(err.value)  # what is missing is named

    def test_archive_of_another_system_is_a_value_error(self, tmp_path):
        path = tmp_path / "ck.npz"
        solve(SolveRequest(system=tiny_system(), iter_lim=10,
                           checkpoint_every=5, checkpoint_path=path))
        grown = make_system(dataclasses.replace(DIMS, n_obs=200), seed=0)
        for extra in (dict(), dict(ranks=2),
                      dict(resilience=ResilienceConfig())):
            with pytest.raises(ValueError, match="rows") as err:
                solve(SolveRequest(system=grown, resume_from=path,
                                   **extra))
            assert str(path) in str(err.value)

    def test_resumable_lsqr_resume_from(self, tmp_path):
        """``lsqr_solve`` reads the archive it writes (x0 and damp
        included: the caller passes the same values again)."""
        system = tiny_system()
        x0 = np.full(system.dims.n_params, 1e-3)
        kwargs = dict(x0=x0, damp=1e-3)
        ref = lsqr_solve(system, iter_lim=40, **kwargs)
        ckpt = tmp_path / "state.npz"
        lsqr_solve(system, iter_lim=15, checkpoint_every=15,
                   checkpoint_path=ckpt, **kwargs)
        resumed = lsqr_solve(system, iter_lim=40, resume_from=ckpt,
                             **kwargs)
        assert resumed.itn == ref.itn
        np.testing.assert_array_equal(resumed.x, ref.x)
        assert resumed.acond == ref.acond

    def test_resume_from_live_state(self, tmp_path):
        system = tiny_system()
        ref = lsqr_solve(system, iter_lim=40)
        ckpt = tmp_path / "state.npz"
        lsqr_solve(system, iter_lim=15, checkpoint_every=15,
                   checkpoint_path=ckpt)
        live = EngineState.load(ckpt)
        resumed = lsqr_solve(system, iter_lim=40, resume_from=live)
        assert resumed.itn == ref.itn == live.itn
        np.testing.assert_array_equal(resumed.x, ref.x)
