"""The single-step-engine contract: one iteration body, many drivers.

Locks the tentpole guarantees of the ``repro.core.engine`` refactor:
the serial, distributed and recovery drivers all execute the
same Paige & Saunders body, so a 1-rank distributed solve is
*bitwise* the serial solve, checkpoint/resume reproduces the
uninterrupted trajectory exactly, the distributed result carries the
full ``StopReason``, and a reduction backend is pluggable in
isolation.
"""

from functools import partial

import numpy as np
import pytest

from repro.api import STRATEGY_PRESETS
from repro.core.aprod import AprodOperator
from repro.core.engine import (
    EngineState,
    LSQRStepEngine,
    SerialReduction,
    StopReason,
)
from repro.core.lsqr import lsqr_solve
from repro.core.precond import ColumnScaling, PreconditionedAprod, prepare
from repro.dist.runner import DistributedLSQR, distributed_lsqr_solve
from repro.obs.telemetry import Telemetry, NULL_TELEMETRY
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from loop_reference import lsqr_loop


def _engine_for(system, **kwargs):
    op = AprodOperator(system)
    scaling = ColumnScaling.from_operator(op)
    return (LSQRStepEngine(PreconditionedAprod(op, scaling), **kwargs),
            scaling)


# ----------------------------------------------------------------------
# The engine is the textbook loop body, bitwise
# ----------------------------------------------------------------------
def test_engine_steps_are_bitwise_the_loop_body():
    """Preallocated workspaces change no bit: 25 engine steps give the
    ``x`` and ``var`` of the loop written with fresh temporaries."""
    dims = SystemDims(n_stars=120, n_obs=3_600, n_deg_freedom_att=24,
                      n_instr_params=36, n_glob_params=1)
    op = AprodOperator(make_system(dims, seed=7, noise_sigma=1e-10))
    pre = PreconditionedAprod(op, ColumnScaling.from_operator(op))
    b = op.system.rhs().astype(np.float64)
    engine = LSQRStepEngine(pre, backend=SerialReduction(), atol=0.0,
                            btol=0.0, conlim=0.0, calc_var=True)
    state = engine.start(b.copy())
    for _ in range(25):
        engine.step(state)
    assert state.istop is None
    x, var = lsqr_loop(pre, b, 25)
    assert np.array_equal(state.x, x)
    assert np.array_equal(state.var, var)


# ----------------------------------------------------------------------
# Serial == distributed at one rank, bitwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", sorted(STRATEGY_PRESETS))
def test_one_rank_distributed_is_bitwise_serial(plan_system, strategy):
    gather, scatter = STRATEGY_PRESETS[strategy]
    operator = partial(AprodOperator, gather_strategy=gather,
                       scatter_strategy=scatter)
    serial = lsqr_solve(operator(plan_system), atol=1e-12, btol=1e-12)
    dist = DistributedLSQR(plan_system, 1, local_operator=operator
                           ).solve(atol=1e-12, btol=1e-12)
    assert dist.itn == serial.itn
    assert dist.stop == serial.istop
    assert np.array_equal(dist.x, serial.x)
    assert np.array_equal(dist.var, serial.var)
    assert dist.r2norm == serial.r2norm


def test_distributed_reports_stop_reason(small_system):
    dist = distributed_lsqr_solve(small_system, 3, atol=1e-12)
    assert isinstance(dist.stop, StopReason)
    assert dist.stop != StopReason.ITERATION_LIMIT
    assert dist.converged
    capped = distributed_lsqr_solve(small_system, 2, atol=0.0,
                                    btol=0.0, iter_lim=3)
    assert capped.stop is StopReason.ITERATION_LIMIT
    assert capped.itn == 3
    assert not capped.converged


def test_distributed_callback_traces_convergence(small_system):
    from repro.core.convergence import ConvergenceHistory

    history = ConvergenceHistory()
    dist = distributed_lsqr_solve(small_system, 2, atol=1e-12,
                                  callback=history)
    assert len(history) == dist.itn
    assert history.is_monotone()
    assert history.final_r2norm == pytest.approx(dist.r2norm)


def test_distributed_checkpoint_resume(small_system, tmp_path):
    from repro.dist.runner import DistributedLSQR

    straight = DistributedLSQR(small_system, 2).solve(atol=1e-12)
    ckpt = tmp_path / "dist_state"
    interrupted = DistributedLSQR(small_system, 2).solve(
        atol=1e-12, iter_lim=7, checkpoint_every=7,
        checkpoint_path=ckpt)
    assert interrupted.stop is StopReason.ITERATION_LIMIT
    resumed = DistributedLSQR(small_system, 2).solve(
        atol=1e-12, resume_from=ckpt)
    assert resumed.itn == straight.itn
    assert resumed.stop == straight.stop
    assert np.array_equal(resumed.x, straight.x)


# ----------------------------------------------------------------------
# Checkpoint/resume through the shared engine
# ----------------------------------------------------------------------
def test_engine_state_roundtrip_resumes_exactly(small_system, tmp_path):
    engine, _ = _engine_for(small_system, atol=1e-12, btol=1e-12)
    straight = engine.start(small_system.rhs().astype(np.float64))
    while straight.istop is None:
        engine.step(straight)

    state = engine.start(small_system.rhs().astype(np.float64))
    for _ in range(10):
        engine.step(state)
    reloaded = EngineState.load(state.save(tmp_path / "mid"))
    while reloaded.istop is None:
        engine.step(reloaded)
    assert reloaded.itn == straight.itn
    assert reloaded.istop == straight.istop
    assert np.array_equal(reloaded.x, straight.x)
    assert np.array_equal(reloaded.var, straight.var)
    assert reloaded.r2norm == straight.r2norm


def test_lsqr_solve_checkpoint_resumes_via_resumable(small_system,
                                                     tmp_path):
    """A crash-recovery dump from lsqr_solve continues bit-for-bit --
    through ``lsqr_solve(resume_from=)`` and stepped by hand."""
    path = tmp_path / "solve_ckpt.npz"
    full = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    lsqr_solve(small_system, atol=1e-12, btol=1e-12, iter_lim=9,
               checkpoint_every=3, checkpoint_path=path)
    state = EngineState.load(path)
    assert state.itn == 9 and not state.done
    resumed = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                         resume_from=path)
    assert resumed.itn == full.itn and resumed.istop == full.istop
    assert resumed.acond == full.acond
    assert np.array_equal(resumed.x, full.x)
    assert np.array_equal(resumed.var, full.var)

    op, scaling = prepare(small_system)
    engine = LSQRStepEngine(op, atol=1e-12, btol=1e-12)
    while not state.done:
        engine.step(state)
    assert state.itn == full.itn
    assert np.array_equal(scaling.to_physical(state.x), full.x)


def test_resumable_reports_full_stop_reason(small_system, tmp_path):
    """The archive of a finished solve carries its ``StopReason``."""
    path = tmp_path / "done.npz"
    ref = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                     checkpoint_every=50, checkpoint_path=path)
    state = EngineState.load(path)
    assert state.done
    assert state.istop in (StopReason.LSQ_ATOL, StopReason.ATOL_BTOL)
    assert state.istop == ref.istop and state.itn == ref.itn


def test_final_checkpoint_is_written_once(small_system, tmp_path,
                                         saved_itns):
    """A run ending on a checkpoint iteration does not write the same
    state twice; one ending between two still gets its final dump."""
    path = tmp_path / "ckpt.npz"
    lsqr_solve(small_system, atol=0.0, btol=0.0, iter_lim=10,
               checkpoint_every=5, checkpoint_path=path)
    assert saved_itns == [5, 10]
    saved_itns.clear()
    lsqr_solve(small_system, atol=0.0, btol=0.0, iter_lim=12,
               checkpoint_every=5, checkpoint_path=path)
    assert saved_itns == [5, 10, 12]
    saved_itns.clear()
    DistributedLSQR(small_system, 2).solve(
        atol=0.0, iter_lim=10, checkpoint_every=5, checkpoint_path=path)
    assert saved_itns == [5, 10]  # rank 0 alone writes, once per checkpoint


def test_failed_save_keeps_the_previous_archive(small_system, tmp_path,
                                                monkeypatch):
    """``save`` writes a temporary sibling and moves it into place: a
    write that dies halfway leaves the old archive loadable and no
    debris next to it."""
    engine, _ = _engine_for(small_system)
    state = engine.start(small_system.rhs().astype(np.float64))
    engine.step(state)
    path = state.save(tmp_path / "park.npz")
    engine.step(state)

    real = np.savez_compressed

    def dies_halfway(file, **arrays):
        real(file, **arrays)
        file.truncate(file.tell() // 2)
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", dies_halfway)
    with pytest.raises(OSError, match="disk full"):
        state.save(path)
    monkeypatch.undo()
    assert EngineState.load(path).itn == 1
    assert [p.name for p in tmp_path.iterdir()] == ["park.npz"]


# ----------------------------------------------------------------------
# Backend pluggability
# ----------------------------------------------------------------------
class CountingReduction(SerialReduction):
    """Serial semantics, counting epochs: a minimal custom backend."""

    def __init__(self):
        self.epochs = []

    def norm_sq(self, u_local, *, epoch):
        self.epochs.append(("norm", epoch))
        return super().norm_sq(u_local, epoch=epoch)

    def accumulate_atu(self, op, u_local, v, *, epoch):
        self.epochs.append(("atu", epoch))
        super().accumulate_atu(op, u_local, v, epoch=epoch)


def test_custom_backend_plugs_in(small_system):
    backend = CountingReduction()
    op = AprodOperator(small_system)
    scaling = ColumnScaling.from_operator(op)
    engine = LSQRStepEngine(PreconditionedAprod(op, scaling),
                            backend=backend, atol=1e-12, btol=1e-12)
    state = engine.start(small_system.rhs().astype(np.float64))
    for _ in range(5):
        engine.step(state)
    # Two reductions at init, then exactly two per iteration — the
    # production communication pattern, backend-agnostic.
    assert backend.epochs[:2] == [("norm", "init"), ("atu", "init")]
    per_iter = backend.epochs[2:]
    assert per_iter == [("norm", "normalize"), ("atu", "aprod2")] * 5
    ref = lsqr_solve(small_system, atol=1e-12, btol=1e-12, iter_lim=5)
    assert np.array_equal(scaling.to_physical(state.x), ref.x)


def test_engine_validation():
    class Dummy:
        shape = (4, 2)

        def aprod1(self, x, out=None):  # pragma: no cover
            raise NotImplementedError

        def aprod2(self, y, out=None):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ValueError, match="damp"):
        LSQRStepEngine(Dummy(), damp=-1.0)
    with pytest.raises(ValueError, match="atol"):
        LSQRStepEngine(Dummy(), atol=-1.0)


def test_step_on_done_state_is_noop(small_system):
    engine, _ = _engine_for(small_system, atol=1e-10, btol=1e-10)
    state = engine.start(np.zeros(small_system.n_rows))
    assert state.istop is StopReason.X_ZERO
    before = state.x.copy()
    engine.step(state)
    assert state.itn == 0
    assert np.array_equal(state.x, before)


def test_a_poisoned_serial_state_keeps_running(small_system):
    """The non-finite guard is the batched engine's alone: a serial (or
    SPMD) step never stops itself on a NaN -- it leaves the poisoned
    state for the recovery driver's validate-and-roll-back to find."""
    engine, _ = _engine_for(small_system, atol=1e-10, btol=1e-10)
    state = engine.start(small_system.rhs().astype(np.float64))
    for _ in range(3):
        engine.step(state)
    state.u[0] = np.nan
    for _ in range(3):
        engine.step(state)
    assert state.istop is None and state.itn == 6
    assert not state.is_finite


# ----------------------------------------------------------------------
# Telemetry fallback helper
# ----------------------------------------------------------------------
def test_telemetry_or_null():
    tel = Telemetry()
    assert Telemetry.or_null(tel) is tel
    assert Telemetry.or_null(None) is NULL_TELEMETRY
    assert Telemetry.or_null(NULL_TELEMETRY) is NULL_TELEMETRY
