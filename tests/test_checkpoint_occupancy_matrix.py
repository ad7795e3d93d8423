"""Tests for checkpoint/restart and the capability matrix."""

import numpy as np
import pytest

from repro.core.engine import EngineState, LSQRStepEngine
from repro.core.lsqr import lsqr_solve
from repro.core.precond import prepare
from repro.frameworks.port_matrix import capability_matrix, port_row
from repro.frameworks.registry import port_by_key


# ----------------------------------------------------------------------
# Checkpoint / restart
# ----------------------------------------------------------------------
class _Stepper:
    """``prepare`` + ``LSQRStepEngine``, stepped by hand."""

    def __init__(self, system, atol):
        self.system = system
        self.op, self.scaling = prepare(system)
        self.engine = LSQRStepEngine(self.op, atol=atol, btol=atol)

    def start(self):
        return self.engine.start(self.system.rhs().astype(np.float64))

    def step(self, state, max_steps):
        for _ in range(max_steps):
            if state.done:
                break
            self.engine.step(state)
        return state

    def run(self):
        return self.step(self.start(), 10_000)

    def solution(self, state):
        return self.scaling.to_physical(state.x)


@pytest.fixture(scope="module")
def resumable(small_system):
    return _Stepper(small_system, atol=1e-12)


def test_resumed_run_is_bitwise_identical(resumable, tmp_path):
    straight = resumable.run()
    state = resumable.start()
    state = resumable.step(state, 7)
    reloaded = EngineState.load(state.save(tmp_path / "ckpt"))
    resumed = resumable.step(reloaded, 10_000)
    assert resumed.itn == straight.itn
    assert np.array_equal(resumable.solution(resumed),
                          resumable.solution(straight))


def test_multiple_checkpoints_compose(resumable, tmp_path):
    straight = resumable.run()
    state = resumable.start()
    for k in range(5):
        state = resumable.step(state, 5)
        state = EngineState.load(state.save(tmp_path / f"c{k}"))
        if state.done:
            break
    state = resumable.step(state, 10_000)
    assert np.array_equal(resumable.solution(state),
                          resumable.solution(straight))


def test_matches_lsqr_solve(resumable, small_system):
    state = resumable.run()
    ref = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    x = resumable.solution(state)
    assert np.linalg.norm(x - ref.x) < 1e-9 * np.linalg.norm(ref.x)


def test_run_with_periodic_checkpointing(small_system, tmp_path):
    path = tmp_path / "periodic.npz"
    result = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                        checkpoint_every=10, checkpoint_path=path)
    assert result.converged
    on_disk = EngineState.load(path)
    assert on_disk.itn == result.itn  # final state persisted too
    assert on_disk.istop == result.istop


def test_step_on_done_state_is_noop(small_system, tmp_path):
    """Resuming a finished archive returns its result untouched."""
    path = tmp_path / "done.npz"
    done = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                      checkpoint_every=10, checkpoint_path=path)
    again = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                       resume_from=path)
    assert again.itn == done.itn and again.istop == done.istop
    assert not again.iteration_times
    assert np.array_equal(again.x, done.x)


def test_step_validation(small_system, tmp_path):
    """The resuming driver checks the archive against its system."""
    path = tmp_path / "other.npz"
    lsqr_solve(small_system, iter_lim=3, checkpoint_every=3,
               checkpoint_path=path)
    state = EngineState.load(path)
    state.u = state.u[:-1]
    with pytest.raises(ValueError, match="rows"):
        lsqr_solve(small_system, resume_from=state)
    state = EngineState.load(path)
    state.x = state.x[:-1]
    short = state.save(tmp_path / "short_x.npz")
    with pytest.raises(ValueError, match=str(short)):
        lsqr_solve(small_system, resume_from=short)


def test_iter_lim_respected(small_system, tmp_path):
    path = tmp_path / "lim.npz"
    result = lsqr_solve(small_system, atol=0.0, btol=0.0, iter_lim=5,
                        checkpoint_every=5, checkpoint_path=path)
    state = EngineState.load(path)
    assert result.itn == state.itn == 5 and not state.done


# ----------------------------------------------------------------------
# Capability matrix
# ----------------------------------------------------------------------
def test_port_rows():
    cuda = port_row(port_by_key("CUDA"))
    assert cuda["amd"] == "—"
    assert cuda["style"] == "language-specific"
    omp = port_row(port_by_key("OMP+LLVM"))
    assert omp["style"] == "directive-based"
    assert "CAS loop" in omp["amd"]
    pstl = port_row(port_by_key("PSTL+V"))
    assert pstl["style"] == "abstraction library"
    assert "fixed 256" in pstl["nvidia"]


def test_capability_matrix_renders_all_ports():
    text = capability_matrix()
    assert text.count("\n") == 9  # header + rule + 8 ports
    for key in ("CUDA", "HIP", "SYCL+ACPP", "PSTL+V"):
        assert f"| {key} |" in text
    assert "hand-tuned" in text and "compiler default" in text
