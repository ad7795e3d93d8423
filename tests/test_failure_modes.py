"""Failure-injection tests: degenerate inputs and broken states."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cgls import cgls_solve
from repro.core.engine import StopReason
from repro.core.lsqr import lsqr_solve
from repro.system.generator import make_system
from repro.system.structure import SystemDims


@pytest.fixture()
def rank_deficient_system(small_dims):
    """Duplicate one star's role: zero out another star's coefficients
    so its five columns are exactly zero (a rank-deficient design)."""
    system = make_system(small_dims, seed=31, noise_sigma=0.0,
                         with_constraints=False)
    values = system.astro_values.copy()
    values[system.star_ids == 3] = 0.0  # star 3 observed but blind
    return replace(system, astro_values=values)


def test_zero_columns_survive_preconditioning(rank_deficient_system):
    """Zero-norm columns get scale 1 (not a division by zero) and the
    solve completes with the minimum-norm behaviour of LSQR: the dead
    parameters stay ~0."""
    res = lsqr_solve(rank_deficient_system, atol=1e-10, btol=1e-10)
    dead = slice(3 * 5, 4 * 5)
    live = np.abs(res.x[:15])
    assert np.all(np.abs(res.x[dead]) <= 1e-12 * max(live.max(), 1e-300))
    assert np.all(np.isfinite(res.x))


def test_cgls_on_rank_deficient(rank_deficient_system):
    res = cgls_solve(rank_deficient_system, atol=1e-10)
    assert np.all(np.isfinite(res.x))


def test_conlim_stop_on_near_singular(small_dims):
    """A nearly dependent column pair trips the condition-limit stop
    instead of looping forever."""
    system = make_system(small_dims, seed=32, noise_sigma=1e-12)
    values = system.att_values.copy()
    # Make two attitude columns nearly collinear via their rows.
    values[:, 1] = values[:, 0] * (1 + 1e-13)
    broken = replace(system, att_values=values)
    res = lsqr_solve(broken, atol=0.0, btol=0.0, conlim=1e6,
                     iter_lim=5000)
    assert res.istop in (StopReason.CONLIM_WARN, StopReason.CONLIM_EPS,
                         StopReason.ITERATION_LIMIT,
                         StopReason.LSQ_EPS, StopReason.ATOL_EPS)
    assert np.all(np.isfinite(res.x))


def test_single_star_system_solves():
    dims = SystemDims(n_stars=1, n_obs=40, n_deg_freedom_att=4,
                      n_instr_params=6, n_glob_params=0)
    system = make_system(dims, seed=1)
    res = lsqr_solve(system, atol=1e-12, btol=1e-12)
    assert res.converged


def test_minimum_attitude_dof():
    """dof == block size: every row touches the same four knots."""
    dims = SystemDims(n_stars=5, n_obs=100, n_deg_freedom_att=4,
                      n_instr_params=6, n_glob_params=1)
    system = make_system(dims, seed=2)
    assert np.all(system.matrix_index_att == 0)
    res = lsqr_solve(system, atol=1e-10, btol=1e-10)
    assert np.all(np.isfinite(res.x))


def test_study_excludes_never_crash():
    """A device too small for every size yields exclusions, not
    errors, and P stays well defined for the rest."""
    import dataclasses

    from repro.gpu.platforms import T4
    from repro.portability.study import run_study

    tiny = dataclasses.replace(T4, name="TinyGPU", memory_gb=1.0)
    study = run_study(sizes=(10.0,), devices=(T4, tiny),
                      jitter=0.0, repetitions=1)
    # The undersized board drops out of the platform set entirely.
    assert study.platforms(10.0) == ("T4",)
    run = study.runs[10.0]["CUDA"]["TinyGPU"]
    assert run.excluded_reason and "out of memory" in run.excluded_reason
    p = study.p_scores(10.0)
    assert p["CUDA"] == 1.0  # fastest (and only measured) on bare T4
    assert 0 < p["HIP"] <= 1


def test_comm_timeout_on_missing_message():
    import queue

    from repro.dist.comm import CollectiveBus

    def body(comm):
        if comm.rank == 0:
            with pytest.raises(queue.Empty):
                comm.recv(source=1, timeout=0.05)
        return True

    assert CollectiveBus(2).run(body) == [True, True]


def test_weighted_system_with_all_zero_weights(small_system):
    """Zeroing every observation row (all weights zero) leaves only the
    constraint rows; the solve returns the constraint-consistent zero
    solution."""
    import dataclasses

    weighted = dataclasses.replace(
        small_system,
        astro_values=np.zeros_like(small_system.astro_values),
        att_values=np.zeros_like(small_system.att_values),
        instr_values=np.zeros_like(small_system.instr_values),
        glob_values=np.zeros_like(small_system.glob_values),
        known_terms=np.zeros_like(small_system.known_terms),
    )
    res = lsqr_solve(weighted, atol=1e-10, btol=1e-10)
    assert np.all(np.isfinite(res.x))
    assert np.linalg.norm(res.x) < 1e-6


def test_profiler_handles_unknown_board_energy():
    """Energy lookups for off-roster boards fail loudly, not with a
    silent wrong wattage."""
    import dataclasses

    from repro.gpu.energy import board_power
    from repro.gpu.platforms import H100

    with pytest.raises(KeyError):
        board_power(dataclasses.replace(H100, name="H200"))
