"""Tests for solvergaia_sim, the Fig. 6 scatter tooling and the AGIS
cross-check."""

import numpy as np
import pytest

from repro.core.lsqr import lsqr_solve
from repro.frameworks.registry import port_by_key
from repro.gpu.platforms import H100
from repro.solver_sim import (
    _check_solutions_agree,
    compare_frameworks,
    solvergaia_sim,
)
from repro.validation.agis import agis_like_solution, compare_with_agis
from repro.validation.compare import solve_as_port, solve_production_reference
from repro.validation.fig6 import (
    ascii_scatter,
    fig6_scatter,
    render_fig6,
    save_fig6_data,
)


# ----------------------------------------------------------------------
# solvergaia_sim
# ----------------------------------------------------------------------
def test_simulate_supported_run():
    r = solvergaia_sim(10.0, "HIP", "H100", seed=1)
    assert r.supported
    assert r.mean_iteration_time > 0
    assert r.numerics.converged
    assert "solvergaiaSim" in r.report()
    assert "modeled mean iteration time" in r.report()


def test_simulate_unsupported_run():
    r = solvergaia_sim(10.0, "CUDA", "MI250X")
    assert not r.supported
    assert "EXCLUDED" in r.report()


def test_simulate_numerics_twin_is_scaled():
    r = solvergaia_sim(10.0, "CUDA", "H100")
    # The numerical twin stays small even for a 10 GB request.
    assert r.numerics.n < 100_000


def test_simulate_small_problem_runs_at_full_size():
    r = solvergaia_sim(0.001, "CUDA", "H100")
    assert r.supported
    assert r.numerics.converged


def test_compare_frameworks_agree():
    results = compare_frameworks(10.0, "H100", seed=2)
    assert _check_solutions_agree(results)
    assert results["CUDA"].supported
    # The modeled ordering holds in the simulated runs too.
    assert results["CUDA"].mean_iteration_time < (
        results["PSTL+V"].mean_iteration_time
    )


def test_simulate_deterministic():
    a = solvergaia_sim(1.0, "HIP", "A100", seed=5)
    b = solvergaia_sim(1.0, "HIP", "A100", seed=5)
    assert a.mean_iteration_time == b.mean_iteration_time
    assert np.array_equal(a.numerics.x, b.numerics.x)


# ----------------------------------------------------------------------
# Fig. 6 scatter tooling
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scatter(noglob_system):
    ref = solve_production_reference(noglob_system)
    cand = solve_as_port(noglob_system, port_by_key("HIP"), H100)
    return fig6_scatter(ref, cand, noglob_system.dims)


def test_scatter_correlations_are_unity(scatter):
    assert scatter.solution_correlation == pytest.approx(1.0, abs=1e-9)
    assert scatter.se_correlation == pytest.approx(1.0, abs=1e-6)


def test_scatter_arrays_cover_astro_section(scatter, noglob_system):
    n_astro = noglob_system.dims.n_astro_params
    assert scatter.x_ref.shape == (n_astro,)
    assert scatter.se_cand.shape == (n_astro,)


def test_ascii_scatter_marks_one_to_one(scatter):
    text = ascii_scatter(scatter.x_ref, scatter.x_cand, title="t")
    assert text.splitlines()[0] == "t"
    # A correct port puts every marker on the diagonal (check the plot
    # rows only -- the legend line mentions the 'o' marker).
    grid_rows = [l for l in text.splitlines() if l.startswith("|")]
    assert any("*" in row for row in grid_rows)
    assert not any("o" in row for row in grid_rows)
    assert "one-to-one" in text


def test_ascii_scatter_detects_off_diagonal():
    x = np.linspace(0, 1, 50)
    text = ascii_scatter(x, 1.0 - x)  # anti-correlated
    assert "o" in text


def test_ascii_scatter_validation():
    with pytest.raises(ValueError):
        ascii_scatter(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        ascii_scatter(np.zeros(0), np.zeros(0))


def test_render_and_save_fig6(scatter, tmp_path):
    text = render_fig6(scatter)
    assert "Fig. 6a" in text and "Fig. 6b" in text
    assert "correlation" in text
    path = save_fig6_data(scatter, tmp_path / "fig6")
    assert path.suffix == ".npz"
    with np.load(path) as z:
        assert np.array_equal(z["x_ref"], scatter.x_ref)
        assert bytes(z["candidate_label"]).decode().startswith("HIP")


# ----------------------------------------------------------------------
# AGIS cross-check
# ----------------------------------------------------------------------
def test_agis_matches_lsqr(small_system):
    gsr = lsqr_solve(small_system, atol=1e-13, btol=1e-13)
    comparison = compare_with_agis(small_system, gsr.x, tol_rad=1e-12)
    assert comparison.frac_within_tol == 1.0
    assert comparison.rms_diff_astro < 1e-14
    assert comparison.passed(1e-10)


def test_agis_solution_solves_normal_equations(small_system):
    from repro.core.aprod import AprodOperator

    x, _ = agis_like_solution(small_system)
    op = AprodOperator(small_system)
    grad = op.aprod2(small_system.rhs() - op.aprod1(x))
    # At the LS optimum the gradient A^T r vanishes.
    bnorm = np.linalg.norm(small_system.rhs())
    assert np.linalg.norm(grad) < 1e-9 * bnorm


def test_agis_detects_wrong_solution(small_system):
    gsr = lsqr_solve(small_system, atol=1e-13, btol=1e-13)
    comparison = compare_with_agis(small_system, gsr.x * 1.5,
                                   tol_rad=1e-12)
    assert not comparison.passed(1e-10)
