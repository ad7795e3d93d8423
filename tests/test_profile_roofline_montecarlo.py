"""Tests for comm profiling, the roofline report and the Monte Carlo
standard-error validation."""

import numpy as np
import pytest

from repro.dist.profile import (
    profile_distributed_solve,
    CommProfile,
    _payload_bytes,
)
from repro.gpu.platforms import ALL_DEVICES, H100, T4
from repro.gpu.roofline import roofline_report
from repro.system.sizing import dims_from_gb
from repro.system.structure import SystemDims
from repro.validation.montecarlo import run_monte_carlo


# ----------------------------------------------------------------------
# Communication profiling
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def comm_report(small_system):
    return profile_distributed_solve(small_system, 3, atol=1e-10)


def test_three_allreduces_per_iteration(comm_report):
    """The solver's communication pattern: per iteration one norm
    reduction, one dense A^T u reduction, one timing max."""
    assert comm_report.allreduce_calls_per_iteration == pytest.approx(
        3.0, abs=0.1
    )


def test_dense_reduction_dominates_traffic(comm_report):
    """Nearly all bytes live in the dense unknown-space allreduce."""
    assert comm_report.dense_fraction > 0.95


def test_profile_summary_renders(comm_report):
    text = comm_report.profile.summary()
    assert "allreduce[sum]" in text
    assert "total" in text


def test_profiled_solve_matches_unprofiled(small_system):
    from repro.dist.runner import distributed_lsqr_solve

    plain = distributed_lsqr_solve(small_system, 3, atol=1e-10)
    profiled = profile_distributed_solve(small_system, 3, atol=1e-10)
    assert profiled.itn == plain.itn


def test_payload_accounting():
    assert _payload_bytes(np.zeros(10)) == 80
    assert _payload_bytes(3.14) == 8
    assert _payload_bytes([np.zeros(2), 1.0]) == 24
    assert _payload_bytes("string") == 0
    profile = CommProfile()
    profile.record("allreduce[sum]", np.zeros(4))
    profile.record("allreduce[sum]", np.zeros(4))
    assert profile.calls["allreduce[sum]"] == 2
    assert profile.bytes_sent["allreduce[sum]"] == 64


# ----------------------------------------------------------------------
# Roofline
# ----------------------------------------------------------------------
def test_all_kernels_memory_bound_everywhere():
    """SSVI: 'a well-known, highly memory-bound operation' -- on every
    platform of the study."""
    dims = dims_from_gb(10.0)
    for device in ALL_DEVICES:
        report = roofline_report(device, dims)
        assert report.all_memory_bound, device.name


def test_roofline_intensities_are_tiny():
    report = roofline_report(H100, dims_from_gb(10.0))
    for p in report.points:
        assert p.arithmetic_intensity < 0.5
        assert p.arithmetic_intensity < 0.05 * p.ridge_point


def test_attainable_performance_is_bandwidth_limited():
    report = roofline_report(H100, dims_from_gb(10.0))
    by_name = {p.kernel: p for p in report.points}
    att = by_name["aprod1_att"]
    assert att.attainable_tflops == pytest.approx(
        att.arithmetic_intensity * H100.peak_bandwidth_bytes / 1e12
    )
    assert att.attainable_tflops < 0.05 * H100.fp64_tflops


def test_ridge_point_scales_with_device():
    dims = dims_from_gb(10.0)
    # T4 has weak FP64: its ridge sits far left of H100's.
    assert (roofline_report(T4, dims).points[0].ridge_point
            < roofline_report(H100, dims).points[0].ridge_point)


def test_roofline_summary_renders():
    text = roofline_report(H100, dims_from_gb(10.0)).summary()
    assert "ridge" in text and "aprod2_att" in text and "memory" in text


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mc_result():
    dims = SystemDims(n_stars=12, n_obs=360, n_deg_freedom_att=8,
                      n_instr_params=12, n_glob_params=1)
    return run_monte_carlo(dims, n_realizations=25, noise_sigma=1e-9,
                           seed=7)


def test_estimator_is_calibrated_within_band(mc_result):
    """LSQR's truncated var underestimates but stays within a usable
    factor of the empirical scatter."""
    assert mc_result.calibrated()
    assert 0.3 < mc_result.median_se_ratio < 1.2


def test_pulls_have_unit_order_scale(mc_result):
    # Underestimated se inflates pulls; they must stay O(1), not O(10).
    assert 0.5 < mc_result.pull_std < 4.0


@pytest.fixture(scope="module")
def mc_0002():
    """25 noise draws of a 0.002 GB system (1 879 unknowns)."""
    return run_monte_carlo(dims_from_gb(0.002), n_realizations=25,
                           noise_sigma=1e-9, seed=7)


def test_exact_standard_errors_are_calibrated(mc_0002):
    """The star elimination's exact variances give standard errors at
    the empirical scatter of the solutions."""
    assert 0.9 <= mc_0002.median_exact_ratio <= 1.1


def test_lsqr_standard_errors_are_truncated_at_0002gb(mc_0002):
    """LSQR's var stops after ~60 of 1 879 Krylov directions and stays a
    lower bound: its standard errors sit well below the scatter (0.15x
    measured) -- the defect the exact variances document."""
    assert mc_0002.median_se_ratio < 0.5
    assert mc_0002.median_se_ratio < 0.5 * mc_0002.median_exact_ratio


def test_empirical_scatter_tracks_noise_level():
    dims = SystemDims(n_stars=12, n_obs=360, n_deg_freedom_att=8,
                      n_instr_params=12, n_glob_params=1)
    lo = run_monte_carlo(dims, n_realizations=12, noise_sigma=1e-10,
                         seed=3)
    hi = run_monte_carlo(dims, n_realizations=12, noise_sigma=1e-8,
                         seed=3)
    assert (np.median(hi.empirical_sigma)
            > 10 * np.median(lo.empirical_sigma))


def test_monte_carlo_validation():
    dims = SystemDims(n_stars=5, n_obs=100, n_deg_freedom_att=8,
                      n_instr_params=10)
    with pytest.raises(ValueError):
        run_monte_carlo(dims, n_realizations=2)
    with pytest.raises(ValueError):
        run_monte_carlo(dims, noise_sigma=0.0)
