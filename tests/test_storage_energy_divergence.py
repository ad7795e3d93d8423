"""Tests for the storage ablation, energy model and code divergence."""

import numpy as np
import pytest

from repro.frameworks.registry import port_by_key, ALL_PORTS
from repro.gpu.device import DeviceSpec, Vendor
from repro.gpu.energy import (
    BOARD_TDP_W,
    energy_efficiency_table,
    energy_per_iteration,
    board_power,
)
from repro.gpu.platforms import ALL_DEVICES, H100, MI250X, T4
from repro.portability.divergence import (
    code_divergence,
    jaccard_distance,
    navigation_chart,
    port_source_descriptor,
)
from repro.system.sizing import dims_from_gb
from repro.system.storage import mission_dims, storage_comparison


# ----------------------------------------------------------------------
# Storage schemes (E22)
# ----------------------------------------------------------------------
def test_mission_scale_matches_paper_footprints():
    """SSIII-B: 'A, b and x occupy ~19 TB, ~800 GB and ~4 GB' and the
    reduction vs dense is 'seven orders of magnitude'."""
    dims = mission_dims()
    fp = storage_comparison(dims)
    # Custom storage of A lands at the paper's ~19-21 TB.
    assert 15 * 2**40 < fp.custom_bytes < 25 * 2**40
    # b: one float64 per row ~ 800 GB (paper uses 10^11 rows).
    assert 8 * dims.n_obs == pytest.approx(800e9, rel=0.2)
    # x: one float64 per unknown ~ 4 GB.
    assert 8 * dims.n_params == pytest.approx(4e9, rel=0.2)
    # Seven orders of magnitude vs dense.
    assert 1e7 <= fp.reduction_vs_dense() < 1e8


def test_custom_beats_generic_sparse_formats():
    for dims in (dims_from_gb(30.0), dims_from_gb(60.0), mission_dims()):
        fp = storage_comparison(dims)
        assert fp.custom_bytes < fp.csr_bytes < fp.coo_bytes
    fp = storage_comparison(dims_from_gb(10.0))
    assert fp.custom_bytes < fp.csr_bytes < fp.coo_bytes < fp.dense_bytes
    # The structure encodes 16 of 24 column indices for free.
    assert fp.reduction_vs_csr() == pytest.approx(1.28, abs=0.05)


def test_storage_summary_renders():
    text = storage_comparison(dims_from_gb(10.0)).summary()
    assert "custom" in text and "CSR" in text and "dense" in text


def test_custom_bytes_matches_sizing_accounting():
    from repro.system.sizing import BYTES_PER_OBSERVATION

    dims = dims_from_gb(10.0)
    fp = storage_comparison(dims)
    # sizing counts the known term too; storage counts the matrix only.
    assert fp.custom_bytes == dims.n_obs * (BYTES_PER_OBSERVATION - 8)


# ----------------------------------------------------------------------
# Energy (E23)
# ----------------------------------------------------------------------
def test_energy_estimates_positive_and_consistent():
    dims = dims_from_gb(10.0)
    est = energy_per_iteration(port_by_key("HIP"), H100, dims,
                               size_gb=10.0)
    assert est.board_power_w == BOARD_TDP_W["H100"]
    assert est.joules_per_iteration == pytest.approx(
        est.iteration_time_s * 700.0
    )
    assert est.iterations_per_kilojoule > 0


def test_energy_table_skips_unsupported():
    dims = dims_from_gb(10.0)
    table = energy_efficiency_table(port_by_key("CUDA"),
                                    tuple(ALL_DEVICES), dims,
                                    size_gb=10.0)
    assert "MI250X" not in table
    assert set(table) == {"T4", "V100", "A100", "H100"}


def test_low_power_t4_wins_iterations_per_joule():
    """The green-computing angle: the slowest board is the most
    energy-frugal per iteration for the memory-bound solver."""
    dims = dims_from_gb(10.0)
    table = energy_efficiency_table(port_by_key("HIP"),
                                    tuple(ALL_DEVICES), dims,
                                    size_gb=10.0)
    per_kj = {k: v.iterations_per_kilojoule for k, v in table.items()}
    assert per_kj["T4"] == max(per_kj.values())
    assert per_kj["MI250X"] == min(per_kj.values())
    # H100 is both faster and more frugal than A100.
    assert table["H100"].iteration_time_s < table["A100"].iteration_time_s
    assert per_kj["H100"] > per_kj["A100"]
    # The TDP table covers every platform of the study.
    assert set(BOARD_TDP_W) == {d.name for d in ALL_DEVICES}


def test_unknown_board_rejected():
    fake = DeviceSpec(
        name="B200", vendor=Vendor.NVIDIA, memory_gb=192,
        mem_bandwidth_gbs=8000, fp64_tflops=40, sm_count=160,
        warp_size=32, stream_efficiency=0.9,
        random_transaction_bytes=32, launch_overhead_us=3,
        atomic_gups=20, cas_loop_factor=3,
        optimal_threads_per_block=256, geometry_sensitivity=0.05,
        h2d_bandwidth_gbs=64,
    )
    with pytest.raises(KeyError, match="B200"):
        board_power(fake)


# ----------------------------------------------------------------------
# Code divergence (E24)
# ----------------------------------------------------------------------
def test_jaccard_distance_basics():
    a = frozenset({"x", "y"})
    assert jaccard_distance(a, a) == 0.0
    assert jaccard_distance(a, frozenset()) == 1.0
    assert jaccard_distance(frozenset(), frozenset()) == 0.0
    assert jaccard_distance(a, frozenset({"y", "z"})) == pytest.approx(
        2 / 3
    )


def test_single_vendor_port_has_zero_divergence():
    assert code_divergence(port_by_key("CUDA"), tuple(ALL_DEVICES)) == 0.0
    # Any port restricted to one vendor's devices is single-source.
    assert code_divergence(port_by_key("HIP"), (T4, H100)) == 0.0


def test_hip_is_the_low_divergence_cross_vendor_port():
    """HIP: one source, one compiler, near-identical flags."""
    cds = {port.key: code_divergence(port, tuple(ALL_DEVICES))
           for port in ALL_PORTS}
    cross = {k: v for k, v in cds.items() if k != "CUDA"}
    assert min(cross, key=cross.get) == "HIP"
    # Vendor-compiler mixtures pay more maintenance.
    assert cds["PSTL+V"] > cds["HIP"]
    assert cds["OMP+V"] > cds["HIP"]
    assert cds["PSTL+V"] > cds["PSTL+ACPP"]
    assert all(0 <= v <= 1 for v in cds.values())


def test_descriptor_contains_framework_markers():
    d = port_source_descriptor(port_by_key("HIP"), Vendor.AMD)
    assert "hipMemAdvise" in d
    assert "-munsafe-fp-atomics" in d
    with pytest.raises(ValueError):
        port_source_descriptor(port_by_key("CUDA"), Vendor.AMD)


def test_navigation_chart_identifies_hip_as_unicorn():
    from repro.portability.study import run_study

    study = run_study(sizes=(10.0,), jitter=0.0, repetitions=1)
    chart = navigation_chart(tuple(ALL_PORTS), tuple(ALL_DEVICES),
                             study.p_scores(10.0))
    by_key = {pt.port_key: pt for pt in chart}
    assert by_key["HIP"].unicorn
    assert not by_key["CUDA"].unicorn  # P = 0 despite zero divergence
    assert not by_key["PSTL+V"].unicorn
