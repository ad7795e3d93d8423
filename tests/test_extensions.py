"""Tests for the extension features: warm start, executors-future
port, architectural efficiency, exporters, row-blocked kernels."""

import numpy as np
import pytest

from repro.core.lsqr import lsqr_solve
from repro.frameworks.executors_future import PSTL_EXECUTORS
from repro.frameworks.registry import port_by_key, ALL_PORTS
from repro.gpu.platforms import ALL_DEVICES, H100, MI250X, T4
from repro.portability.arch import (
    architectural_efficiency,
    architectural_p,
    iteration_bytes,
)
from repro.portability.export import (
    read_measurements_csv,
    study_records,
    write_csv,
    write_json,
)
from repro.portability.study import run_study
from repro.system.sizing import dims_from_gb


# ----------------------------------------------------------------------
# Warm start
# ----------------------------------------------------------------------
def test_warm_start_converges_faster(small_system):
    cold = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    warm = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                      x0=cold.x * (1 + 1e-7))
    assert warm.itn < cold.itn
    assert np.allclose(warm.x, cold.x, rtol=1e-9)


def test_warm_start_from_exact_solution_keeps_it(small_dims):
    """Starting at the exact solution, the computed correction is
    negligible: LSQR works on the shifted problem b - A x0 ~ rounding
    noise and whatever it resolves there cannot move x."""
    from repro.system.generator import make_system_with_solution

    system, x_true = make_system_with_solution(small_dims, seed=8,
                                               noise_sigma=0.0)
    warm = lsqr_solve(system, atol=1e-10, btol=1e-10, x0=x_true)
    dx = np.linalg.norm(warm.x - x_true) / np.linalg.norm(x_true)
    assert dx < 1e-9
    # The shifted right-hand side is pure floating-point residue.
    assert warm.r2norm < 1e-12 * np.linalg.norm(system.rhs())


def test_warm_start_zero_equals_cold(small_system):
    cold = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    zero = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                      x0=np.zeros(small_system.dims.n_params))
    assert np.allclose(cold.x, zero.x, rtol=1e-12, atol=1e-18)


def test_warm_start_validation(small_system):
    with pytest.raises(ValueError, match="x0"):
        lsqr_solve(small_system, x0=np.zeros(3))
    bad = np.zeros(small_system.dims.n_params)
    bad[0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        lsqr_solve(small_system, x0=bad)


def test_warm_start_callback_reports_total_solution(small_system):
    cold = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    seen = []
    lsqr_solve(small_system, iter_lim=1, atol=0.0, btol=0.0,
               x0=cold.x, callback=lambda i, x, r: seen.append(x.copy()))
    # After one correction step from the solution, the reported x must
    # still be near the solution, not near zero.
    assert np.linalg.norm(seen[0] - cold.x) < 1e-6 * np.linalg.norm(cold.x)


# ----------------------------------------------------------------------
# Executors-future port (E19)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def exec_study():
    return run_study(ports=tuple(ALL_PORTS) + (PSTL_EXECUTORS,),
                     jitter=0.0, repetitions=1)


def test_executors_close_the_pstl_gap(exec_study):
    """SSVI: executors 'will potentially allow to set explicit kernel
    parameters and, hence, reduce the observed performance gap'."""
    for size in (10.0, 30.0, 60.0):
        p = exec_study.p_scores(size)
        assert p["PSTL+EXEC"] > p["PSTL+V"] + 0.1, size
    avg_exec = exec_study.average_p("PSTL+EXEC")
    avg_pstl = exec_study.average_p("PSTL+V")
    avg_hip = exec_study.average_p("HIP")
    assert avg_exec > avg_pstl + 0.15
    assert avg_exec == pytest.approx(0.80, abs=0.08)
    # Executors close most -- but not all -- of the gap to the
    # language-level champions.
    assert avg_hip - avg_exec < 0.55 * (avg_hip - avg_pstl)
    assert avg_exec < avg_hip
    # The lift concentrates where the paper located the gap: the
    # geometry-sensitive T4/V100 and the 64-wide MI250X; on H100
    # (optimum already 256) the change is small.
    eff = exec_study.efficiencies(10.0)
    for platform in ("T4", "V100", "MI250X"):
        assert (eff["PSTL+EXEC"][platform]
                > eff["PSTL+V"][platform] + 0.15), platform
    assert abs(eff["PSTL+EXEC"]["H100"] - eff["PSTL+V"]["H100"]) < 0.1


def test_executors_geometry_is_tuned():
    assert PSTL_EXECUTORS.geometry(T4, 10**6).threads_per_block == 32
    assert PSTL_EXECUTORS.geometry(H100, 10**6).threads_per_block == 256
    assert port_by_key("PSTL+V").geometry(T4, 10**6).threads_per_block \
        == 256


# ----------------------------------------------------------------------
# Architectural efficiency
# ----------------------------------------------------------------------
def test_architectural_efficiency_in_unit_interval():
    """Scatter/atomic-heavy kernels run far from peak everywhere: the
    memory-bound story of SSVI."""
    dims = dims_from_gb(10.0)
    for device in ALL_DEVICES:
        for port in ALL_PORTS:
            if not port.supports(device):
                continue
            e = architectural_efficiency(port, device, dims, size_gb=10.0)
            assert 0 < e < 0.5, (port.key, device.name)


def test_architectural_p_zero_when_unsupported():
    dims = dims_from_gb(10.0)
    assert architectural_p(port_by_key("CUDA"), tuple(ALL_DEVICES),
                           dims, size_gb=10.0) == 0.0
    p = architectural_p(port_by_key("HIP"), tuple(ALL_DEVICES), dims,
                        size_gb=10.0)
    assert 0 < p < 1
    assert p > architectural_p(port_by_key("PSTL+V"), tuple(ALL_DEVICES),
                               dims, size_gb=10.0)


def test_architectural_ranks_match_application_ranks():
    """Faster port => higher architectural efficiency on one device."""
    dims = dims_from_gb(10.0)
    e_hip = architectural_efficiency(port_by_key("HIP"), MI250X, dims,
                                     size_gb=10.0)
    e_cas = architectural_efficiency(port_by_key("OMP+LLVM"), MI250X,
                                     dims, size_gb=10.0)
    assert e_hip > 5 * e_cas


def test_iteration_bytes_scales_with_problem():
    assert iteration_bytes(dims_from_gb(20.0)) == pytest.approx(
        2 * iteration_bytes(dims_from_gb(10.0)), rel=0.01
    )


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mini_study():
    return run_study(sizes=(10.0,), jitter=0.0, repetitions=1)


def test_study_records_cover_full_matrix(mini_study):
    records = study_records(mini_study)
    assert len(records) == 8 * 5  # ports x devices, one size
    cuda_mi = next(r for r in records
                   if r["port"] == "CUDA" and r["platform"] == "MI250X")
    assert cuda_mi["iteration_time_s"] is None
    assert "unsupported" in cuda_mi["excluded_reason"]


def test_csv_roundtrip(mini_study, tmp_path):
    path = write_csv(mini_study, tmp_path / "study.csv")
    back = read_measurements_csv(path)
    records = study_records(mini_study)
    assert len(back) == len(records)
    for orig, echoed in zip(records, back):
        assert echoed["port"] == orig["port"]
        assert echoed["platform"] == orig["platform"]
        if orig["iteration_time_s"] is None:
            assert echoed["iteration_time_s"] is None
        else:
            assert echoed["iteration_time_s"] == pytest.approx(
                orig["iteration_time_s"]
            )


def test_json_export(mini_study, tmp_path):
    import json

    path = write_json(mini_study, tmp_path / "study.json")
    doc = json.loads(path.read_text())
    assert doc["sizes_gb"] == [10.0]
    assert len(doc["measurements"]) == 40
    assert {r["port"] for r in doc["p_scores"]} == set(mini_study.port_keys)
    assert doc["average_p"]["CUDA"] == 0.0


# ----------------------------------------------------------------------
# Row-blocked (chunked) block kernels
# ----------------------------------------------------------------------
def test_chunked_strategies_agree(plan_system, rng):
    """The block kernels (the port emulation with the keyed scatter)
    walk 15 000 observations in two row blocks and agree with the
    compiled plan."""
    from repro.core.aprod import AprodOperator
    from repro.validation.compare import PortOperator

    x = rng.normal(size=plan_system.dims.n_params)
    y = rng.normal(size=plan_system.n_rows)
    compiled = AprodOperator(plan_system)
    blocks = PortOperator(plan_system, atomic=False, star_sorted=False)
    assert compiled.plan is not None and blocks.plan is None
    assert np.allclose(blocks.aprod1(x), compiled.aprod1(x), rtol=1e-12)
    assert np.allclose(blocks.aprod2(y), compiled.aprod2(y), rtol=1e-11)


def test_chunked_crosses_chunk_boundary(rng):
    """Across a block boundary the row-blocked gather is bitwise the
    whole-array gather (rows are independent); the scatter adds one
    partial sum per block, within rounding of the whole-array one."""
    from repro.core.kernels import gather_scatter as gs

    m = gs.CHUNK_ROWS + 123
    values = rng.normal(size=(m, 3))
    cols = rng.integers(0, 50, size=(m, 3))
    x = rng.normal(size=50)
    y = rng.normal(size=m)
    out_g = np.zeros(m)
    gs.gather_dot(values, cols, x, out_g)
    assert np.array_equal(out_g, np.einsum("ij,ij->i", values, x[cols]))
    out_s = np.zeros(50)
    gs.scatter_add(values, cols, y, out_s)
    whole = np.bincount(cols.ravel(), weights=(values * y[:, None]).ravel(),
                        minlength=50)
    assert np.allclose(out_s, whole)
