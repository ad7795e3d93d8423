"""Tests for CGLS, the chrome-trace timeline and the robustness sweeps."""

import json

import numpy as np
import pytest

from repro.core.aprod import AprodOperator
from repro.core.cgls import cgls_solve
from repro.core.lsqr import lsqr_solve
from repro.frameworks.registry import port_by_key
from repro.frameworks.sensitivity import (
    NEXTGEN_AMD,
    NEXTGEN_NVIDIA,
    PERTURBED_FIELDS,
    SensitivityOutcome,
    sensitivity_sweep,
    whatif_study,
)
from repro.gpu.platforms import H100, MI250X, T4
from repro.gpu.trace import trace_iteration
from repro.system.sizing import dims_from_gb


# ----------------------------------------------------------------------
# CGLS
# ----------------------------------------------------------------------
def test_cgls_matches_lsqr(small_system):
    l = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    c = cgls_solve(small_system, atol=1e-12)
    assert c.converged
    assert np.linalg.norm(c.x - l.x) < 1e-9 * np.linalg.norm(l.x)


def test_cgls_without_preconditioning(small_system):
    l = lsqr_solve(small_system, atol=1e-13, btol=1e-13,
                   precondition=False)
    c = cgls_solve(small_system, atol=1e-13, precondition=False)
    assert np.allclose(c.x, l.x, rtol=1e-7, atol=1e-14)


def test_cgls_shift_matches_lsqr_damp(small_system):
    damp = 0.7
    l = lsqr_solve(small_system, damp=damp, atol=1e-13, btol=1e-13,
                   precondition=False)
    c = cgls_solve(small_system, shift=damp**2, atol=1e-13,
                   precondition=False)
    assert np.allclose(c.x, l.x, rtol=1e-6, atol=1e-13)


def test_cgls_residual_history_monotone(small_system):
    c = cgls_solve(small_system, atol=1e-12)
    # CGLS's ||r|| is monotone for least-squares residuals.
    h = c.r2norm_history
    assert len(h) == c.itn
    assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))


def test_cgls_zero_rhs(small_system):
    op = AprodOperator(small_system)
    c = cgls_solve(op, np.zeros(op.shape[0]), precondition=False)
    assert c.itn == 0 and c.converged
    assert np.all(c.x == 0)


def test_cgls_validation(small_system):
    op = AprodOperator(small_system)
    with pytest.raises(ValueError, match="taken from"):
        cgls_solve(small_system, np.zeros(3))
    raw = op.as_linear_operator()  # no system to ask for rhs / norms
    with pytest.raises(ValueError, match="right-hand side"):
        cgls_solve(raw)
    with pytest.raises(ValueError, match="precondition"):
        cgls_solve(raw, np.zeros(op.shape[0]), precondition=True)
    with pytest.raises(ValueError, match="shift"):
        cgls_solve(small_system, shift=-1.0)


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cuda_trace():
    return trace_iteration(port_by_key("CUDA"), H100, dims_from_gb(10.0))


def test_trace_has_all_kernels(cuda_trace):
    names = [e.name for e in cuda_trace.events]
    assert names[:4] == ["aprod1_astro", "aprod1_att", "aprod1_instr",
                         "aprod1_glob"]
    assert names[-1] == "vector_ops"
    assert len(names) == 9


def test_trace_events_do_not_overlap_in_data_phase(cuda_trace):
    """Data phases serialize on the memory system: sorted by start,
    each event begins no earlier than the previous one ends (stream 0
    ordering; aprod2 data phases chain regardless of stream)."""
    events = sorted(cuda_trace.events, key=lambda e: e.start)
    for a, b in zip(events, events[1:]):
        assert b.start >= a.start
    assert cuda_trace.makespan > 0


def test_trace_streams_used_by_cuda(cuda_trace):
    streams = {e.stream for e in cuda_trace.events
               if e.name.startswith("aprod2")}
    assert len(streams) == 4  # one per aprod2 kernel


def test_trace_single_stream_for_openmp():
    tr = trace_iteration(port_by_key("OMP+V"), H100, dims_from_gb(10.0))
    assert {e.stream for e in tr.events} == {0}


def test_chrome_trace_export(cuda_trace, tmp_path):
    path = cuda_trace.write_chrome_trace(tmp_path / "iter.json")
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) == 9
    ev = doc["traceEvents"][0]
    assert ev["ph"] == "X" and ev["ts"] >= 0 and ev["dur"] > 0
    assert ev["args"]["device"] == "H100"


def test_trace_unsupported_platform():
    from repro.frameworks.base import UnsupportedPlatform

    with pytest.raises(UnsupportedPlatform):
        trace_iteration(port_by_key("CUDA"), MI250X, dims_from_gb(10.0))


# ----------------------------------------------------------------------
# Sensitivity & what-if
# ----------------------------------------------------------------------
def test_conclusions_robust_to_bandwidth_and_atomics():
    outcomes = sensitivity_sweep(
        fields=("mem_bandwidth_gbs", "atomic_gups"),
        factors=(0.8, 1.25),
    )
    assert len(outcomes) == 4
    for o in outcomes:
        assert o.conclusions_hold, (o.field, o.factor, o.ranking()[:3])


def test_conclusions_robust_to_cas_and_geometry():
    """E25's other two fields: with the two above, every field of
    PERTURBED_FIELDS survives a +-20-25 % perturbation."""
    fields = ("cas_loop_factor", "geometry_sensitivity")
    assert {"mem_bandwidth_gbs", "atomic_gups", *fields} == set(
        PERTURBED_FIELDS)
    for o in sensitivity_sweep(fields=fields, factors=(0.8, 1.25)):
        assert o.conclusions_hold, (o.field, o.factor, o.ranking()[:3])


def test_sensitivity_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown field"):
        sensitivity_sweep(fields=("memory_gb",))


def test_whatif_platforms_preserve_ranking():
    study = whatif_study()
    assert "NextGen-NV" in study.platforms(10.0)
    p = study.p_scores(10.0)
    ranked = sorted(p, key=p.get, reverse=True)
    assert ranked[:2] == ["HIP", "SYCL+ACPP"]
    assert p["CUDA"] == 0.0
    # The portable ports keep high P without any re-tuning for the new
    # boards -- the paper's core motivation.
    assert p["HIP"] > 0.9
    assert p["SYCL+ACPP"] > 0.85
    # CUDA cannot touch the new AMD board either.
    assert study.efficiencies(10.0)["CUDA"]["NextGen-AMD"] is None


def test_nextgen_boards_are_faster():
    from repro.frameworks.executor import model_iteration

    dims = dims_from_gb(10.0)
    hip = port_by_key("HIP")
    assert model_iteration(hip, NEXTGEN_NVIDIA, dims).total < (
        model_iteration(hip, H100, dims).total
    )
    assert model_iteration(hip, NEXTGEN_AMD, dims).total < (
        model_iteration(hip, MI250X, dims).total
    )


def test_sensitivity_outcome_helpers():
    o = SensitivityOutcome(field="x", factor=1.0,
                           p_scores={"HIP": 0.9, "SYCL+ACPP": 0.8,
                                     "CUDA": 0.0, "OMP+LLVM": 0.2,
                                     "SYCL+DPCPP": 0.3, "PSTL+V": 0.5})
    assert o.ranking()[0] == "HIP"
    assert o.conclusions_hold
    bad = SensitivityOutcome(field="x", factor=1.0,
                             p_scores={**o.p_scores, "CUDA": 0.5})
    assert not bad.conclusions_hold


def test_trace_untuned_uses_default_geometry():
    from repro.gpu.trace import trace_iteration
    from repro.gpu.platforms import T4
    from repro.gpu.kernel import default_geometry

    tr = trace_iteration(port_by_key("CUDA"), T4, dims_from_gb(10.0),
                         tuned=False)
    # Default geometry is slower on the geometry-sensitive T4.
    tuned = trace_iteration(port_by_key("CUDA"), T4, dims_from_gb(10.0))
    assert tr.makespan > tuned.makespan
