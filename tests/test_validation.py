"""Tests for the SSV-C validation harness."""

import numpy as np
import pytest

from repro.api import SolveRequest, solve
from repro.frameworks.registry import ALL_PORTS, port_by_key
from repro.gpu.platforms import H100, MI250X
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from repro.validation.compare import (
    PortSolution,
    compare_solutions,
    solve_as_port,
    solve_production_reference,
)
from repro.validation.report import run_validation


@pytest.fixture(scope="module")
def val_system():
    # Validation datasets have no global section (SSV-C).
    dims = SystemDims(n_stars=40, n_obs=1200, n_deg_freedom_att=12,
                      n_instr_params=24, n_glob_params=0)
    return make_system(dims, seed=13, noise_sigma=1e-9)


@pytest.fixture(scope="module")
def reference(val_system):
    return solve_production_reference(val_system)


def test_reference_converges(val_system, reference):
    assert reference.itn > 0
    assert reference.x.shape == (val_system.dims.n_params,)
    assert np.all(reference.se >= 0)


def test_all_ports_pass_validation(val_system):
    """The paper's SSV-C conclusion: every port agrees with production
    within 1 sigma and the 10 uas threshold."""
    report = run_validation(val_system, dataset_label="test")
    assert report.comparisons  # something actually ran
    assert report.all_passed, report.summary()
    assert not report.failures()


def test_validation_covers_expected_pairs(val_system):
    report = run_validation(val_system, ports=ALL_PORTS,
                            devices=(H100, MI250X))
    pairs = {(c.port_key, c.device_name) for c in report.comparisons}
    assert ("CUDA", "H100") in pairs
    assert ("CUDA", "MI250X") not in pairs  # unsupported vendor skipped
    assert ("HIP", "MI250X") in pairs


def test_sections_reported_without_global(val_system, reference):
    candidate = solve_as_port(val_system, port_by_key("HIP"), H100)
    comp = compare_solutions(reference, candidate, val_system.dims)
    assert set(comp.sections) == {"astrometric", "attitude",
                                  "instrumental"}


def test_one_to_one_slope_near_unity(val_system, reference):
    """Fig. 6: the port-vs-production scatter hugs the identity line."""
    candidate = solve_as_port(val_system, port_by_key("SYCL+ACPP"),
                              MI250X)
    comp = compare_solutions(reference, candidate, val_system.dims)
    for s in comp.sections.values():
        assert s.one_to_one_slope == pytest.approx(1.0, abs=1e-6)
        assert s.frac_within_1sigma == 1.0


def test_detects_a_wrong_solution(val_system, reference):
    """A corrupted solution must fail the comparison."""
    candidate = solve_as_port(val_system, port_by_key("HIP"), H100)
    broken = type(candidate)(
        port_key="HIP-broken",
        device_name="H100",
        x=candidate.x * 1.5,  # 50% bias
        se=candidate.se,
        itn=candidate.itn,
        r2norm=candidate.r2norm,
    )
    comp = compare_solutions(reference, broken, val_system.dims)
    astro = comp.sections["astrometric"]
    assert astro.one_to_one_slope == pytest.approx(1.5, abs=0.01)
    assert not comp.passed


def test_detects_broken_standard_errors(val_system, reference):
    from repro.core.variance import MICROARCSEC_RAD

    candidate = solve_as_port(val_system, port_by_key("HIP"), H100)
    broken = type(candidate)(
        port_key="HIP-broken-se",
        device_name="H100",
        x=candidate.x,
        se=candidate.se + 100 * MICROARCSEC_RAD,  # +100 uas bias
        itn=candidate.itn,
        r2norm=candidate.r2norm,
    )
    comp = compare_solutions(reference, broken, val_system.dims)
    assert not comp.passed


def test_size_mismatch_rejected(val_system, reference):
    candidate = solve_as_port(val_system, port_by_key("HIP"), H100)
    broken = type(candidate)(
        port_key="x", device_name="y",
        x=candidate.x[:-1], se=candidate.se[:-1],
        itn=1, r2norm=0.0,
    )
    with pytest.raises(ValueError):
        compare_solutions(reference, broken, val_system.dims)


def test_summary_renders(val_system):
    report = run_validation(val_system, ports=[port_by_key("HIP")],
                            devices=(H100,))
    text = report.summary()
    assert "HIP" in text and "astrometric" in text and "PASS" in text


def test_compiled_plan_passes_the_fig6_gate():
    """The SSV-C gate on the kernel no port emulation runs: a
    ``strategy="fused"`` solve (the compiled CSR matrix, what ``auto``
    runs too)."""
    dims = SystemDims(n_stars=150, n_obs=4500,
                      n_deg_freedom_att=12, n_instr_params=24,
                      n_glob_params=0)
    system = make_system(dims, seed=13, noise_sigma=1e-9)
    report = solve(SolveRequest(system=system, strategy="fused",
                                atol=1e-13, btol=1e-13))
    candidate = PortSolution(port_key="fused", device_name="host",
                             x=report.x, se=report.standard_errors(),
                             itn=report.itn, r2norm=report.r2norm)
    comp = compare_solutions(solve_production_reference(system), candidate,
                             dims)
    assert comp.passed, comp.sections


def test_the_production_reference_runs_block_kernels_at_every_size(
        monkeypatch):
    """The reference holds the block kernels alone, never a plan, and
    runs nothing but them."""
    from repro.validation import compare

    dims = SystemDims(n_stars=150, n_obs=4500,
                      n_deg_freedom_att=12, n_instr_params=24,
                      n_glob_params=0)
    system = make_system(dims, seed=13, noise_sigma=1e-9)
    ops, seen = [], set()
    real = compare.lsqr_solve

    def spy(op, **kwargs):
        ops.append(op)
        op.kernel_hook = lambda name, *_: seen.add(name)
        return real(op, **kwargs)

    monkeypatch.setattr(compare, "lsqr_solve", spy)
    compare.solve_production_reference(system, iter_lim=3)
    [op] = ops
    assert op.plan is None
    assert seen == {f"aprod{d}_{block}" for d in (1, 2)
                    for block in ("astro", "att", "instr")}
