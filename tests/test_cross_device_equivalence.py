"""Cross-device numerics equivalence of the ports.

§V-C validates each port per device; an implied invariant is that a
port's *numerics* depend on its kernel strategies, not on the clock of
the board underneath.  Ports with the same atomic codegen on two
devices must produce bitwise-identical solutions; ports whose codegen
differs across vendors (DPC++, base clang++ OpenMP) may differ in
rounding -- but never beyond the validation tolerance.
"""

import numpy as np
import pytest

from repro.frameworks.registry import port_by_key
from repro.gpu.platforms import A100, H100, MI250X
from repro.validation.compare import compare_solutions, solve_as_port


@pytest.fixture(scope="module")
def system(noglob_system):
    return noglob_system


def test_same_codegen_same_bits(system):
    """HIP emits RMW atomics on both vendors: identical strategies,
    identical floating-point result on every device."""
    hip = port_by_key("HIP")
    x_h100 = solve_as_port(system, hip, H100)
    x_a100 = solve_as_port(system, hip, A100)
    x_mi = solve_as_port(system, hip, MI250X)
    assert np.array_equal(x_h100.x, x_a100.x)
    assert np.array_equal(x_h100.x, x_mi.x)
    assert np.array_equal(x_h100.se, x_mi.se)


def test_cas_port_differs_across_vendors_only_in_rounding(system):
    """SYCL+DPC++ changes atomic codegen on AMD: the summation order
    changes, the solution only by floating-point rounding."""
    dpcpp = port_by_key("SYCL+DPCPP")
    on_nv = solve_as_port(system, dpcpp, H100)
    on_amd = solve_as_port(system, dpcpp, MI250X)
    # Not necessarily bitwise equal ...
    rel = (np.linalg.norm(on_nv.x - on_amd.x)
           / np.linalg.norm(on_nv.x))
    # ... but equal to validation precision.
    assert rel < 1e-9
    comp = compare_solutions(on_nv, on_amd, system.dims)
    assert comp.passed


def test_all_ports_pairwise_consistent_on_one_device(system):
    """On one device, every port's solution agrees with every other's
    within the validation criteria (they solve the same system)."""
    keys = ("CUDA", "HIP", "SYCL+ACPP", "OMP+V", "OMP+LLVM",
            "PSTL+ACPP", "PSTL+V")
    solutions = [solve_as_port(system, port_by_key(k), H100)
                 for k in keys]
    reference = solutions[0]
    for candidate in solutions[1:]:
        comp = compare_solutions(reference, candidate, system.dims)
        assert comp.passed, candidate.port_key
