"""E32: convergence diagnostics, genuinely measured.

Reorthogonalization cost and effect on the synthetic generator's
well-conditioned system: where production runs, plain LSQR suffices.
"""

import numpy as np
import pytest

from repro.core import lsqr_solve, lsqr_solve_reorthogonalized
from repro.system import SystemDims, make_system


@pytest.fixture(scope="module")
def well_conditioned():
    dims = SystemDims(n_stars=50, n_obs=1500, n_deg_freedom_att=12,
                      n_instr_params=24)
    return make_system(dims, seed=7, noise_sigma=1e-10)


def test_reorthogonalization_cost_and_effect(benchmark, well_conditioned,
                                             write_result):
    plain = lsqr_solve(well_conditioned, atol=1e-12, btol=1e-12)

    def _reorth():
        return lsqr_solve_reorthogonalized(well_conditioned,
                                           atol=1e-12, btol=1e-12)

    reo = benchmark.pedantic(_reorth, rounds=1, iterations=1)
    rel = (np.linalg.norm(reo.x - plain.x)
           / np.linalg.norm(plain.x))
    write_result(
        "convergence_reorth",
        f"plain LSQR: {plain.itn} iterations; reorthogonalized: "
        f"{reo.itn} iterations; solution difference {rel:.2e}\n"
        "On a well-conditioned sphere the O(itn^2 n) "
        "reorthogonalization buys nothing -- plain LSQR suffices, "
        "which is why the production code does not do it.",
    )
    assert rel < 1e-7
    assert abs(reo.itn - plain.itn) <= 3
