"""Quickstart: generate a synthetic AVU-GSR system and solve it.

Builds a small system with the production sparsity structure (5
astrometric + 12 attitude + 6 instrumental + 1 global coefficients per
observation row), runs the customized preconditioned LSQR, and checks
the solution against the generating truth and against SciPy.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.baseline import scipy_reference
from repro.core.lsqr import lsqr_solve
from repro.core.variance import standard_errors, to_microarcsec
from repro.system.generator import make_system_with_solution
from repro.system.structure import SystemDims
from repro.system.solution import split_solution


def main() -> None:
    dims = SystemDims(
        n_stars=200,           # 5 astrometric unknowns per star
        n_obs=6_000,           # observation rows (equations)
        n_deg_freedom_att=24,  # attitude spline DoF per axis
        n_instr_params=40,     # instrumental unknowns
        n_glob_params=1,       # the PPN-gamma column
    )
    print(dims.describe())

    system, x_true = make_system_with_solution(dims, seed=42,
                                               noise_sigma=1e-9)

    result = lsqr_solve(system, atol=1e-12, btol=1e-12)
    print(f"\nLSQR: {result.istop.name} after {result.itn} iterations, "
          f"|r| = {result.r2norm:.3e}, cond(A) ~ {result.acond:.1e}")
    print(f"mean iteration time: {result.mean_iteration_time*1e3:.2f} ms")

    rel = np.linalg.norm(result.x - x_true) / np.linalg.norm(x_true)
    print(f"relative error vs generating truth: {rel:.2e}")

    x_scipy, _ = scipy_reference(system)
    rel_scipy = (np.linalg.norm(result.x - x_scipy)
                 / np.linalg.norm(x_scipy))
    print(f"relative difference vs SciPy LSQR:  {rel_scipy:.2e}")

    sections = split_solution(result.x, dims)
    se = standard_errors(result)
    se_astro = split_solution(se, dims).astrometric
    print("\nAstrometric solution (first 3 stars), micro-arcseconds:")
    table = to_microarcsec(sections.per_star()[:3])
    errors = to_microarcsec(se_astro.reshape(-1, 5)[:3])
    for s, (row, err) in enumerate(zip(table, errors)):
        cells = "  ".join(f"{v:9.3f}+-{e:.3f}" for v, e in zip(row, err))
        print(f"  star {s}: {cells}")
    gamma = sections.ppn_gamma
    print(f"\nPPN-gamma correction: {gamma:.3e} "
          f"(true {x_true[-1]:.3e})")


if __name__ == "__main__":
    main()
