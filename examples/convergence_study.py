"""Convergence behaviour of the sphere-reconstruction solve.

Reproduces EXPERIMENTS.md rows E27 (solver ablation: the Jacobi
equilibration keeps the iteration count bounded, CGLS reaches the same
solution) and E32 (on a well-conditioned system the reorthogonalization
buys nothing).  Every iterative solve is measured against the exact
least-squares solution of the AGIS-style star elimination.

Run:  python examples/convergence_study.py
"""

import numpy as np

from repro.core.cgls import cgls_solve
from repro.core.convergence import (
    ConvergenceHistory,
    lsqr_solve_reorthogonalized,
    orthogonality_drift,
)
from repro.core.lsqr import lsqr_solve
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from repro.validation.agis import agis_like_solution, compare_with_agis


def main() -> None:
    print("Well-conditioned synthetic system")
    print("-" * 60)
    dims = SystemDims(n_stars=60, n_obs=1800, n_deg_freedom_att=16,
                      n_instr_params=30)
    system = make_system(dims, seed=3, noise_sigma=1e-10)

    hist = ConvergenceHistory()
    pre = lsqr_solve(system, atol=1e-12, btol=1e-12, callback=hist)
    raw = lsqr_solve(system, atol=1e-12, btol=1e-12,
                     precondition=False, iter_lim=20_000)
    cg = cgls_solve(system, atol=1e-12)
    reo = lsqr_solve_reorthogonalized(system, atol=1e-12, btol=1e-12)
    exact, _ = agis_like_solution(system)
    print("  distance to the exact solution: max|x - x_exact| / max|x_exact|")
    for name, res in (("preconditioned LSQR", pre), ("unpreconditioned", raw),
                      ("CGLS", cg), ("reorthogonalized", reo)):
        dist = np.max(np.abs(res.x - exact)) / np.max(np.abs(exact))
        print(f"  {name:20s}: {res.itn:4d} iterations, distance {dist:.1e}")
    print(f"  condition estimate  : {pre.acond:.1e} preconditioned, "
          f"{raw.acond:.1e} raw")
    print(f"  orthogonality drift over 30 vectors: "
          f"{orthogonality_drift(system, 30):.2e}")
    print(f"  residual history monotone: {hist.is_monotone()}, "
          f"tail rate {hist.convergence_rate():.4f}")

    agis = compare_with_agis(system, pre.x)
    print(f"  AGIS-style star elimination: astrometric rms difference "
          f"{agis.rms_diff_astro:.2e} rad, passed={agis.passed(1e-10)}")


if __name__ == "__main__":
    main()
