"""Convergence behaviour of the sphere-reconstruction solve.

Compares preconditioned and unpreconditioned LSQR, CGLS, the
reorthogonalized diagnostic variant and the AGIS-style block solver
on the same synthetic system: the Jacobi equilibration is what keeps
the iteration count bounded, and on a well-conditioned system the
reorthogonalization buys nothing.

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
from repro.validation import compare_with_agis


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
    print(f"  preconditioned LSQR : {pre.itn:4d} iterations "
          f"(cond ~ {pre.acond:.1e})")
    print(f"  unpreconditioned    : {raw.itn:4d} iterations "
          f"(cond ~ {raw.acond:.1e})")
    print(f"  CGLS                : {cg.itn:4d} iterations")
    print(f"  reorthogonalized    : {reo.itn:4d} iterations")
    print(f"  orthogonality drift over 30 vectors: "
          f"{orthogonality_drift(system, 30):.2e}")
    print(f"  residual history monotone: {hist.is_monotone()}, "
          f"tail rate {hist.convergence_rate():.4f}")

    agis = compare_with_agis(system, pre.x, n_sweeps=60)
    print(f"  AGIS-style block solver agrees to rms "
          f"{agis.rms_diff_astro:.2e} rad in {agis.n_sweeps} sweeps")


if __name__ == "__main__":
    main()
