"""Cross-port correctness validation (§V-C / Fig. 6).

The paper verifies every port by comparing its solution *and standard
error* against the CUDA code in production, on two real datasets,
requiring agreement within 1 sigma and within the 10 micro-arcsecond
Gaia accuracy target.  Here the "production reference" is the solver
run with the production kernel configuration; each port re-solves the
same system with its own kernel strategies (different floating-point
summation orders, exactly like different GPU scatter schedules) and
the harness performs the same comparisons.

:mod:`repro.validation.agis` reaches the same least-squares solution
by a different algorithm (a direct elimination of each star's 5 x 5
Gram, as AGIS treats each source), with the exact variances, and
cross-checks a solve against it.
"""

from repro.validation.compare import (
    compare_solutions,
    solve_as_port,
    solve_production_reference,
)
from repro.validation.fig6 import fig6_scatter, render_fig6
from repro.validation.report import run_validation
