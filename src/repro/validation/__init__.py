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
by a different algorithm (block Gauss-Seidel over each star's 5 x 5
Gram, AGIS's iteration style) and cross-checks a solve against it.
"""

from repro.validation.agis import (
    AgisComparison,
    agis_like_solution,
    compare_with_agis,
)
from repro.validation.compare import (
    MICROARCSEC_THRESHOLD_UAS,
    PortSolution,
    SectionComparison,
    ValidationComparison,
    compare_solutions,
    solve_as_port,
    solve_production_reference,
)
from repro.validation.report import ValidationReport, run_validation
from repro.validation.fig6 import (
    Fig6Scatter,
    ascii_scatter,
    fig6_scatter,
    render_fig6,
    save_fig6_data,
)
from repro.validation.montecarlo import MonteCarloResult, run_monte_carlo

__all__ = [
    "AgisComparison",
    "agis_like_solution",
    "compare_with_agis",
    "MICROARCSEC_THRESHOLD_UAS",
    "PortSolution",
    "SectionComparison",
    "ValidationComparison",
    "compare_solutions",
    "solve_as_port",
    "solve_production_reference",
    "ValidationReport",
    "run_validation",
    "Fig6Scatter",
    "fig6_scatter",
    "ascii_scatter",
    "render_fig6",
    "save_fig6_data",
    "MonteCarloResult",
    "run_monte_carlo",
]
