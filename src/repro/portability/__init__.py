"""Performance-portability analysis (Pennycook's P and the study harness).

Implements the metric of Eq. (1) of the paper, the application-
efficiency normalizations behind Figs. 3 and 5, the p3-analysis-style
efficiency cascade, and :func:`run_study` -- the full
(port x platform x size) measurement matrix of §V-B over the modeled
GPU substrate.
"""

from repro.portability.metrics import (
    application_efficiency,
    harmonic_mean,
    pennycook_p,
    self_efficiency,
)
from repro.portability.cascade import CascadeData, efficiency_cascade
from repro.portability.study import StudyResult, platforms_for_size, run_study
from repro.portability.report import (
    format_efficiency_table,
    format_p_table,
    format_time_table,
)
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
from repro.portability.divergence import (
    NavigationPoint,
    code_divergence,
    navigation_chart,
)
from repro.portability.bootstrap import PInterval, bootstrap_p
from repro.portability.compare_runs import StudyDiff, diff_studies
from repro.portability.persistence import load_study, save_study
from repro.portability.p3_compat import p3_records, write_p3_csv
from repro.portability.report import (
    bar_chart,
    render_fig3,
    render_fig4,
    render_fig5,
)

__all__ = [
    "harmonic_mean",
    "application_efficiency",
    "self_efficiency",
    "pennycook_p",
    "CascadeData",
    "efficiency_cascade",
    "StudyResult",
    "run_study",
    "platforms_for_size",
    "format_efficiency_table",
    "format_p_table",
    "format_time_table",
    "architectural_efficiency",
    "architectural_p",
    "iteration_bytes",
    "study_records",
    "write_csv",
    "write_json",
    "read_measurements_csv",
    "NavigationPoint",
    "code_divergence",
    "navigation_chart",
    "PInterval",
    "bootstrap_p",
    "StudyDiff",
    "diff_studies",
    "save_study",
    "load_study",
    "p3_records",
    "write_p3_csv",
    "bar_chart",
    "render_fig3",
    "render_fig4",
    "render_fig5",
]
