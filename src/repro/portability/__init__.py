"""Performance-portability analysis (Pennycook's P and the study harness).

Implements the metric of Eq. (1) of the paper, the application-
efficiency normalizations behind Figs. 3 and 5, the p3-analysis-style
efficiency cascade, and :func:`run_study` -- the full
(port x platform x size) measurement matrix of §V-B over the modeled
GPU substrate.
"""

from repro.portability.compare_runs import diff_studies
from repro.portability.divergence import navigation_chart
from repro.portability.export import write_csv, write_json
from repro.portability.persistence import load_study, save_study
from repro.portability.study import run_study
