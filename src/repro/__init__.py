"""Reproduction of the Gaia AVU-GSR performance-portability case study.

This package reimplements, in Python, the full system described in
*"Performance portability via C++ PSTL, SYCL, OpenMP, and HIP: the Gaia
AVU-GSR case study"* (SC-W 2024):

- :mod:`repro.system` -- the structured sparse system substrate of the
  AVU-GSR solver (astrometric / attitude / instrumental / global
  submatrices, compressed index storage, synthetic dataset generator);
- :mod:`repro.core` -- the customized, preconditioned LSQR solver and
  its ``aprod1`` / ``aprod2`` kernels, plus a textbook baseline;
- :mod:`repro.gpu` -- an analytic GPU execution-model substrate
  standing in for the five physical platforms used in the paper;
- :mod:`repro.frameworks` -- the eight framework+compiler ports
  (CUDA, HIP, SYCL x2, OpenMP x2, PSTL x2) over the GPU substrate;
- :mod:`repro.portability` -- Pennycook's performance-portability
  metric and the full study harness regenerating the paper's figures;
- :mod:`repro.dist` -- a simulated MPI layer reproducing the solver's
  distributed decomposition;
- :mod:`repro.validation` -- the cross-port correctness harness
  (Fig. 6 of the paper) and the AGIS-style cross-check.

See ``DESIGN.md`` for the system inventory and the per-experiment
index, and ``EXPERIMENTS.md`` for paper-vs-measured results.
"""

__version__ = "1.0.0"
