"""Gaia AVU-GSR structured sparse system substrate.

The AVU-GSR solver works on an overdetermined linear system ``A x = b``
whose coefficient matrix has a fixed per-row sparsity structure
(Fig. 2 of the paper): 5 contiguous astrometric non-zeros on a block
diagonal, 12 attitude non-zeros in 3 stride-separated blocks of 4,
6 irregularly placed instrumental non-zeros, and at most 1 global
non-zero.  This subpackage provides:

- :mod:`repro.system.structure` -- layout constants, dimensions and
  column-space offsets;
- :mod:`repro.system.sparse` -- the compressed storage scheme
  (``matrixIndexAstro`` / ``matrixIndexAtt`` / ``instrCol``) and dense /
  SciPy-CSR conversion helpers;
- :mod:`repro.system.generator` -- the seeded synthetic dataset
  generator used in place of the proprietary ESA datasets;
- :mod:`repro.system.sizing` -- GB <-> dimension accounting;
- :mod:`repro.system.solution` -- sectioned views of the unknown
  vector;
- :mod:`repro.system.constraints` -- constraint equations appended to
  the overdetermined system;
- :mod:`repro.system.dataset` -- on-disk (de)serialization;
- :mod:`repro.system.digest` -- content-addressed SHA-256 digests
  (system identity for caching, shared-memory publication, and the
  ``repro.sessions`` warm-start lineage);
- :mod:`repro.system.merge` -- segment concatenation and the
  lineage-chaining :func:`append_observations` incremental-growth
  path.
"""
