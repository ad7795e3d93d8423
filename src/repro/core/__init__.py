"""The AVU-GSR solver core: customized preconditioned LSQR.

This is the paper's primary computational object (§III-B/§IV): an
iterative LSQR solve whose cost is dominated by the two sparse
matrix-vector products ``aprod1`` (``b += A x``) and ``aprod2``
(``x += A^T b``), each implemented as four per-submatrix kernels.

- :mod:`repro.core.kernels` -- the two kernel sets: the four
  per-submatrix block kernels and the compiled CSR plan;
- :mod:`repro.core.aprod` -- the ``aprod{1,2}`` dispatch layer and the
  :class:`~repro.core.aprod.AprodOperator`;
- :mod:`repro.core.precond` -- the column-scaling (Jacobi)
  preconditioner of the customized LSQR;
- :mod:`repro.core.gram` -- every star's 5 x 5 astrometric Gram and
  the under-observed stars (rank < 5);
- :mod:`repro.core.engine` -- the single Paige & Saunders step engine
  (bidiagonalization + Givens update, full stopping rules, variance
  accumulation) parameterized by a pluggable ``ReductionBackend``;
- :mod:`repro.core.lsqr` -- the serial driver over the engine, with
  damping, warm start, timing hooks and checkpoint dump / resume;
- :mod:`repro.core.variance` -- standard errors of the solution;
- :mod:`repro.core.atomic` -- the one atomic file write (temp sibling
  + ``os.replace``) behind checkpoints, session records and caches;
- :mod:`repro.core.baseline` -- a textbook LSQR and a SciPy
  cross-check used as comparators.
"""
