"""The two host ``aprod`` kernel sets.

A kernel set is one object with the five products
:class:`~repro.core.aprod.AprodOperator` calls -- ``aprod1``,
``aprod2``, their ``K``-wide forms ``aprod1_batch`` / ``aprod2_batch``
and ``column_sq_norms`` -- over the observation rows, plus a ``work``
table of the ``(kernel, rows, nnz)`` each direction reports:

============  ========================================================
``blocks``    :class:`~repro.core.kernels.blocks.BlockKernels`: the
              paper's four per-submatrix kernels
              (``aprod{1,2}_Kernel_astro/att/instr/glob()``, §IV) on
              the row-blocked gather-dot / keyed scatter-add
              primitives of :mod:`~repro.core.kernels.gather_scatter`;
              spelled ``vectorized`` / ``bincount``
``compiled``  :class:`~repro.core.kernels.plan.AprodPlan`: ``A_obs``
              as one SciPy CSR matrix, applied as it is for
              ``aprod1`` and through its transpose view for
              ``aprod2`` (each column summed in row-major order);
              spelled ``fused`` / ``sorted_segment``
============  ========================================================

:func:`~repro.core.kernels.plan.select_strategies` picks between them
by system shape.  The Fig. 6 port emulation is a ``blocks`` variant
(:class:`repro.validation.compare.PortKernels`: RMW-atomic scatter,
star-sorted astrometric reduction).
"""
