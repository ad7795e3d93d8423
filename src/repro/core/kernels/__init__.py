"""The host ``aprod`` kernels.

A kernel set is one object with the five products
:class:`~repro.core.aprod.AprodOperator` calls -- ``aprod1``,
``aprod2``, their ``K``-wide forms ``aprod1_batch`` / ``aprod2_batch``
and ``column_sq_norms`` -- over the observation rows, plus a ``work``
table of the ``(kernel, rows, nnz)`` each direction reports.

The production set is :class:`~repro.core.kernels.plan.AprodPlan`:
``A_obs`` as one SciPy CSR matrix, applied as it is for ``aprod1`` and
through its transpose view for ``aprod2`` (each column summed in
row-major order).  Every operator compiles it, at every size and batch
width.  :mod:`~repro.core.kernels.gather_scatter` holds the row-blocked
gather-dot / keyed scatter-add primitives the Fig. 6 port emulation
(:class:`repro.validation.compare.PortKernels`: the paper's four
per-submatrix kernels with an RMW-atomic or star-sorted scatter) is
built on, and the column-norm pass both share.
"""
