"""The paper's four per-submatrix kernels as one kernel set.

The CUDA production code runs ``aprod1`` and ``aprod2`` as four kernels
each -- ``aprod{1,2}_Kernel_astro/att/instr/glob()`` (§IV).
:class:`BlockKernels` is that decomposition on the host:

- **astro / att / instr**: a row-blocked gather-dot for ``aprod1`` and
  a keyed scatter-add for ``aprod2``
  (:mod:`~repro.core.kernels.gather_scatter`) over each block's
  coefficients and global columns.  The columns are reconstructed once
  from the compressed indices (``matrixIndexAstro`` /
  ``matrixIndexAtt`` / ``instrCol``, §III-B) and reused every
  iteration, as the GPU ports keep their index arrays device-resident.
- **glob**: at most one coefficient per row, all in the one global
  (PPN-gamma) column.  ``aprod1`` is a broadcast multiply; ``aprod2``
  degenerates to one dot product, the tree reduction the tuned GPU
  ports use where a naive atomic has the worst contention of the four.

The products have the signatures of
:class:`~repro.core.kernels.plan.AprodPlan`'s: they cover the
observation rows only and accumulate into a caller-owned ``out``.
:attr:`BlockKernels.work` is the ``(kernel, rows, nnz)`` each
direction reports.  The Fig. 6 port emulation varies the scatter
(:class:`repro.validation.compare.PortKernels`).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.gather_scatter import (
    column_sq_norms,
    gather_dot,
    scatter_add,
)
from repro.system.sparse import GaiaSystem


class BlockKernels:
    """``A_obs`` as its four coefficient blocks, applied block by block."""

    def __init__(self, system: GaiaSystem) -> None:
        d = system.dims
        self.n_obs = d.n_obs
        #: ``(name, values, cols)`` of the three column blocks, in
        #: submission order.
        self.blocks = (
            ("astro", system.astro_values, system.astro_columns()),
            ("att", system.att_values, system.att_columns()),
            ("instr", system.instr_values, system.instr_columns()),
        )
        # A contiguous copy (8 B a row): BLAS dot sums a strided
        # operand in another order.
        self.glob = (np.ascontiguousarray(system.glob_values[:, 0])
                     if d.n_glob_params else None)
        self.glob_col = d.glob_offset
        lanes = [(name, values.shape[1]) for name, values, _ in self.blocks]
        if self.glob is not None:
            lanes.append(("glob", 1))
        m = d.n_obs
        self.work = {
            product: tuple((f"{product}_{name}", m, m * k)
                           for name, k in lanes)
            for product in ("aprod1", "aprod2")
        }

    def aprod1(self, x: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out += A_obs @ x``, block by block."""
        for _, values, cols in self.blocks:
            gather_dot(values, cols, x, obs_out)
        if self.glob is not None:
            obs_out += self.glob * x[self.glob_col]

    def aprod2(self, y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out += A_obs.T @ y_obs``, block by block, glob last."""
        for name, values, cols in self.blocks:
            self.scatter_block(name, values, cols, y_obs, out)
        if self.glob is not None:
            out[self.glob_col] += float(np.dot(self.glob, y_obs))

    def scatter_block(self, name: str, values: np.ndarray, cols: np.ndarray,
                      y_obs: np.ndarray, out: np.ndarray) -> None:
        """One block's ``aprod2`` scatter (the ports' variation point)."""
        scatter_add(values, cols, y_obs, out)

    def aprod1_batch(self, X: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out[j] += A_obs @ X[j]``, one member at a time."""
        for j in range(X.shape[0]):
            self.aprod1(X[j], obs_out[j])

    def aprod2_batch(self, Y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out[j] += A_obs.T @ Y_obs[j]``, one member at a time."""
        for j in range(Y_obs.shape[0]):
            self.aprod2(Y_obs[j], out[j])

    def column_sq_norms(self, out: np.ndarray) -> None:
        """Accumulate the squared column norms of ``A_obs`` into ``out``:
        one row-major pass per block (the blocks own disjoint columns)."""
        for _, values, cols in self.blocks:
            column_sq_norms(values, cols, out)
        if self.glob is not None:
            column_sq_norms(self.glob[:, None],
                            np.broadcast_to(self.glob_col, (self.n_obs, 1)),
                            out)
