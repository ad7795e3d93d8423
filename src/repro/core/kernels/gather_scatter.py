"""Gather-dot and scatter-add primitives of the block kernels.

The block kernels are the Fig. 6 port emulation
(:mod:`repro.validation.compare`); the column-norm pass below is also
the plan's.

Every ``aprod1`` kernel is a row-parallel *gather-dot*:
``out[i] += sum_j values[i, j] * x[cols[i, j]]`` -- trivially parallel,
no collisions (the GPU ports map one thread per row).

Every ``aprod2`` kernel is a *scatter-add*:
``out[cols[i, j]] += values[i, j] * y[i]`` -- different rows may hit
the same column, which is why the GPU ports need atomic operations
(§IV).  Here the collisions resolve through a keyed reduction
(``np.bincount``), collision-free and deterministic.

Both -- and the column norms -- walk the rows in :data:`CHUNK_ROWS`
blocks, so what a pass allocates while it runs is bounded by one
block, not by the system.
The gather is bitwise the whole-array gather (rows are independent);
the scatter adds one keyed partial sum per block, so it is bitwise the
whole-array reduction up to :data:`CHUNK_ROWS` rows.
"""

from __future__ import annotations

import numpy as np

#: Row-block size of both primitives -- the host analogue of
#: processing the observation stream in launch-sized batches, which
#: keeps each batch's gather/scatter working set cache-resident.
CHUNK_ROWS = 8192


def _check_pair(values: np.ndarray, cols: np.ndarray) -> None:
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got ndim={values.ndim}")
    if values.shape != cols.shape:
        raise ValueError(
            f"values {values.shape} and cols {cols.shape} must match"
        )


def gather_dot(
    values: np.ndarray, cols: np.ndarray, x: np.ndarray, out: np.ndarray
) -> None:
    """Accumulate ``out[i] += values[i, :] . x[cols[i, :]]`` in place.

    ``values`` / ``cols`` are the ``(m, k)`` coefficients and their
    global column indices, ``x`` the unknown-space operand and ``out``
    the ``(m,)`` observation-space accumulator.
    """
    _check_pair(values, cols)
    if out.shape != (values.shape[0],):
        raise ValueError(
            f"out has shape {out.shape}, expected ({values.shape[0]},)"
        )
    for lo in range(0, values.shape[0], CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        out[lo:hi] += np.einsum("ij,ij->i", values[lo:hi], x[cols[lo:hi]])


def scatter_add(
    values: np.ndarray, cols: np.ndarray, y: np.ndarray, out: np.ndarray
) -> None:
    """Accumulate ``out[cols[i, j]] += values[i, j] * y[i]`` in place.

    ``y`` is the ``(m,)`` observation-space operand and ``out`` the
    unknown-space accumulator; each row block adds its keyed reduction.
    """
    _check_pair(values, cols)
    if y.shape != (values.shape[0],):
        raise ValueError(
            f"y has shape {y.shape}, expected ({values.shape[0]},)"
        )
    n = out.shape[0]
    for lo in range(0, values.shape[0], CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        contrib = (values[lo:hi] * y[lo:hi, None]).ravel()
        out += np.bincount(cols[lo:hi].ravel(), weights=contrib,
                           minlength=n)[:n]


def column_sq_norms(
    values: np.ndarray, cols: np.ndarray, out: np.ndarray
) -> None:
    """Accumulate per-column sums of squared coefficients into ``out``.

    The Jacobi column preconditioner's pass, for every kernel set.  It
    walks :data:`CHUNK_ROWS` row blocks, squares each into one reused
    buffer and adds the squares straight into ``out`` with
    ``np.add.at``, one entry at a time in row-major order.  Every
    column continues one chain from what ``out`` holds, so over a
    zeroed ``out`` a column sums its terms in row-major order: bitwise
    a whole-block ``np.bincount`` and the CSC product of the squares,
    while the pass allocates one block of squares, not an nnz-sized
    copy.  (A keyed partial sum per block added with ``out +=`` would
    re-associate every column that straddles two blocks.)
    """
    _check_pair(values, cols)
    m = values.shape[0]
    squares = np.empty((min(m, CHUNK_ROWS), values.shape[1]))
    for lo in range(0, m, CHUNK_ROWS):
        block = squares[:min(m - lo, CHUNK_ROWS)]
        np.square(values[lo:lo + CHUNK_ROWS], out=block)
        np.add.at(out, cols[lo:lo + CHUNK_ROWS].ravel(), block.ravel())
