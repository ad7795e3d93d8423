"""Pure-Python ``aprod`` reference kernels.

One row, one coefficient at a time: the ground truth every gather and
scatter implementation is pinned against (they differ from it only in
floating-point summation order).
"""

import numpy as np


def gather_dot(values, cols, x, out):
    """``out[i] += values[i, :] . x[cols[i, :]]``, row by row."""
    for i in range(values.shape[0]):
        out[i] += float(np.dot(values[i], x[cols[i]]))


def scatter_add(values, cols, y, out):
    """``out[cols[i, j]] += values[i, j] * y[i]``, entry by entry."""
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            out[cols[i, j]] += values[i, j] * y[i]
