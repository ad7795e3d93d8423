"""Pure-Python references the optimized code is pinned against.

- ``gather_dot`` / ``scatter_add``: the ``aprod`` kernels one row, one
  coefficient at a time -- the ground truth every gather and scatter
  implementation matches up to floating-point summation order;
- ``lsqr_loop``: the Paige & Saunders iteration written out with fresh
  temporaries every step, the body the step engine must reproduce
  bitwise.
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


def lsqr_loop(op, b, iters):
    """``iters`` LSQR iterations (damp = 0, no stopping test) from
    ``x = 0``; returns ``(x, var)``."""
    m, n = op.shape
    x = np.zeros(n)
    var = np.zeros(n)
    u = b.copy()
    beta = float(np.linalg.norm(u))
    u /= beta
    v = op.aprod2(u)
    alfa = float(np.linalg.norm(v))
    v /= alfa
    w = v.copy()
    rhobar, phibar = alfa, beta
    for _ in range(iters):
        u *= -alfa
        op.aprod1(v, out=u)
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u /= beta
            v *= -beta
            op.aprod2(u, out=v)
            alfa = float(np.linalg.norm(v))
            if alfa > 0.0:
                v /= alfa
        rhobar1 = float(np.sqrt(rhobar**2))
        cs1 = rhobar / rhobar1
        phibar = cs1 * phibar
        rho = float(np.sqrt(rhobar1**2 + beta**2))
        cs = rhobar1 / rho
        sn = beta / rho
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        t1 = phi / rho
        t2 = -theta / rho
        dk = w / rho
        x += t1 * w
        w *= t2
        w += v
        var += dk * dk
    return x, var
