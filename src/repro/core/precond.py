"""Column-scaling (Jacobi) preconditioner of the customized LSQR.

The AVU-GSR solver runs a *preconditioned* LSQR (§III-B): the columns
of ``A`` are normalized to unit 2-norm, i.e. the solver iterates on
``A D`` with ``D = diag(1 / ||a_j||)`` and maps the result back with
``x = D z``.  This equilibration is what makes the astrometric,
attitude, instrumental and global sections -- whose natural scales
differ by orders of magnitude -- converge together.

:func:`prepare` is the one operator-preparation step of every solve
driver (serial, batched, CGLS, the convergence
diagnostics and both SPMD drivers): drivers *take* an operator and
never build one, so which kernels run is decided where the
:class:`~repro.core.aprod.AprodOperator` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aprod import AprodOperator, column_sq_norms
from repro.core.engine import Aprod
from repro.obs.telemetry import Telemetry
from repro.system.sparse import GaiaSystem


@dataclass(frozen=True)
class ColumnScaling:
    """Diagonal right-preconditioner ``D`` with entries ``1/||a_j||``.

    Attributes
    ----------
    scale:
        ``(n_params,)`` diagonal of ``D``.  Columns whose norm is zero
        (possible only in degenerate synthetic systems) get scale 1 so
        they stay untouched.
    """

    scale: np.ndarray

    @classmethod
    def _from_squares(cls, sq: np.ndarray) -> "ColumnScaling":
        """Build from squared column norms."""
        if np.any(sq < 0) or not np.all(np.isfinite(sq)):
            raise ValueError("column norms must be finite and non-negative")
        norms = np.sqrt(sq)
        scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0),
                         1.0)
        return cls(scale=scale)

    @classmethod
    def from_operator(cls, op: AprodOperator) -> "ColumnScaling":
        """Build from the squared column norms of the bound system."""
        return cls._from_squares(op.column_sq_norms())

    @classmethod
    def from_system(cls, system: GaiaSystem) -> "ColumnScaling":
        """Scaling of a whole system, without compiling its kernels.

        The norms stream ``system``'s rows one row block at a time into
        one accumulator and add the constraint rows once at the end
        (:func:`~repro.core.aprod.column_sq_norms`): bitwise
        :meth:`from_operator` of any operator over ``system``, while
        the pass holds one row block -- neither the plan ``"auto"``
        would compile and throw away nor the whole system's column
        indices.
        """
        return cls._from_squares(column_sq_norms(system))

    @classmethod
    def identity(cls, n_params: int) -> "ColumnScaling":
        """No-op preconditioner (used by the unpreconditioned baseline)."""
        return cls(scale=np.ones(n_params))

    def to_preconditioned(self, x: np.ndarray) -> np.ndarray:
        """Map unknowns ``x`` to preconditioned unknowns ``z = D^-1 x``."""
        return x / self.scale

    def to_physical(self, z: np.ndarray) -> np.ndarray:
        """Map preconditioned unknowns ``z`` back to ``x = D z``."""
        return z * self.scale

    def scale_variance(self, var_z: np.ndarray) -> np.ndarray:
        """Map variance estimates of ``z`` to variances of ``x = D z``."""
        return var_z * self.scale**2

    def fold_back(self, z: np.ndarray, var_z: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """A solve's ``(z, var)`` pair in physical units."""
        return (self.to_physical(z),
                None if var_z is None else self.scale_variance(var_z))


class PreconditionedAprod:
    """``(A D)`` products built from an :class:`AprodOperator` and ``D``.

    The wrapped products are what the LSQR bidiagonalization sees;
    callers convert the converged ``z`` back with
    :meth:`ColumnScaling.to_physical`.

    Both directions run through two preallocated unknown-space
    workspaces (the scaled input of ``aprod1``, the unscaled transpose
    product of ``aprod2``), so the wrapper adds no allocation to the
    products it wraps.
    """

    def __init__(self, op: AprodOperator, scaling: ColumnScaling) -> None:
        if scaling.scale.shape != (op.shape[1],):
            raise ValueError(
                f"scaling has {scaling.scale.shape[0]} entries, "
                f"operator has {op.shape[1]} columns"
            )
        self.op = op
        self.scaling = scaling
        n = op.shape[1]
        self._zws = np.empty(n)
        self._tws = np.empty(n)
        self._zws_b: np.ndarray | None = None
        self._tws_b: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape

    def aprod1(self, z: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += (A D) z``."""
        np.multiply(z, self.scaling.scale, out=self._zws)
        return self.op.aprod1(self._zws, out=out)

    def aprod2(self, y: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += (A D).T y``."""
        tmp = self._tws
        tmp[:] = 0.0
        self.op.aprod2(y, out=tmp)
        tmp *= self.scaling.scale
        if out is None:
            return tmp.copy()
        out += tmp
        return out

    # -- trailing batch axis -------------------------------------------
    def _batch_ws(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The leading ``k`` rows of the batched workspaces."""
        if self._zws_b is None or self._zws_b.shape[0] < k:
            n = self.op.shape[1]
            self._zws_b = np.empty((k, n))
            self._tws_b = np.empty((k, n))
        return self._zws_b[:k], self._tws_b[:k]

    def aprod1_batch(self, Z: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += (A D) Z[j]`` over the stacked batch."""
        zws, _ = self._batch_ws(Z.shape[0])
        np.multiply(Z, self.scaling.scale, out=zws)
        return self.op.aprod1_batch(zws, out=out)

    def aprod2_batch(self, Y: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += (A D).T Y[j]`` over the stacked batch."""
        _, tws = self._batch_ws(Y.shape[0])
        tws[:] = 0.0
        self.op.aprod2_batch(Y, out=tws)
        tws *= self.scaling.scale
        if out is None:
            return tws.copy()
        out += tws
        return out


def prepare(
    system: GaiaSystem | AprodOperator | Aprod,
    *,
    precondition: bool = True,
    scaling: ColumnScaling | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[Aprod, ColumnScaling]:
    """The (operator the engine iterates on, its ``ColumnScaling``) pair.

    ``system`` is a :class:`~repro.system.sparse.GaiaSystem` (compiled here,
    reporting to ``telemetry``), an :class:`AprodOperator` the caller
    built (a port emulation, a kernel hook), or any raw
    :class:`~repro.core.engine.Aprod`.  ``precondition`` wraps it in
    its Jacobi column scaling (raw operators cannot expose column
    norms) and ``False`` returns it as is, with the identity scaling.
    A given ``scaling`` is applied in place of the operator's own:
    the row-sliced SPMD case, where the norms sum over every rank's
    rows (:meth:`ColumnScaling.from_system`).
    """
    op = (AprodOperator(system, telemetry=telemetry)
          if isinstance(system, GaiaSystem) else system)
    if scaling is None:
        if not precondition:
            return op, ColumnScaling.identity(op.shape[1])
        if not isinstance(op, AprodOperator):
            raise ValueError(
                "precondition=True needs an AprodOperator or GaiaSystem "
                "(raw operators cannot expose column norms)"
            )
        scaling = ColumnScaling.from_operator(op)
    return PreconditionedAprod(op, scaling), scaling
