"""The customized, preconditioned LSQR solve (serial driver).

A faithful implementation of Paige & Saunders' LSQR (refs [20], [21]
of the paper: ACM TOMS 1982a/b) with the AVU-GSR customizations:

- the matrix products are the ``aprod1`` / ``aprod2`` of an
  :class:`~repro.core.aprod.AprodOperator`: the paper's four
  structured block kernels, or one compiled CSR matrix;
- columns are equilibrated by the Jacobi right-preconditioner
  (:mod:`repro.core.precond`);
- constraint rows ride below the observation block;
- optional Tikhonov damping;
- per-iteration wall-time accounting -- the paper's figure of merit is
  the *average LSQR iteration time* (§V-A);
- optional accumulation of the ``var`` vector that yields the standard
  errors compared in Fig. 6.

The iteration body itself lives in :mod:`repro.core.engine` -- one
:class:`~repro.core.engine.LSQRStepEngine` shared with the
distributed and recovery drivers.  This module is the *serial
driver*: it prepares the preconditioned operator and right-hand side,
runs the engine with the local :class:`~repro.core.engine.
SerialReduction` backend, owns timing/callback/checkpoint policy, and
folds the preconditioner back into physical units.

The stopping rules and ``istop`` codes follow the original algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.aprod import AprodOperator
from repro.core.engine import (
    CONVERGED,
    Aprod,
    BatchedAprod,
    BatchedLSQRStepEngine,
    EngineState,
    LSQRStepEngine,
    SerialReduction,
    StopReason,
    resume_state,
)
from repro.core.precond import ColumnScaling, prepare
from repro.obs.telemetry import Telemetry
from repro.system.sparse import GaiaSystem

__all__ = [
    "Aprod",
    "StopReason",
    "LSQRResult",
    "IterationCallback",
    "lsqr_solve",
    "lsqr_solve_batch",
]


@dataclass
class LSQRResult:
    """Outcome of one LSQR solve.

    Attributes mirror Paige & Saunders' outputs; ``x`` is in physical
    units (the preconditioner is already folded back in), ``var`` is
    the estimate of ``diag((A^T A)^-1)`` in physical units.
    """

    x: np.ndarray
    istop: StopReason
    itn: int
    r1norm: float
    r2norm: float
    anorm: float
    acond: float
    arnorm: float
    xnorm: float
    var: np.ndarray | None
    m: int
    n: int
    iteration_times: list[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True when the solve stopped on a convergence test."""
        return self.istop in CONVERGED

    @property
    def mean_iteration_time(self) -> float:
        """Average wall-clock seconds per iteration (the paper's metric)."""
        if not self.iteration_times:
            return 0.0
        return float(np.mean(self.iteration_times))


#: Callback signature: (iteration, physical_x_so_far, r2norm) -> None.
IterationCallback = Callable[[int, np.ndarray, float], None]


def lsqr_solve(
    system: GaiaSystem | AprodOperator | Aprod,
    b: np.ndarray | None = None,
    *,
    damp: float = 0.0,
    atol: float = 1e-10,
    btol: float = 1e-10,
    conlim: float = 1e8,
    iter_lim: int | None = None,
    precondition: bool = True,
    calc_var: bool = True,
    x0: np.ndarray | None = None,
    callback: IterationCallback | None = None,
    clock: Callable[[], float] = time.perf_counter,
    telemetry: Telemetry | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path: str | Path | None = None,
    resume_from: str | Path | EngineState | None = None,
) -> LSQRResult:
    """Solve ``min ||A x - b||_2`` (optionally damped) with LSQR.

    Parameters
    ----------
    system:
        A :class:`~repro.system.sparse.GaiaSystem` (the right-hand side is its
        own, including constraint rows; it is compiled to the plan), an
        :class:`~repro.core.aprod.AprodOperator` the caller built (a
        port emulation, a kernel hook), or any object satisfying the
        :class:`Aprod` protocol together with an explicit ``b``.
    b:
        Right-hand side; required for raw operators, optional for an
        ``AprodOperator`` (default: its system's own), not accepted
        with a ``GaiaSystem``.
    damp:
        Tikhonov damping parameter of the regularized problem
        ``min ||A x - b||^2 + damp^2 ||x||^2``.
    atol, btol, conlim, iter_lim:
        Paige & Saunders stopping parameters.  ``iter_lim`` defaults
        to ``2 * n``.
    precondition:
        Apply the Jacobi column scaling (only available when ``system``
        is a :class:`~repro.system.sparse.GaiaSystem` or when the operator is
        an :class:`~repro.core.aprod.AprodOperator`).
    calc_var:
        Accumulate the ``var`` estimate of ``diag((A^T A)^-1)`` used
        for the standard errors of Fig. 6.
    x0:
        Warm-start guess (physical units).  The solver iterates on the
        correction ``dx`` against the shifted right-hand side
        ``b - A x0`` and returns ``x0 + dx`` -- how the production
        pipeline chains cycles.  With ``damp > 0`` the regularization
        applies to the correction, not to ``x0`` itself.
    callback:
        Invoked after every iteration with
        ``(itn, x_physical, r2norm)``.
    clock:
        Injectable monotonic clock for iteration timing.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; when given, every
        iteration emits ``lsqr.iteration`` spans with nested
        ``lsqr.aprod1`` / ``lsqr.normalize`` / ``lsqr.aprod2`` /
        ``lsqr.update`` phase spans (the §V-A breakdown), plus
        iteration counters and an ``lsqr.iteration_time_s`` histogram.
    checkpoint_every, checkpoint_path:
        When both are given, the engine state is serialized to
        ``checkpoint_path`` every ``checkpoint_every`` iterations and
        at the end (once: a run ending on a checkpoint iteration does
        not write it again) -- the batch-queue crash-recovery dump.
        With ``x0`` the state holds the *correction* in preconditioned
        units.
    resume_from:
        Continue a prior run: a live
        :class:`~repro.core.engine.EngineState` or the path of an
        archive any driver wrote over the same system and parameters
        (a run that used ``x0`` passes the same ``x0`` again).  The
        continued run is bit-for-bit the uninterrupted one; preempt/
        park/resume (:mod:`repro.sessions`) rests on this.
    """
    tel = Telemetry.or_null(telemetry)
    b = resolve_rhs(system, b)
    op, scaling = prepare(system, precondition=precondition,
                          telemetry=telemetry)
    m, n = op.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite values")
    if iter_lim is None:
        iter_lim = 2 * n
    if iter_lim < 1:
        raise ValueError(f"iter_lim must be >= 1, got {iter_lim}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )

    x_offset = np.zeros(n)
    if x0 is not None:
        if x0.shape != (n,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 contains non-finite values")
        x_offset = np.asarray(x0, dtype=np.float64).copy()
        # Shift the problem: iterate on dx against b - A x0.  The
        # preconditioned operator applied to D^-1 x0 is exactly A x0.
        b -= op.aprod1(scaling.to_preconditioned(x_offset))

    engine = LSQRStepEngine(
        op, backend=SerialReduction(), damp=damp, atol=atol, btol=btol,
        conlim=conlim, calc_var=calc_var, telemetry=telemetry,
        span_prefix="lsqr",
    )
    state = (engine.start(b) if resume_from is None
             else resume_state(resume_from, m, n))
    checkpointing = (checkpoint_path is not None
                     and checkpoint_every is not None)
    times: list[float] = []
    while state.istop is None and state.itn < iter_lim:
        t0 = clock()
        engine.step(state)
        times.append(clock() - t0)
        tel.counter("lsqr.iterations").inc()
        tel.histogram("lsqr.iteration_time_s").observe(times[-1])
        if callback is not None:
            callback(state.itn, scaling.to_physical(state.x) + x_offset,
                     state.r2norm)
        if checkpointing and state.itn % checkpoint_every == 0:
            state.save(checkpoint_path)
    # The final dump, unless the last iteration just wrote it.
    if checkpointing and not (times
                              and state.itn % checkpoint_every == 0):
        state.save(checkpoint_path)
    return _finish(state, m, n, times, scaling, x_offset)


def resolve_rhs(system: GaiaSystem | AprodOperator | Aprod,
                b: np.ndarray | None) -> np.ndarray:
    """The right-hand side of every input form, as a private copy."""
    if isinstance(system, GaiaSystem):
        if b is not None:
            raise ValueError(
                "b is taken from the GaiaSystem; pass an operator to "
                "supply a custom right-hand side"
            )
        return system.rhs().astype(np.float64, copy=True)
    if b is not None:
        return np.asarray(b, dtype=np.float64).copy()
    if not isinstance(system, AprodOperator):
        raise ValueError("a right-hand side is required with a raw "
                         "operator")
    return system.system.rhs().astype(np.float64, copy=True)


def _finish(
    state: EngineState,
    m: int,
    n: int,
    times: list[float],
    scaling: ColumnScaling,
    x_offset: np.ndarray,
) -> LSQRResult:
    """Fold the preconditioner and warm-start offset back in."""
    x, var = scaling.fold_back(state.x, state.var)
    x += x_offset
    istop = (state.istop if state.istop is not None
             else StopReason.ITERATION_LIMIT)
    return LSQRResult(
        x=x, istop=istop, itn=state.itn, r1norm=state.r1norm,
        r2norm=state.r2norm, anorm=state.anorm, acond=state.acond,
        arnorm=state.arnorm, xnorm=float(np.linalg.norm(x)), var=var,
        m=m, n=n, iteration_times=times,
    )


def lsqr_solve_batch(
    system: GaiaSystem | AprodOperator | BatchedAprod,
    B: np.ndarray | Sequence[np.ndarray],
    *,
    damps: float | Sequence[float] = 0.0,
    atol: float = 1e-10,
    btol: float = 1e-10,
    conlim: float = 1e8,
    iter_lim: int | None = None,
    precondition: bool = True,
    calc_var: bool = True,
    x0s: Sequence[np.ndarray | None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    telemetry: Telemetry | None = None,
) -> list[LSQRResult]:
    """Solve ``K`` many-RHS problems over one matrix in a single sweep.

    The batched counterpart of :func:`lsqr_solve`: one
    :class:`~repro.core.engine.BatchedLSQRStepEngine` advances every
    member per iteration with one batched ``aprod`` pass each way, and
    members that converge early freeze (their own ``itn``/``istop``)
    while the rest keep iterating.  Member ``j``'s result matches
    ``lsqr_solve(system_with_b_j, damp=damps[j], ...)`` bitwise
    (``tests/test_engine_batch.py``).

    Parameters
    ----------
    system:
        The shared matrix: a :class:`~repro.system.sparse.GaiaSystem`
        (compiled to the plan, whose stacked products read it once per
        batch), an :class:`~repro.core.aprod.AprodOperator` the caller
        built, or any :class:`~repro.core.engine.BatchedAprod`
        operator.
        Unlike the single-solve driver the stacked right-hand sides
        are always explicit -- many RHS over one matrix is the whole
        point.
    B:
        ``(K, m)`` stacked right-hand sides (constraint rows included),
        one member per row; e.g. ``np.stack([s.rhs() for s in members])``
        for members built with ``dataclasses.replace(system,
        known_terms=...)``.
    damps:
        Per-member damping: a scalar (shared) or one value per member.
    atol, btol, conlim, iter_lim, precondition, calc_var:
        As for :func:`lsqr_solve`; shared by all members.  These are
        part of the serve layer's fusion compatibility key, so fused
        requests agree on them by construction.
    x0s:
        Optional per-member warm starts (physical units), ``None``
        entries meaning a cold start.
    clock, telemetry:
        As for :func:`lsqr_solve`.  Iteration telemetry lands under
        ``lsqr_batch.*``; member ``j``'s ``iteration_times`` are the
        batch sweep times of the iterations it was active in.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"B must be 2-D (K, m), got shape {B.shape}")
    K = B.shape[0]
    if K < 1:
        raise ValueError("B must stack at least one right-hand side")
    if not np.all(np.isfinite(B)):
        raise ValueError("B contains non-finite values")
    damps_arr = np.broadcast_to(
        np.asarray(damps, dtype=np.float64), (K,)
    ).copy()

    op, scaling = prepare(system, precondition=precondition,
                          telemetry=telemetry)
    m, n = op.shape
    if B.shape[1] != m:
        raise ValueError(f"B has {B.shape[1]} columns, expected {m}")
    if iter_lim is None:
        iter_lim = 2 * n
    if iter_lim < 1:
        raise ValueError(f"iter_lim must be >= 1, got {iter_lim}")

    B = B.copy()
    offsets = np.zeros((K, n))
    if x0s is not None:
        if len(x0s) != K:
            raise ValueError(f"x0s has {len(x0s)} entries, expected {K}")
        for j, x0 in enumerate(x0s):
            if x0 is None:
                continue
            if x0.shape != (n,):
                raise ValueError(
                    f"x0s[{j}] has shape {x0.shape}, expected ({n},)"
                )
            if not np.all(np.isfinite(x0)):
                raise ValueError(f"x0s[{j}] contains non-finite values")
            offsets[j] = np.asarray(x0, dtype=np.float64)
            B[j] -= op.aprod1(scaling.to_preconditioned(offsets[j]))

    tel = Telemetry.or_null(telemetry)
    engine = BatchedLSQRStepEngine(
        op, batch=K, damps=damps_arr, atol=atol, btol=btol,
        conlim=conlim, calc_var=calc_var, telemetry=telemetry,
    )
    state = engine.start(B)
    times: list[float] = []
    while not state.done and len(times) < iter_lim:
        t0 = clock()
        active = int(state.active.size)
        engine.step(state)
        times.append(clock() - t0)
        tel.counter("lsqr_batch.iterations").inc()
        tel.counter("lsqr_batch.member_iterations").inc(active)
        tel.histogram("lsqr_batch.iteration_time_s").observe(times[-1])

    return [_finish(member, m, n, times[: member.itn], scaling, offset)
            for member, offset in zip(state.members, offsets)]
