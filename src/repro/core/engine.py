"""The single LSQR step engine behind every solver driver.

The paper's portability argument is that *one* solver body runs
everywhere -- only the execution backend changes.  This module is that
body for the reproduction: one implementation of the Paige & Saunders
bidiagonalization + Givens update (refs [20], [21]: ACM TOMS 1982a/b)
with the AVU-GSR customizations (damping, variance accumulation, the
full ``istop`` stopping rules), parameterized by *how reductions
happen*:

- :class:`SerialReduction` reduces locally (the serial solver);
- ``repro.dist.runner.CommReduction`` wraps the simulated MPI
  collectives, so the distributed solver runs the very same
  ``step()`` -- it inherits stopping rules, checkpoint/resume and
  convergence tracing instead of re-typing the math.

The drivers (:func:`repro.core.lsqr.lsqr_solve`,
:class:`repro.dist.runner.DistributedLSQR`,
:class:`repro.resilience.recovery.ResilientDistributedLSQR`) own policy:
right-hand sides, preconditioning, iteration budgets, timing and
result types.  The engine owns the numerics.  Its entire iteration
state is the explicit, serializable :class:`EngineState` -- with ``u``
in global row order, its ``.npz`` archive is the one checkpoint format
every driver writes and resumes (:func:`resume_state`); per-iteration
workspaces are preallocated once so the hot loop performs no array
allocations.

The batched variant (:class:`BatchedEngineState` /
:class:`BatchedLSQRStepEngine`) stacks K compatible solves -- same
matrix, different right-hand sides and damping -- along a leading
batch axis, so one ``aprod1_batch`` / ``aprod2_batch`` pass advances
every still-running member at once while converged members stay
frozen bit-for-bit at their own stopping iteration.  Only the two
products are batched: each member is an :class:`EngineState` over rows
of the stacks, and everything after the bidiagonalization is the one
:func:`_update` both engines call, so a member's trajectory is the
serial trajectory by construction (``tests/test_engine_batch.py`` pins
the equivalence contract).
"""

from __future__ import annotations

import enum
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.core.atomic import atomic_write
from repro.obs.telemetry import Telemetry


class Aprod(Protocol):
    """Anything exposing the two structured products and a shape.

    Both products *accumulate* into ``out`` (``out += A x`` /
    ``out += A^T y``) and allocate the accumulator when ``out`` is
    None, matching :class:`~repro.core.aprod.AprodOperator`.
    """

    @property
    def shape(self) -> tuple[int, int]: ...

    def aprod1(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray: ...

    def aprod2(self, y: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray: ...


class StopReason(enum.IntEnum):
    """LSQR termination codes (Paige & Saunders' ``istop``)."""

    X_ZERO = 0          #: b = 0; the exact solution is x = 0.
    ATOL_BTOL = 1       #: Ax = b solved to atol/btol.
    LSQ_ATOL = 2        #: least-squares solution found to atol.
    CONLIM_WARN = 3     #: cond(Abar) close to conlim.
    ATOL_EPS = 4        #: Ax = b solved to machine precision.
    LSQ_EPS = 5         #: least-squares solved to machine precision.
    CONLIM_EPS = 6      #: cond(Abar) beyond machine precision.
    ITERATION_LIMIT = 7  #: iteration limit reached before convergence.
    # Recovery-path codes (repro.resilience): not produced by the
    # engine itself, reported by drivers that survive injected faults.
    DEGRADED = 8        #: finished after losing ranks (degraded mode).
    ABORTED_FAULTS = 9  #: resilience budget exhausted; solve aborted.


#: The codes that mean a convergence test fired (not a limit or fault).
CONVERGED = frozenset({
    StopReason.X_ZERO, StopReason.ATOL_BTOL, StopReason.LSQ_ATOL,
    StopReason.ATOL_EPS, StopReason.LSQ_EPS,
})


class ReductionBackend(Protocol):
    """How the engine's two per-iteration reductions are carried out.

    The bidiagonalization needs exactly two global reductions per
    iteration -- the production solver's two communication epochs:

    - the squared norm of the (possibly row-distributed) ``u`` vector;
    - the sum of the per-rank ``A^T u`` partials into the replicated
      unknown-space vector ``v``.

    A third, :meth:`time_max`, is the paper's max-over-ranks timing
    protocol; it carries no solver state.  Implementations with a real
    communicator label each reduction with the ``epoch`` it serves
    (``init``, ``normalize``, ``aprod2``) for telemetry.
    """

    def norm_sq(self, u_local: np.ndarray, *, epoch: str) -> float:
        """Global squared 2-norm of the row-space vector ``u``."""
        ...

    def accumulate_atu(self, op: Aprod, u_local: np.ndarray,
                       v: np.ndarray, *, epoch: str) -> None:
        """``v += A^T u`` reduced over all row blocks."""
        ...

    def time_max(self, seconds: float) -> float:
        """Max-over-ranks of one iteration's wall time."""
        ...


class SerialReduction:
    """Local reductions: the single-process backend."""

    def norm_sq(self, u_local: np.ndarray, *, epoch: str) -> float:
        """Squared 2-norm, computed locally."""
        return float(np.dot(u_local, u_local))

    def accumulate_atu(self, op: Aprod, u_local: np.ndarray,
                       v: np.ndarray, *, epoch: str) -> None:
        """``v += A^T u`` straight into the accumulator."""
        op.aprod2(u_local, out=v)

    def time_max(self, seconds: float) -> float:
        """One rank: the local time is the maximum."""
        return seconds


@dataclass
class EngineState:
    """The complete LSQR state after ``itn`` iterations.

    Everything the recurrence needs to continue -- the Lanczos vectors
    ``u`` (local row block), ``v``, ``w``, the accumulated solution
    ``x`` (preconditioned units), the bidiagonal scalars and the
    Paige & Saunders norm-estimate machinery -- lives here explicitly,
    so a state can be serialized mid-solve and resumed *bit-for-bit*.
    ``istop`` is None while the iteration is running; drivers that
    exhaust an iteration budget report
    :attr:`StopReason.ITERATION_LIMIT` themselves without marking the
    state done, so a resumed solve continues seamlessly.
    """

    itn: int
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    alfa: float
    beta: float
    rhobar: float
    phibar: float
    anorm: float = 0.0
    acond: float = 0.0
    ddnorm: float = 0.0
    res2: float = 0.0
    xnorm: float = 0.0
    xxnorm: float = 0.0
    z: float = 0.0
    cs2: float = -1.0
    sn2: float = 0.0
    bnorm: float = 0.0
    rnorm: float = 0.0
    r1norm: float = 0.0
    r2norm: float = 0.0
    arnorm: float = 0.0
    var: np.ndarray | None = None
    istop: StopReason | None = None

    @property
    def done(self) -> bool:
        """True once a stopping rule has fired."""
        return self.istop is not None

    _SCALARS = ("alfa", "beta", "rhobar", "phibar", "anorm", "acond",
                "ddnorm", "res2", "xnorm", "xxnorm", "z", "cs2", "sn2",
                "bnorm", "rnorm", "r1norm", "r2norm", "arnorm")

    def validate(self) -> list[str]:
        """NaN/Inf guard over the full iteration state.

        Returns the list of corrupted fields (empty when the state is
        clean).  A transient bit-flip or a corrupted reduction payload
        that slipped past the per-epoch checks poisons one of these
        within an iteration, so the resilience layer runs this guard at
        every checkpoint boundary and rolls back when it reports
        anything.
        """
        bad = [f for f in self._SCALARS
               if not np.isfinite(getattr(self, f))]
        for name in ("x", "u", "v", "w"):
            vec = getattr(self, name)
            if not np.all(np.isfinite(vec)):
                bad.append(name)
        if self.var is not None and not np.all(np.isfinite(self.var)):
            bad.append("var")
        return bad

    @property
    def is_finite(self) -> bool:
        """True when no state field holds a NaN/Inf."""
        return not self.validate()

    #: Archive members :meth:`load` requires (``var`` is optional).
    _MEMBERS = frozenset({"itn", "x", "u", "v", "w", "scalars", "istop"})

    def save(self, path: str | Path) -> Path:
        """Serialize the state to ``.npz``, through a temporary sibling:
        a kill mid-write never tears an archive already at ``path``."""
        path = Path(path).with_suffix(".npz")
        arrays = dict(
            itn=self.itn, x=self.x, u=self.u, v=self.v, w=self.w,
            scalars=np.array([getattr(self, f) for f in self._SCALARS]),
            istop=np.array(
                [-1 if self.istop is None else int(self.istop)]
            ),
        )
        if self.var is not None:
            arrays["var"] = self.var
        with atomic_write(path) as fh:
            np.savez_compressed(fh, **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "EngineState":
        """Reload a state written by :meth:`save`.

        ``path`` may come from outside the program (``resume_from``):
        a truncated or foreign ``.npz`` is a :class:`ValueError`.
        """
        path = Path(path).with_suffix(".npz")
        try:
            with np.load(path) as zf:
                missing = cls._MEMBERS - set(zf.files)
                if missing:
                    raise ValueError(
                        f"{path} is not an EngineState archive: no "
                        f"{sorted(missing)} among its members "
                        f"{sorted(zf.files)}"
                    )
                scalars = dict(zip(cls._SCALARS,
                                   (float(s) for s in zf["scalars"])))
                code = int(zf["istop"][0])
                return cls(
                    itn=int(zf["itn"]), x=zf["x"].copy(),
                    u=zf["u"].copy(), v=zf["v"].copy(),
                    w=zf["w"].copy(),
                    var=zf["var"].copy() if "var" in zf else None,
                    istop=None if code < 0 else StopReason(code),
                    **scalars,
                )
        except zipfile.BadZipFile as exc:
            raise ValueError(
                f"{path} is not a readable .npz archive (truncated or "
                f"corrupt): {exc}"
            ) from exc


def resume_state(resume_from: "str | Path | EngineState",
                 m: int, n: int) -> EngineState:
    """The state a driver continues from: a live one or the path of an
    archive any driver wrote, checked against the ``(m, n)`` system."""
    if isinstance(resume_from, EngineState):
        state, source = resume_from, "the resume_from state"
    else:
        state, source = EngineState.load(resume_from), str(resume_from)
    if state.u.size != m or state.x.size != n:
        raise ValueError(
            f"{source} holds a solve of {state.u.size} rows x "
            f"{state.x.size} unknowns; the system has {m} x {n}"
        )
    return state


_EPS = float(np.finfo(np.float64).eps)


def _plan_nbytes(op: Aprod) -> int:
    """Bytes of the operator's plan workspaces, when it exposes them."""
    plan = getattr(op, "plan", None)
    if plan is None:
        plan = getattr(getattr(op, "op", None), "plan", None)
    return 0 if plan is None else plan.workspace_nbytes


def _update(s: EngineState, dk: np.ndarray, tmp: np.ndarray, damp: float,
            atol: float, btol: float, ctol: float) -> tuple[float, float]:
    """The Paige & Saunders update after one bidiagonalization step.

    ``s`` already holds the new ``beta``, ``alfa``, ``u``, ``v`` and
    ``anorm``; this eliminates the damping, rotates, advances ``x`` /
    ``w`` / ``var`` in place through the ``dk`` / ``tmp`` workspaces,
    refreshes the norm estimates and sets ``istop`` when a stopping rule
    fires.  It is the only copy of the recurrence: the serial engine
    calls it once per step, the batched engine once per running member.
    Returns ``(test1, test2)`` for the batched engine's non-finite
    guard, which must not live here -- a serial or SPMD solve that
    stopped itself on a NaN would pre-empt the recovery driver's
    rollback.
    """
    dampsq = damp * damp
    beta = s.beta

    # Eliminate the damping parameter.
    rhobar1 = float(np.sqrt(s.rhobar**2 + dampsq))
    cs1 = s.rhobar / rhobar1
    sn1 = damp / rhobar1
    psi = sn1 * s.phibar
    s.phibar = cs1 * s.phibar

    # Plane rotation updating x and w.
    rho = float(np.sqrt(rhobar1**2 + beta**2))
    cs = rhobar1 / rho
    sn = beta / rho
    theta = sn * s.alfa
    s.rhobar = -cs * s.alfa
    phi = cs * s.phibar
    s.phibar = sn * s.phibar
    tau = sn * phi

    t1 = phi / rho
    t2 = -theta / rho
    np.divide(s.w, rho, out=dk)
    np.multiply(s.w, t1, out=tmp)
    s.x += tmp
    s.w *= t2
    s.w += s.v
    s.ddnorm += float(np.dot(dk, dk))
    if s.var is not None:
        np.multiply(dk, dk, out=tmp)
        s.var += tmp

    # Norm estimates (see Paige & Saunders 1982a, §5).
    delta = s.sn2 * rho
    gambar = -s.cs2 * rho
    rhs = phi - delta * s.z
    zbar = rhs / gambar
    s.xnorm = float(np.sqrt(s.xxnorm + zbar**2))
    gamma = float(np.sqrt(gambar**2 + theta**2))
    s.cs2 = gambar / gamma
    s.sn2 = theta / gamma
    s.z = rhs / gamma
    s.xxnorm += s.z * s.z

    s.acond = s.anorm * float(np.sqrt(s.ddnorm))
    res1 = s.phibar**2
    s.res2 += psi**2
    s.rnorm = float(np.sqrt(res1 + s.res2))
    s.arnorm = s.alfa * abs(tau)

    r1sq = s.rnorm**2 - dampsq * s.xxnorm
    s.r1norm = float(np.sqrt(abs(r1sq)))
    if r1sq < 0.0:
        s.r1norm = -s.r1norm
    s.r2norm = s.rnorm

    # Stopping tests.
    test1 = s.rnorm / s.bnorm
    test2 = s.arnorm / (s.anorm * s.rnorm + _EPS)
    test3 = 1.0 / (s.acond + _EPS)
    rtol = btol + atol * s.anorm * s.xnorm / s.bnorm
    t1_test = test1 / (1.0 + s.anorm * s.xnorm / s.bnorm)
    if 1.0 + test3 <= 1.0:
        s.istop = StopReason.CONLIM_EPS
    elif 1.0 + test2 <= 1.0:
        s.istop = StopReason.LSQ_EPS
    elif 1.0 + t1_test <= 1.0:
        s.istop = StopReason.ATOL_EPS
    elif test3 <= ctol:
        s.istop = StopReason.CONLIM_WARN
    elif test2 <= atol:
        s.istop = StopReason.LSQ_ATOL
    elif test1 <= rtol:
        s.istop = StopReason.ATOL_BTOL
    return test1, test2


class LSQRStepEngine:
    """One LSQR iteration, parameterized by a reduction backend.

    Parameters
    ----------
    op:
        The (already preconditioned, possibly row-local) operator.
    backend:
        How reductions happen; defaults to :class:`SerialReduction`.
    damp, atol, btol, conlim:
        Paige & Saunders parameters of the stopping rules.
    calc_var:
        Accumulate the ``var`` estimate of ``diag((A^T A)^-1)``.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  Each :meth:`step`
        emits one ``<span_prefix>.iteration`` span (labels from
        ``span_labels`` plus ``itn``); with ``phase_spans`` the
        serial-profile ``.aprod1`` / ``.normalize`` / ``.aprod2`` /
        ``.update`` children are emitted too (the §V-A breakdown).
        Distributed drivers disable phase spans so their communication
        epochs stay direct children of the iteration span.
    """

    def __init__(
        self,
        op: Aprod,
        *,
        backend: ReductionBackend | None = None,
        damp: float = 0.0,
        atol: float = 1e-10,
        btol: float = 1e-10,
        conlim: float = 1e8,
        calc_var: bool = True,
        telemetry: Telemetry | None = None,
        span_prefix: str = "lsqr",
        span_labels: dict[str, str] | None = None,
        phase_spans: bool = True,
    ) -> None:
        if damp < 0 or not np.isfinite(damp):
            raise ValueError(f"damp must be >= 0, got {damp}")
        if atol < 0 or btol < 0:
            raise ValueError("atol and btol must be >= 0")
        self.op = op
        self.backend: ReductionBackend = (backend if backend is not None
                                          else SerialReduction())
        self.damp = damp
        self.atol = atol
        self.btol = btol
        self.conlim = conlim
        self.calc_var = calc_var
        self._tel = Telemetry.or_null(telemetry)
        self._phase_tel = (self._tel if phase_spans
                           else Telemetry.or_null(None))
        self._prefix = span_prefix
        self._labels = dict(span_labels or {})
        self._ctol = 1.0 / conlim if conlim > 0 else 0.0
        self._dampsq = damp * damp
        n = op.shape[1]
        # Hot-loop workspaces, allocated once: the loop itself performs
        # no array allocations (each product allocates its result).
        self._dk = np.empty(n)
        self._tmp = np.empty(n)

    @property
    def workspace_bytes(self) -> int:
        """Bytes preallocated for the hot loop (engine vectors plus the
        operator's plan workspaces, when it exposes them)."""
        return (self._dk.nbytes + self._tmp.nbytes
                + _plan_nbytes(self.op))

    # ------------------------------------------------------------------
    def start(self, b_local: np.ndarray) -> EngineState:
        """Initialize the bidiagonalization from the local rhs block.

        The engine takes ownership of ``b_local`` (it becomes ``u``).
        Degenerate systems stop immediately: ``b = 0`` yields
        :attr:`StopReason.X_ZERO`, ``A^T b = 0`` yields
        :attr:`StopReason.LSQ_ATOL` (x = 0 is the LS solution).
        """
        n = self.op.shape[1]
        u = np.asarray(b_local, dtype=np.float64)
        beta = float(np.sqrt(self.backend.norm_sq(u, epoch="init")))
        var = np.zeros(n) if self.calc_var else None
        if beta == 0.0:
            return EngineState(
                itn=0, x=np.zeros(n), u=u, v=np.zeros(n), w=np.zeros(n),
                alfa=0.0, beta=0.0, rhobar=0.0, phibar=0.0, var=var,
                istop=StopReason.X_ZERO,
            )
        u /= beta
        v = np.zeros(n)
        self.backend.accumulate_atu(self.op, u, v, epoch="init")
        alfa = float(np.sqrt(np.dot(v, v)))
        if alfa == 0.0:
            # b is orthogonal to the range of A: x = 0 is the LS
            # solution.
            return EngineState(
                itn=0, x=np.zeros(n), u=u, v=v, w=np.zeros(n),
                alfa=0.0, beta=beta, rhobar=0.0, phibar=beta,
                bnorm=beta, rnorm=beta, r1norm=beta, r2norm=beta,
                var=var, istop=StopReason.LSQ_ATOL,
            )
        v /= alfa
        return EngineState(
            itn=0, x=np.zeros(n), u=u, v=v, w=v.copy(),
            alfa=alfa, beta=beta, rhobar=alfa, phibar=beta,
            bnorm=beta, rnorm=beta, r1norm=beta, r2norm=beta,
            arnorm=alfa * beta, var=var,
        )

    # ------------------------------------------------------------------
    def step(self, s: EngineState) -> EngineState:
        """Advance one iteration in place; set ``istop`` on convergence.

        A no-op on a done state.  Every rank of a distributed solve
        executes this identical body on replicated scalars, so all
        ranks take the same stopping decision on the same iteration.
        """
        if s.istop is not None:
            return s
        op, backend = self.op, self.backend
        s.itn += 1
        tel, ptel = self._tel, self._phase_tel
        with tel.span(f"{self._prefix}.iteration", **self._labels,
                      itn=s.itn):
            # Bidiagonalization step: next beta, u, alfa, v.
            with ptel.span(f"{self._prefix}.aprod1"):
                s.u *= -s.alfa
                op.aprod1(s.v, out=s.u)
            with ptel.span(f"{self._prefix}.normalize"):
                beta = float(np.sqrt(
                    backend.norm_sq(s.u, epoch="normalize")
                ))
                s.beta = beta
                if beta > 0.0:
                    s.u /= beta
                    s.anorm = float(np.sqrt(
                        s.anorm**2 + s.alfa**2 + beta**2 + self._dampsq
                    ))
            if beta > 0.0:
                with ptel.span(f"{self._prefix}.aprod2"):
                    s.v *= -beta
                    backend.accumulate_atu(op, s.u, s.v, epoch="aprod2")
                    alfa = float(np.sqrt(np.dot(s.v, s.v)))
                    s.alfa = alfa
                    if alfa > 0.0:
                        s.v /= alfa

            with ptel.span(f"{self._prefix}.update"):
                _update(s, self._dk, self._tmp, self.damp, self.atol,
                        self.btol, self._ctol)
        return s


class BatchedAprod(Protocol):
    """Operators additionally exposing stacked-batch products.

    ``aprod1_batch`` / ``aprod2_batch`` apply ``A`` / ``A^T`` to every
    row of a ``(K, n)`` / ``(K, m)`` stack in one pass, accumulating
    into ``out`` exactly like the single-vector products.  Both
    :class:`~repro.core.aprod.AprodOperator` and
    :class:`~repro.core.precond.PreconditionedAprod` satisfy this.
    """

    @property
    def shape(self) -> tuple[int, int]: ...

    def aprod1(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray: ...

    def aprod2(self, y: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray: ...

    def aprod1_batch(self, X: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray: ...

    def aprod2_batch(self, Y: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray: ...


#: Sentinel in :attr:`BatchedEngineState.istop` for a running member.
ISTOP_RUNNING = -1


@dataclass
class BatchedEngineState:
    """``K`` stacked LSQR solves: four stacks and ``K`` serial states.

    The layout is batch-major C order: ``X``/``U``/``V``/``W`` (and
    ``var``) hold one member per *row*, which is what the batched
    products read and write.  ``members[j]`` is member ``j``'s whole
    state as an :class:`EngineState` whose vectors are *views* of row
    ``j`` -- contiguous, so per-member norms are bitwise the serial
    engine's -- and whose scalars, ``itn`` and ``istop`` are its own, in
    the one checkpoint format every driver resumes.  Converged members
    freeze at their own ``itn``: later steps never touch their rows.
    """

    X: np.ndarray
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    var: np.ndarray | None
    members: list[EngineState]

    @property
    def batch(self) -> int:
        """Number of stacked members."""
        return len(self.members)

    @property
    def itn(self) -> np.ndarray:
        """Per-member iteration counts."""
        return np.array([m.itn for m in self.members], dtype=np.int64)

    @property
    def istop(self) -> np.ndarray:
        """Per-member stopping codes, :data:`ISTOP_RUNNING` (-1) for
        members still iterating."""
        return np.array([ISTOP_RUNNING if m.istop is None else int(m.istop)
                         for m in self.members], dtype=np.int64)

    @property
    def active(self) -> np.ndarray:
        """Indices of members still iterating."""
        return np.flatnonzero(self.istop == ISTOP_RUNNING)

    @property
    def done(self) -> bool:
        """True once every member has a stopping reason."""
        return all(m.done for m in self.members)

    def stop_reason(self, j: int) -> StopReason | None:
        """Member ``j``'s stopping reason, None while running."""
        return self.members[j].istop

    def member(self, j: int) -> EngineState:
        """A standalone :class:`EngineState` copy of member ``j``."""
        m = self.members[j]
        return replace(m, x=m.x.copy(), u=m.u.copy(), v=m.v.copy(),
                       w=m.w.copy(),
                       var=None if m.var is None else m.var.copy())

    def abort_member(
        self, j: int,
        reason: StopReason = StopReason.ABORTED_FAULTS,
    ) -> None:
        """Freeze member ``j`` with ``reason`` (no-op if already done)."""
        if not self.members[j].done:
            self.members[j].istop = reason

    def validate_member(self, j: int) -> list[str]:
        """NaN/Inf guard over one member's state (see
        :meth:`EngineState.validate`)."""
        return self.members[j].validate()


class BatchedLSQRStepEngine:
    """One LSQR iteration advancing every running member of a batch.

    What is batched is the two products: ``aprod1_batch`` /
    ``aprod2_batch`` run once over the running members' ``U`` / ``V``
    rows (compacted into workspaces once a member has frozen), with
    per-row ``np.dot`` norms and broadcast row scaling that are
    elementwise the serial operations.  Each running member then goes
    through :func:`_update`, the serial engine's own recurrence, on its
    row views.  Member ``j`` of either batched product is bitwise the
    single product, so a batch member is bitwise its serial solve on
    every kernel preset.

    Per-member stopping is therefore the serial rules; on top of them
    a member whose recurrence went non-finite (e.g. a fault injected
    into its rhs mid-batch) is frozen with
    :attr:`StopReason.ABORTED_FAULTS` on that iteration while its
    siblings continue unharmed -- member rows never mix in any batched
    pass, so corruption cannot leak across the batch.  The guard is
    applied here, after the shared update, and only here: the serial
    and SPMD drivers leave a poisoned state to the recovery driver.

    Parameters
    ----------
    op:
        A :class:`BatchedAprod` (already preconditioned if desired).
    batch:
        Number of stacked members ``K``.
    damps:
        Per-member damping: a scalar or a ``(K,)`` array-like.
    atol, btol, conlim, calc_var, telemetry:
        As for :class:`LSQRStepEngine`; shared by all members (the
        serve layer only fuses requests agreeing on these).
    """

    def __init__(
        self,
        op: BatchedAprod,
        *,
        batch: int,
        damps: float | np.ndarray = 0.0,
        atol: float = 1e-10,
        btol: float = 1e-10,
        conlim: float = 1e8,
        calc_var: bool = True,
        telemetry: Telemetry | None = None,
        span_prefix: str = "lsqr_batch",
        span_labels: dict[str, str] | None = None,
    ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        damps = np.broadcast_to(
            np.asarray(damps, dtype=np.float64), (batch,)
        )
        if np.any(damps < 0) or not np.all(np.isfinite(damps)):
            raise ValueError("every damp must be finite and >= 0")
        if atol < 0 or btol < 0:
            raise ValueError("atol and btol must be >= 0")
        self.op = op
        self.batch = batch
        self.damps: list[float] = damps.tolist()
        self.atol = atol
        self.btol = btol
        self.conlim = conlim
        self.calc_var = calc_var
        self._tel = Telemetry.or_null(telemetry)
        self._prefix = span_prefix
        self._labels = dict(span_labels or {})
        self._ctol = 1.0 / conlim if conlim > 0 else 0.0
        m, n = op.shape
        # Full-width hot-loop workspaces: once a member has frozen, the
        # running members' U / V rows are compacted into the leading
        # rows for the batched products, so the loop allocates no
        # vector regardless of how convergence staggers.  The update
        # works member by member and needs one dk / tmp pair.
        self._Uws = np.empty((batch, m))
        self._Vws = np.empty((batch, n))
        self._dk = np.empty(n)
        self._tmp = np.empty(n)

    @property
    def workspace_bytes(self) -> int:
        """Bytes preallocated for the batched hot loop (engine stacks
        plus the operator's plan workspaces, when it exposes them)."""
        return (self._Uws.nbytes + self._Vws.nbytes + self._dk.nbytes
                + self._tmp.nbytes + _plan_nbytes(self.op))

    # ------------------------------------------------------------------
    def start(self, B: np.ndarray) -> BatchedEngineState:
        """Initialize the batched bidiagonalization from stacked rhs.

        ``B`` is ``(K, m)``; the engine copies it (the copy becomes
        ``U``).  Degenerate members stop immediately with the serial
        codes (:attr:`StopReason.X_ZERO` / :attr:`StopReason.LSQ_ATOL`)
        while the rest start iterating.
        """
        K = self.batch
        m, n = self.op.shape
        B = np.asarray(B, dtype=np.float64)
        if B.shape != (K, m):
            raise ValueError(f"B must be ({K}, {m}), got {B.shape}")
        U = np.ascontiguousarray(B, dtype=np.float64).copy()
        beta = np.array([float(np.sqrt(np.dot(u, u))) for u in U])
        np.divide(U, beta[:, None], out=U, where=beta[:, None] > 0.0)
        V = np.zeros((K, n))
        self.op.aprod2_batch(U, out=V)
        alfa = np.array([float(np.sqrt(np.dot(v, v))) for v in V])
        np.divide(V, alfa[:, None], out=V, where=alfa[:, None] > 0.0)
        X, W = np.zeros((K, n)), V.copy()
        var = np.zeros((K, n)) if self.calc_var else None
        members = [
            EngineState(
                itn=0, x=X[j], u=U[j], v=V[j], w=W[j], alfa=a, beta=b,
                rhobar=a, phibar=b, bnorm=b, rnorm=b, r1norm=b, r2norm=b,
                arnorm=a * b, var=None if var is None else var[j],
                istop=(StopReason.X_ZERO if b == 0.0
                       else StopReason.LSQ_ATOL if a == 0.0 else None),
            )
            for j, (a, b) in enumerate(zip(alfa.tolist(), beta.tolist()))
        ]
        return BatchedEngineState(X=X, U=U, V=V, W=W, var=var,
                                  members=members)

    # ------------------------------------------------------------------
    def step(self, s: BatchedEngineState) -> BatchedEngineState:
        """Advance every running member one iteration in place.

        A no-op once all members are done.  Frozen members' rows and
        scalars are never read or written.
        """
        idx = s.active
        k = idx.size
        if k == 0:
            return s
        run = [s.members[j] for j in idx]
        damps = [self.damps[j] for j in idx]
        for mem in run:
            mem.itn += 1
        with self._tel.span(f"{self._prefix}.iteration", **self._labels,
                            itn=max(mem.itn for mem in run), active=k):
            # With every member still running the state stacks ARE the
            # compacted views -- the products run on them in place and
            # the gather/scatter copies are skipped entirely (the
            # common case until the first member converges).
            full = k == s.batch
            if full:
                U, V = s.U, s.V
            else:
                U, V = self._Uws[:k], self._Vws[:k]
                np.take(s.U, idx, axis=0, out=U)
                np.take(s.V, idx, axis=0, out=V)

            # Bidiagonalization: next beta, u, alfa, v -- one batched
            # pass each way, per-row norms.
            U *= -np.array([mem.alfa for mem in run])[:, None]
            self.op.aprod1_batch(V, out=U)
            beta = np.array([float(np.sqrt(np.dot(u, u))) for u in U])
            np.divide(U, beta[:, None], out=U, where=beta[:, None] > 0.0)
            for mem, damp, b in zip(run, damps, beta.tolist()):
                mem.beta = b
                if b > 0.0:
                    # anorm advances with the *old* alfa, as in the
                    # serial step: before the transpose pass below.
                    mem.anorm = float(np.sqrt(
                        mem.anorm**2 + mem.alfa**2 + b**2 + damp * damp
                    ))

            if np.all(beta > 0.0):
                V *= -beta[:, None]
                self.op.aprod2_batch(U, out=V)
                alfa = np.array([float(np.sqrt(np.dot(v, v))) for v in V])
                np.divide(V, alfa[:, None], out=V,
                          where=alfa[:, None] > 0.0)
                for mem, a in zip(run, alfa.tolist()):
                    mem.alfa = a
            else:
                # Exact-breakdown members (beta == 0) skip the
                # transpose pass, matching the serial engine; run the
                # rest individually through the single-vector product.
                for j in np.flatnonzero(beta > 0.0):
                    V[j] *= -beta[j]
                    self.op.aprod2(U[j], out=V[j])
                    a = run[j].alfa = float(np.sqrt(np.dot(V[j], V[j])))
                    if a > 0.0:
                        V[j] /= a

            # Scatter the advanced rows back (in place already when the
            # whole batch was active) before any update reads ``v``.
            if not full:
                s.U[idx] = U
                s.V[idx] = V

            for mem, damp in zip(run, damps):
                test1, test2 = _update(mem, self._dk, self._tmp, damp,
                                       self.atol, self.btol, self._ctol)
                if not (np.isfinite(test1) and np.isfinite(test2)
                        and np.isfinite(mem.xnorm)):
                    # A non-finite recurrence (injected fault, bit
                    # flip) can never satisfy a stopping rule -- freeze
                    # this member alone, over whatever the chain set.
                    mem.istop = StopReason.ABORTED_FAULTS
        return s
