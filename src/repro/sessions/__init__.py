"""Solve-session lifecycle: warm starts, lineage, preempt/resume.

The rest of the repo treats a solve as a one-shot call; Gaia's real
AVU-GSR pipeline does not.  It re-solves as observations accumulate
between data reductions, and the paper's cost model is iteration
count x iteration time -- so every LSQR iteration a prior solution
removes is a direct wall-clock win.  This subsystem makes a solve a
*resumable, evolving session*:

- :class:`SessionStore` -- a content-addressed, disk-persisted
  lineage store mapping system digest -> (solution ``x``, convergence
  metadata, parent digest), with an LRU byte budget, atomic writes
  and ``serve.sessions.*`` telemetry; it also parks the
  :class:`~repro.core.engine.EngineState` archive of preempted solves;
- :func:`resolve_warm_start` /
  :class:`~repro.sessions.warmstart.WarmStart` -- exact-digest or
  nearest-ancestor ``x0`` resolution, consumed by
  ``api.solve(..., sessions=store)`` and the serve scheduler;
- :func:`record_solution` -- deposits a finished report back into the
  store, chaining the parent link;
- ``seed_request`` / ``record_if_clean`` / ``stamp_warm_start``
  (:mod:`~repro.sessions.warmstart`) -- the eligibility, record-guard
  and provenance steps both consumers share;
- preempt/checkpoint/resume -- the scheduler side lives in
  :mod:`repro.serve.scheduler` (``preempt_slice``): a low-priority
  solve runs as checkpointed slices, parks here when a more urgent
  job is starved, and resumes later, possibly on another device,
  bit-for-bit.

See ``docs/sessions.md`` for the store layout, the lineage model and
the preemption state machine.
"""

from repro.sessions.store import SessionStore
from repro.sessions.warmstart import record_solution, resolve_warm_start
