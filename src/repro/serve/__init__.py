"""Multi-tenant serving layer over :func:`repro.api.solve`.

The repo's first component where wall-clock concurrency, capacity and
correctness interact: many concurrent solve jobs scheduled onto a
heterogeneous pool of (simulated) GPUs, with the paper's central
operational fact -- solves are gated by device memory; only
H100-class boards and one MI250X GCD hold the 60 GB system -- turned
into the placement policy.

- :class:`DevicePool` / :class:`~repro.serve.pool.DeviceLane` --
  platform entries from :mod:`repro.gpu.platforms` with tracked free
  memory and per-device
  FIFO work lanes (``per_gcd=True`` by default, so MI250X placement
  uses the 64 GB a single solve can address);
- :class:`Scheduler` -- priority-queue admission with memory-fit +
  backpressure admission control, cheapest-feasible placement by the
  :class:`PlacementCostModel` (the §V-B efficiency table as prices),
  dispatcher threads pushing placed jobs through a pluggable worker
  backend (``backend="thread"`` solves in-process;
  ``backend="process"`` ships picklable specs to a pool of spawned
  solve processes that attach matrices zero-copy from the
  :class:`SystemStore`), and re-placement of DEGRADED/ABORTED
  resilient solves on a different device; with ``max_fuse > 1`` it
  also coalesces fusion-compatible queued requests (equal
  :func:`~repro.serve.cache.fusion_key`: same matrix digest and shared
  engine configuration) into one batched many-RHS
  :func:`repro.api.solve_batch` sweep;
- :class:`SystemStore` -- store-private shared-memory segments
  holding the matrix of a :class:`~repro.system.sparse.GaiaSystem`,
  published once per distinct matrix and attached read-only by segment
  name from worker processes (the right-hand side rides in each
  task);
- :class:`ResultCache` -- deterministic LRU keyed by (system digest,
  config digest); fused-batch members are cached individually
  (solution vectors for warm starts live in
  :class:`repro.sessions.SessionStore`, which the scheduler consults
  -- pass ``sessions=`` -- to warm-start re-solves from exact-digest
  or ancestor solutions and to park/resume preempted solves; see
  ``docs/sessions.md``);
- :class:`~repro.serve.loadgen.LoadGenerator` -- seeded open-loop
  streams of mixed 10/30/60 GB-shaped (scaled-down) jobs;
- :func:`~repro.serve.scenario.run_scenario` -- one JSON scenario file
  to a full :class:`~repro.serve.scheduler.ServeReport` (the
  ``repro-gaia serve`` subcommand).

See ``docs/serving.md`` for the architecture and the knobs.
"""

from repro.serve.cache import ResultCache
from repro.serve.cost import PlacementCostModel
from repro.serve.job import AdmissionDecision, ServeJob
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler
from repro.serve.shm import SystemStore, active_segments
