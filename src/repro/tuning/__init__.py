"""Online kernel-geometry autotuning (``docs/tuning.md``).

The §V-B geometry sweep, written once, as a service the serve layer
can lean on:

- :mod:`~repro.tuning.sizeclass` -- 10/30/60 GB bucketing so a
  handful of sweeps covers every job size;
- :mod:`~repro.tuning.sweep` -- the candidate grid,
  :class:`SweepSpec` identities (the content address),
  :class:`TunedConfig` results, and the :class:`GeometrySweeper`, the
  only sweep, which times each candidate through the executor's one
  modeled launch sequence and refuses a port that is not
  :meth:`~repro.frameworks.base.Port.tunable` on the platform;
- :mod:`~repro.tuning.cache` -- the disk-persisted, LRU-fronted
  :class:`TunedConfigCache` with the ``serve.tuning.*`` counters and
  the generation signal price memos key on;
- :mod:`~repro.tuning.service` -- :class:`TuningService`:
  compute-at-most-once :meth:`~TuningService.tune` plus packaging of
  sweeps as low-priority background ServeJobs;
- :mod:`~repro.tuning.study` -- Pennycook P tuned vs. out-of-the-box;
- :mod:`~repro.tuning.ablation` -- the E38 tuned-vs-nominal placement
  A/B.

Nothing here imports :mod:`repro.serve` at module scope; the serve
cost model imports *us*, and the two service-side touch points
(ServeJob packaging, the ablation's cost models) import lazily.
"""

from repro.tuning.cache import TunedConfigCache
from repro.tuning.service import TuningService
from repro.tuning.sizeclass import size_class_for
from repro.tuning.sweep import GeometrySweeper, default_spec
