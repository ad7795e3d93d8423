"""Content-addressed persistence for tuned kernel configs.

The cache maps sweep-spec digests (see
:class:`~repro.tuning.sweep.SweepSpec`) to
:class:`~repro.tuning.sweep.TunedConfig` entries through two layers:
an in-memory LRU front (repeat lookups are O(1) dict hits) and an
optional disk directory where each entry is one ``<digest>.json`` file
holding exactly ``config.to_json().encode()`` -- canonical bytes, so
re-running a sweep rewrites the identical file and two machines that
computed the same cell can diff their caches byte-for-byte.

Besides storage the cache owns two pieces of serve-facing state:

* the ``serve.tuning.hits`` / ``serve.tuning.misses`` /
  ``serve.tuning.stale`` counter family (a *stale* lookup is a miss
  for a cell the cache holds under a different digest -- typically an
  entry orphaned by a :data:`~repro.tuning.sweep.MODEL_VERSION` bump);
* a monotone **generation** counter, bumped on every
  :meth:`~TunedConfigCache.put`.  The placement cost model keys its
  memo on it, so a background sweep landing invalidates every price
  computed before it -- a stale memo can never outlive a newer tuned
  entry (see ``docs/tuning.md``).
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path

from repro.core.atomic import atomic_write
from repro.obs.telemetry import Telemetry
from repro.tuning.sweep import SweepSpec, TunedConfig


class TunedConfigCache:
    """Two-layer (LRU memory / disk) tuned-config store."""

    def __init__(self, path: str | os.PathLike | None = None, *,
                 capacity: int = 128, telemetry=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = Path(path) if path is not None else None
        self.capacity = capacity
        self.telemetry = Telemetry.or_null(telemetry)
        #: Bumped on every put; cost-model memos key on it.
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self._mem: OrderedDict[str, TunedConfig] = OrderedDict()
        #: (port, platform, size_class) -> digest of the newest entry,
        #: used to tell a *stale* miss from a never-tuned one.
        self._cell_digest: dict[tuple[str, str, str], str] = {}
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            self._load_index()

    # -- persistence -------------------------------------------------
    def _file(self, digest: str) -> Path:
        assert self.path is not None
        return self.path / f"{digest}.json"

    @staticmethod
    def _read(file: Path) -> TunedConfig | None:
        """The entry ``file`` holds, or None when there is no readable
        entry at that address (missing, foreign, truncated, renamed, or
        written in an older schema)."""
        try:
            cfg = TunedConfig.from_json(file.read_text())
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return None
        return cfg if cfg.spec.digest() == file.stem else None

    def _load_index(self) -> None:
        """Rebuild the cell index from disk (cold-start warm state)."""
        assert self.path is not None
        for file in sorted(self.path.glob("*.json")):
            cfg = self._read(file)
            if cfg is not None:
                self._cell_digest[cfg.spec.cell] = file.stem

    def _write(self, digest: str, config: TunedConfig) -> None:
        assert self.path is not None
        # Atomic publish: a reader never observes a half-written file.
        with atomic_write(self._file(digest)) as fh:
            fh.write(config.to_json().encode("utf-8"))

    # -- the cache protocol ------------------------------------------
    def get(self, spec: SweepSpec) -> TunedConfig | None:
        """The tuned config for ``spec``, or None on a miss.

        Memory first, then disk (promoting to memory), then miss; a
        file at the digest that is not a readable entry is a miss too.
        A miss whose cell is present under another digest also counts
        as ``serve.tuning.stale``.
        """
        digest = spec.digest()
        config = self._mem.get(digest)
        if config is not None:
            self._mem.move_to_end(digest)
            self._hit()
            return config
        if self.path is not None:
            config = self._read(self._file(digest))
            if config is not None:
                self._remember(digest, config)
                self._hit()
                return config
        self.misses += 1
        self.telemetry.counter("serve.tuning.misses").inc()
        held = self._cell_digest.get(spec.cell)
        if held is not None and held != digest:
            self.stale += 1
            self.telemetry.counter("serve.tuning.stale").inc()
        return None

    def put(self, config: TunedConfig) -> str:
        """Store a tuned config; returns its digest.

        Every put bumps :attr:`generation`, including an idempotent
        re-put of identical content -- "a sweep landed" is the signal
        price memos key on, and over-invalidation is merely a
        recompute while under-invalidation is a wrong price.
        """
        digest = config.spec.digest()
        if self.path is not None:
            self._write(digest, config)
        self._remember(digest, config)
        self._cell_digest[config.spec.cell] = digest
        self.generation += 1
        self.telemetry.counter("serve.tuning.put").inc()
        return digest

    def _remember(self, digest: str, config: TunedConfig) -> None:
        self._mem[digest] = config
        self._mem.move_to_end(digest)
        while len(self._mem) > self.capacity:
            evicted, cfg = self._mem.popitem(last=False)
            self.telemetry.counter("serve.tuning.evictions").inc()
            if self.path is None:
                # No disk layer: the entry is gone for good, so the
                # cell index must not keep promising it exists.
                if self._cell_digest.get(cfg.spec.cell) == evicted:
                    del self._cell_digest[cfg.spec.cell]

    def _hit(self) -> None:
        self.hits += 1
        self.telemetry.counter("serve.tuning.hits").inc()

    # -- introspection -----------------------------------------------
    def __len__(self) -> int:
        """Distinct entries reachable (memory + cell index)."""
        return len(set(self._cell_digest.values()) | set(self._mem))

    def __contains__(self, spec: SweepSpec) -> bool:
        digest = spec.digest()
        if digest in self._mem:
            return True
        return self.path is not None and self._file(digest).exists()

    def stats(self) -> dict[str, int]:
        """Counter snapshot, for reports and the CLI."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "generation": self.generation,
            "entries": len(self),
        }
