"""Disk-persisted, content-addressed solve-session store.

The store is the memory of the session subsystem: every finished
solve may deposit its solution vector under the *system digest* (see
:mod:`repro.system.digest`), together with its convergence metadata
and the digest of the system it grew from.  Because digests chain
parent -> child along :func:`repro.system.merge.append_observations`
lineages, a later re-solve of the same -- or an incrementally grown --
system can look up an exact or nearest-ancestor solution and warm
start from it (:mod:`repro.sessions.warmstart`).

Layout: one directory, two kinds of files.

- ``sol-<digest>.npz`` -- a solution record: ``x``, iteration count,
  final residual norm, stop-reason name, and the parent digest.
  Written atomically (temp file + ``os.replace``) so a crash mid-write
  never leaves a truncated record, and re-indexed by a directory scan
  on reopen, so a store survives the process that filled it.  A record
  found unreadable (torn or corrupted behind the store's back) is
  renamed ``quarantined-sol-<digest>.npz``: out of the scan, never
  re-read, and left for inspection.
- ``park-<job id>.npz`` + ``park-<job id>.json`` -- a *parked* solve:
  the :class:`~repro.core.engine.EngineState` archive of a preempted
  job (written by its solve driver straight into :meth:`park_path`)
  plus a metadata sidecar (iterations done, preemption attempt,
  devices visited).  Parked state is claimed and discarded by the
  scheduler's preempt/resume path (``docs/sessions.md``).

Solution records live under an LRU byte budget -- least recently
*used* records are deleted when a put overflows it.  Parked
checkpoints count toward the reported byte totals but are never
evicted: evicting a solution costs iterations, evicting a parked job
would lose work a client is still waiting on.

All methods are thread-safe; ``serve.sessions.*`` telemetry counters
tick on put/hit/miss/eviction/park/resume.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.atomic import atomic_write
from repro.obs.telemetry import Telemetry

#: What reading a record may raise when its file is gone, truncated or
#: foreign: such a record is dropped from the index, never served.
_UNREADABLE = (OSError, KeyError, ValueError, zipfile.BadZipFile)

#: Prefix an unreadable record is renamed under (the scan reads only
#: ``sol-*.npz``).
QUARANTINE_PREFIX = "quarantined-"


@dataclass(frozen=True)
class SessionRecord:
    """One stored solution: the vector plus how it converged."""

    digest: str
    x: np.ndarray
    itn: int
    r2norm: float
    stop: str
    parent: str | None
    nbytes: int


@dataclass(frozen=True)
class ParkedSession:
    """A preempted solve waiting in the store to be resumed."""

    key: str
    path: str
    itn: int
    attempt: int
    devices: tuple[str, ...]


class SessionStore:
    """Content-addressed lineage store of solve-session state.

    Parameters
    ----------
    root:
        Directory to persist into.  ``None`` creates (and owns) a
        temporary directory removed by :meth:`close`; an existing
        directory is re-indexed, so sessions survive restarts.
    budget_bytes:
        LRU byte budget for solution records (parked checkpoints are
        exempt; see module docstring).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` for the
        ``serve.sessions.*`` counters.
    """

    def __init__(self, root: str | Path | None = None, *,
                 budget_bytes: int = 64 * 2**20,
                 telemetry: Telemetry | None = None) -> None:
        if budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be > 0, got {budget_bytes}")
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if root is None:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-sessions-")
            root = self._tmpdir.name
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.budget_bytes = budget_bytes
        self.tel = Telemetry.or_null(telemetry)
        self._lock = threading.Lock()
        # digest -> (path, nbytes, itn, r2norm, stop, parent); LRU
        # order, most recently used last.
        self._index: "OrderedDict[str, tuple[Path, int, int, float, str, str | None]]" = (
            OrderedDict())
        self._parked: dict[str, ParkedSession] = {}
        self.puts = 0
        self.hits = 0
        self.ancestor_hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        self._reindex()

    # ------------------------------------------------------------------
    # Solution records
    # ------------------------------------------------------------------
    def put(self, digest: str, x: np.ndarray, *, itn: int,
            r2norm: float, stop: str, parent: str | None = None) -> None:
        """Persist one solution record atomically, evicting LRU overflow.

        A record larger than the whole budget is dropped (storing it
        would evict everything else for a vector that itself cannot
        stay).
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        if x.nbytes > self.budget_bytes:
            return
        path = self.root / f"sol-{digest}.npz"
        with atomic_write(path) as fh:
            np.savez(fh, x=x, itn=np.int64(itn),
                     r2norm=np.float64(r2norm), stop=np.str_(stop),
                     parent=np.str_(parent or ""))
        nbytes = path.stat().st_size
        with self._lock:
            self._index.pop(digest, None)
            self._index[digest] = (path, nbytes, int(itn), float(r2norm),
                                   str(stop), parent)
            self.puts += 1
            self.tel.counter("serve.sessions.put").inc()
            self._evict_over_budget()
            self._gauge_bytes()

    def get(self, digest: str) -> SessionRecord | None:
        """The stored record for one system digest (LRU-refreshed)."""
        with self._lock:
            entry = self._index.get(digest)
            if entry is None:
                return None
            self._index.move_to_end(digest)
            path, nbytes, itn, r2norm, stop, parent = entry
        try:
            with np.load(path) as npz:
                x = np.array(npz["x"])
        except _UNREADABLE:
            # A record deleted, truncated or corrupted behind our back
            # (e.g. a concurrent store over the same directory, a
            # crash mid-copy): quarantine it, and the solve runs cold
            # -- unless a put replaced the record meanwhile.
            with self._lock:
                if self._index.get(digest) is entry:
                    del self._index[digest]
                    self._quarantine(path)
                    self._gauge_bytes()
            return None
        return SessionRecord(digest=digest, x=x, itn=itn,
                             r2norm=r2norm, stop=stop, parent=parent,
                             nbytes=nbytes)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def note_lookup(self, kind: str) -> None:
        """Tick one warm-start resolution outcome counter.

        ``kind`` is ``"hit"`` (exact digest), ``"ancestor_hit"``
        (lineage walk) or ``"miss"``; called by
        :func:`repro.sessions.resolve_warm_start` so the store's
        stats describe resolution quality, not just raw gets.
        """
        attr = {"hit": "hits", "ancestor_hit": "ancestor_hits",
                "miss": "misses"}.get(kind)
        if attr is None:
            raise ValueError(f"unknown lookup kind {kind!r}")
        with self._lock:
            setattr(self, attr, getattr(self, attr) + 1)
            self.tel.counter(f"serve.sessions.{kind}").inc()

    # ------------------------------------------------------------------
    # Parked (preempted) solves
    # ------------------------------------------------------------------
    def park_path(self, key: str) -> Path:
        """Where a job's preemption checkpoint lives (``park-<key>.npz``).

        The scheduler hands this path to the driver the request
        dispatches to as ``checkpoint_path``, so the driver's
        end-of-run checkpoint *is* the parked state -- no extra copy.
        """
        return self.root / f"park-{key}.npz"

    def park(self, key: str, *, itn: int, attempt: int,
             devices: tuple[str, ...] = ()) -> ParkedSession:
        """Register the checkpoint at :meth:`park_path` as parked."""
        path = self.park_path(key)
        if not path.exists():
            raise FileNotFoundError(
                f"no checkpoint at {path}: park() registers a file the "
                "solve driver already wrote")
        parked = ParkedSession(key=key, path=str(path), itn=int(itn),
                               attempt=int(attempt),
                               devices=tuple(devices))
        sidecar = {"itn": parked.itn, "attempt": parked.attempt,
                   "devices": list(parked.devices)}
        with atomic_write(path.with_suffix(".json")) as fh:
            fh.write(json.dumps(sidecar).encode())
        with self._lock:
            self._parked[key] = parked
            self.tel.counter("serve.sessions.parked").inc()
            self._gauge_bytes()
        return parked

    def claim(self, key: str) -> ParkedSession | None:
        """Take ownership of a parked solve (removed from the registry).

        The checkpoint file stays on disk -- the caller resumes from
        it and must either :meth:`park` again (preempted once more) or
        :meth:`discard` it (finished).
        """
        with self._lock:
            parked = self._parked.pop(key, None)
            if parked is not None:
                self.tel.counter("serve.sessions.resumed").inc()
            return parked

    def parked(self, key: str) -> ParkedSession | None:
        """The parked entry for one job, if any (not claimed)."""
        with self._lock:
            return self._parked.get(key)

    def parked_keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._parked)

    def discard(self, key: str) -> None:
        """Drop a job's parked state and checkpoint files, if present."""
        with self._lock:
            self._parked.pop(key, None)
        path = self.park_path(key)
        for p in (path, path.with_suffix(".json")):
            with contextlib.suppress(OSError):
                os.unlink(p)
        with self._lock:
            self.tel.counter("serve.sessions.discard").inc()
            self._gauge_bytes()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counter snapshot plus current record/byte totals."""
        with self._lock:
            return {
                "puts": self.puts,
                "hits": self.hits,
                "ancestor_hits": self.ancestor_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "records": len(self._index),
                "parked": len(self._parked),
                "bytes": self._bytes_locked(),
            }

    def close(self) -> None:
        """Release the store (removes the directory only if owned)."""
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "SessionStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        """Rebuild the index from a directory scan (oldest first).

        Modification time approximates last use across restarts, so a
        reopened store evicts in roughly the order the previous
        process would have.
        """
        records = sorted(self.root.glob("sol-*.npz"),
                         key=lambda p: (p.stat().st_mtime, p.name))
        for path in records:
            digest = path.stem[len("sol-"):]
            try:
                with np.load(path) as npz:
                    itn = int(npz["itn"])
                    r2norm = float(npz["r2norm"])
                    stop = str(npz["stop"])
                    parent = str(npz["parent"]) or None
            except _UNREADABLE:
                self._quarantine(path)
                continue
            self._index[digest] = (path, path.stat().st_size, itn,
                                   r2norm, stop, parent)
        for sidecar in sorted(self.root.glob("park-*.json")):
            key = sidecar.stem[len("park-"):]
            ckpt = self.park_path(key)
            if not ckpt.exists():
                continue
            try:
                meta = json.loads(sidecar.read_text())
            except (OSError, ValueError):
                continue
            self._parked[key] = ParkedSession(
                key=key, path=str(ckpt), itn=int(meta.get("itn", 0)),
                attempt=int(meta.get("attempt", 0)),
                devices=tuple(meta.get("devices", ())))
        with self._lock:
            self._evict_over_budget()
            self._gauge_bytes()

    def _bytes_locked(self) -> int:
        total = sum(nbytes for _, nbytes, *_ in self._index.values())
        for parked in self._parked.values():
            try:
                total += os.stat(parked.path).st_size
            except OSError:
                pass
        return total

    def _evict_over_budget(self) -> None:
        """Delete least-recently-used solution records (lock held)."""
        while (len(self._index) > 1
               and sum(n for _, n, *_ in self._index.values())
               > self.budget_bytes):
            _digest, entry = self._index.popitem(last=False)
            with contextlib.suppress(OSError):
                os.unlink(entry[0])
            self.evictions += 1
            self.tel.counter("serve.sessions.eviction").inc()

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable record out of the ``sol-*.npz`` scan."""
        try:
            os.replace(path, path.with_name(QUARANTINE_PREFIX + path.name))
        except OSError:  # already gone: nothing left to re-read
            return
        self.quarantined += 1
        self.tel.counter("serve.sessions.quarantined").inc()

    def _gauge_bytes(self) -> None:
        self.tel.gauge("serve.sessions.bytes").set(
            float(self._bytes_locked()))
