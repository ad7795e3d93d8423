"""Store-private shared-memory segments for system matrices.

The process worker pool (``Scheduler(backend="process")``) must hand
each :class:`~repro.system.sparse.GaiaSystem` to its workers without
pickling the coefficient arrays through a pipe -- the paper-scale
60 GB system would be copied once per job.  Instead the parent
:class:`SystemStore` *publishes* each distinct **matrix** once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment under a
private, unpredictable name, and every worker :func:`attach`\\ es by
that name, mapping the same physical pages zero-copy: the matrix a
worker solves on is read-only NumPy views straight into the segment.
The right-hand side (``known_terms`` and the constraint rhs values) is
not in the segment: it rides in each task, and the worker binds it to
the views with :meth:`AttachedMatrix.system`.  The coefficients are
one block in the segment, as they are in a system, so a worker's
compiled plan wraps the shared pages as its values instead of copying
them.  Within one store, jobs
whose matrices share a digest (:func:`repro.system.digest.matrix_digest`)
-- the members of a fused batch, a stream of re-observations -- share
one segment and one worker mapping.  The digest is the one the job
already took: one pass per job, carried by the request
(:attr:`repro.api.SolveRequest.digests`), handed to
:meth:`SystemStore.publish`, which hashes only when called without it.

Segment layout (one segment per matrix)::

    [8-byte little-endian header length][JSON header][array blocks]

The header is JSON in a fixed schema, never a pickle: a worker maps
whatever lives under the name it was sent, and reading its header must
not be able to run code.  It carries the dimension tuple, the
``(name, shape, dtype, offset)`` table of the blocks -- the
:data:`~repro.system.sparse.STORAGE_FIELDS` (the ``(n_obs,
nnz_per_row)`` coefficient block and the three index arrays), then
each constraint row's ``cols`` and ``vals``, every block 64-byte
aligned and written with ``np.copyto`` straight into the mapping --
and the constraint labels.  A header that does not parse
into exactly that schema, with every block inside the mapping, makes
the segment *not ready*.  ``meta`` is not shipped: it is free-form
provenance, irrelevant to the numerics, and attached systems get a
fresh ``{"shm_segment": ...}`` marker instead.

The header-length field doubles as the **publication marker**: a
fresh segment is zero-filled, the publisher writes header and array
blocks first and the length field *last*, so a nonzero length means
the segment is complete.  A store creates each segment exclusively
(``O_EXCL``, mode 0600) under ``SEGMENT_PREFIX`` plus 128 random bits,
draws a new name if one is taken, and never opens, adopts or unlinks a
name it did not create; :func:`attach` still refuses a segment another
user owns or could rewrite, or whose header fails the check.

Lifecycle: the parent store refcounts :meth:`SystemStore.release` and
keeps every segment mapped until :meth:`SystemStore.close` -- the
serving pattern, where the next job for a hot matrix arrives right
after the last one released it.  Workers keep one attachment per
segment and close their mappings when they exit -- the parent owns
unlinking.  On Python < 3.13 the resource tracker registers
*attaching* processes as owners too (no ``track=`` parameter), which
would double-unlink at worker exit -- and because spawned children
share the parent's tracker process, unregistering *after* the fact
would strip the parent's legitimate claim.  :func:`attach` therefore
suppresses registration during the mapping call, keeping single
ownership with the publisher (``make smoke`` asserts zero leaked
segments via :func:`active_segments`).
"""

from __future__ import annotations

import json
import math
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.system.constraints import ConstraintRow, ConstraintSet
from repro.system.digest import matrix_digest
from repro.system.sparse import (
    MATRIX_FIELDS,
    STORAGE_FIELDS,
    GaiaSystem,
    split_coefficients,
)
from repro.system.structure import SystemDims

#: Every segment the store creates is named with this prefix, which is
#: what makes leak checks (:func:`active_segments`) possible.
SEGMENT_PREFIX = "repro-shm-"

#: Array blocks are aligned to cache-line boundaries.
_ALIGN = 64

#: The keys of a segment header, exactly.
_HEADER_KEYS = frozenset({"dims", "blocks", "constraints", "total"})


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _block_names(labels: list[str] | None) -> list[str]:
    """Block names of a matrix with these constraint labels, in order."""
    names = list(STORAGE_FIELDS)
    for i in range(len(labels or ())):
        names += [f"constraint{i}.cols", f"constraint{i}.vals"]
    return names


def _pack(system: GaiaSystem
          ) -> tuple[bytes, list[tuple[np.ndarray, int]], int]:
    """Header bytes, the (array, offset) plan and the segment size."""
    d = system.dims
    rows = system.constraints
    labels = None if rows is None else [r.label for r in rows]
    arrays = [getattr(system, name) for name in STORAGE_FIELDS]
    arrays += [arr for r in rows or () for arr in (r.cols, r.vals)]
    table = []
    blocks: list[tuple[np.ndarray, int]] = []
    offset = 0  # relative to the start of the array region
    for name, arr in zip(_block_names(labels), arrays):
        offset = _align(offset)
        table.append([name, list(arr.shape), arr.dtype.str, offset])
        blocks.append((arr, offset))
        offset += arr.nbytes
    header = json.dumps({
        "dims": [d.n_stars, d.n_obs, d.n_deg_freedom_att,
                 d.n_instr_params, d.n_glob_params],
        "blocks": table,
        "constraints": labels,
        "total": offset,
    }).encode()
    return header, blocks, _align(8 + len(header)) + offset


def _block(buf: memoryview, base: int, shape, dtype, offset: int
           ) -> np.ndarray:
    """The array view of one block of a segment."""
    return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=buf,
                      offset=base + offset)


def _write_segment(shm_seg: shared_memory.SharedMemory, header: bytes,
                   blocks: list[tuple[np.ndarray, int]]) -> None:
    """Fill a fresh (zero-filled) segment; publication marker last.

    The 8-byte header-length field stays zero until every other byte
    is in place, so a concurrent or later attacher can tell a complete
    publication from a partial one.
    """
    buf = shm_seg.buf
    buf[8:8 + len(header)] = header
    base = _align(8 + len(header))
    for arr, offset in blocks:
        np.copyto(_block(buf, base, arr.shape, arr.dtype, offset), arr)
    buf[:8] = len(header).to_bytes(8, "little")


def _require(condition: bool) -> None:
    if not condition:
        raise ValueError("segment header outside the schema")


def _ints(values) -> bool:
    return isinstance(values, list) and all(
        type(v) is int and v >= 0 for v in values)


def _read_header(buf: memoryview) -> dict | None:
    """The segment's header, or None unless it is complete and valid.

    Checks the publication marker (the nonzero header length written
    last by :func:`_write_segment`), parses the header as JSON and
    accepts it only in the exact schema :func:`_pack` writes, with
    every block inside the mapping -- so neither a partially written
    leftover nor a foreign payload ever validates.
    """
    hlen = int.from_bytes(buf[:8], "little")
    if hlen == 0 or 8 + hlen > len(buf):
        return None
    try:
        header = json.loads(bytes(buf[8:8 + hlen]))
        _require(isinstance(header, dict) and set(header) == _HEADER_KEYS)
        total, dims, labels = (header["total"], header["dims"],
                               header["constraints"])
        _require(_ints([total]) and _align(8 + hlen) + total <= len(buf))
        _require(_ints(dims) and len(dims) == 5)
        SystemDims(*dims)
        _require(labels is None or (isinstance(labels, list) and all(
            isinstance(label, str) for label in labels)))
        table = header["blocks"]
        _require(isinstance(table, list) and all(
            isinstance(entry, list) and len(entry) == 4 for entry in table))
        _require([entry[0] for entry in table] == _block_names(labels))
        for _, shape, dtype, offset in table:
            _require(isinstance(dtype, str))
            dt = np.dtype(dtype)
            _require(dt.kind in "iuf" and _ints(shape) and _ints([offset])
                     and offset + dt.itemsize * math.prod(shape) <= total)
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None
    return header


#: Serializes the register-suppression window against concurrent
#: owning creates, so a publisher never has its registration skipped.
_TRACK_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without claiming tracker ownership.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the segment
    with the resource tracker as if this process owned it, and spawned
    workers share the parent's tracker -- so a later ``unregister``
    from any attacher would strip the publisher's claim and an exit
    would double-unlink.  Swapping ``register`` out for the duration
    of the mapping call keeps the tracker's books exactly as the
    publisher left them.
    """
    orig = resource_tracker.register

    def _skip(n, rtype):
        if rtype != "shared_memory":
            orig(n, rtype)

    with _TRACK_LOCK:
        resource_tracker.register = _skip
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


def _foreign(seg: shared_memory.SharedMemory) -> bool:
    """Whether another user owns this segment or could rewrite it."""
    st = os.fstat(seg._fd)
    return st.st_uid != os.getuid() or bool(st.st_mode & 0o022)


def _create(header: bytes, blocks: list[tuple[np.ndarray, int]],
            size: int) -> shared_memory.SharedMemory:
    """Create and fill a segment under a fresh private name.

    ``create=True`` is an exclusive create (mode 0600), so a name some
    other process already holds raises :class:`FileExistsError` and a
    new one is drawn.  The plain create (tracker registration
    included) is deliberate: the store owns unlinking.
    """
    while True:
        name = SEGMENT_PREFIX + secrets.token_hex(16)
        try:
            with _TRACK_LOCK:
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=size)
        except FileExistsError:
            continue
        _write_segment(seg, header, blocks)
        return seg


def rhs_of(system: GaiaSystem) -> tuple:
    """The right-hand side a task carries beside its segment name.

    ``(known_terms, constraint rhs values)``, the second None for a
    system without a constraint set; :meth:`AttachedMatrix.system`
    takes exactly these two arguments back.
    """
    rows = system.constraints
    return (system.known_terms,
            None if rows is None else tuple(float(r.rhs) for r in rows))


@dataclass
class AttachedMatrix:
    """Zero-copy, read-only views of one published matrix.

    :meth:`system` binds a right-hand side to the views; every system
    built from one attachment shares its pages and its four coefficient
    views (so its coefficient block is the segment's).
    """

    name: str
    dims: SystemDims
    #: The seven :data:`~repro.system.sparse.MATRIX_FIELDS` views (the
    #: four coefficient sections slice the segment's one block).
    arrays: dict[str, np.ndarray]
    #: ``(cols, vals, label)`` of each constraint row, or None when the
    #: published system had no constraint set.
    constraint_rows: list[tuple[np.ndarray, np.ndarray, str]] | None
    #: The mapping (None for :meth:`SystemStore.attach`'s in-process
    #: views, whose mapping the store owns).
    _shm: shared_memory.SharedMemory | None = None

    def system(self, known_terms: np.ndarray,
               constraint_rhs=None) -> GaiaSystem:
        """A system over the shared matrix with this right-hand side.

        ``constraint_rhs`` holds one value per constraint row, or is
        None for a system without a constraint set.  The system is
        validated like any other: its right-hand side crossed a process
        boundary.
        """
        rows = self.constraint_rows or []
        rhs = () if constraint_rhs is None else tuple(constraint_rhs)
        if len(rhs) != len(rows):
            raise ValueError(
                f"{len(rhs)} constraint rhs values for the {len(rows)} "
                "constraint rows of the published matrix")
        constraints = None
        if constraint_rhs is not None:
            constraints = ConstraintSet(rows=[
                ConstraintRow(cols=cols, vals=vals, rhs=float(value),
                              label=label)
                for (cols, vals, label), value in zip(rows, rhs)])
        return GaiaSystem(dims=self.dims, known_terms=known_terms,
                          constraints=constraints,
                          meta={"shm_segment": self.name},
                          **self.arrays)

    def close(self) -> None:
        """Unmap the segment (the parent owns unlinking)."""
        # The views alias the mapping; drop them first so BufferError
        # cannot fire on platforms that check exports.
        self.arrays = {}
        self.constraint_rows = None
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - view still exported
            pass


def _views(buf: memoryview, header: dict, name: str,
           shm: shared_memory.SharedMemory | None) -> AttachedMatrix:
    """Read-only views of one segment's matrix (``header`` validated)."""
    base = _align(8 + int.from_bytes(buf[:8], "little"))
    views = {}
    for block, shape, dtype, offset in header["blocks"]:
        arr = _block(buf, base, shape, dtype, offset)
        arr.flags.writeable = False
        views[block] = arr
    views.update(split_coefficients(views["coefficients"]))
    labels = header["constraints"]
    rows = None if labels is None else [
        (views[f"constraint{i}.cols"], views[f"constraint{i}.vals"], label)
        for i, label in enumerate(labels)]
    return AttachedMatrix(
        name=name, dims=SystemDims(*header["dims"]),
        arrays={field: views[field] for field in MATRIX_FIELDS},
        constraint_rows=rows, _shm=shm)


def attach(name: str) -> AttachedMatrix:
    """Map one published segment by name (worker side, zero-copy)."""
    shm = _attach_untracked(name)
    header = None if _foreign(shm) else _read_header(shm.buf)
    if header is None:
        shm.close()
        raise RuntimeError(
            f"segment {name!r} is incomplete or foreign "
            "(publisher crashed mid-write?)")
    return _views(shm.buf, header, name, shm)


def active_segments() -> list[str]:
    """Names of every store segment currently live on this host.

    POSIX shared memory is backed by ``/dev/shm``; a segment that
    outlives every process is a leak this function makes visible
    (``make smoke`` asserts it returns ``[]`` after a run).
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-POSIX host
        return []
    return sorted(p.name for p in root.glob(SEGMENT_PREFIX + "*"))


class SystemStore:
    """Parent-side publisher and sole owner of matrix segments.

    ``publish`` returns the name of the segment holding the system's
    matrix -- the key :meth:`attach`, :meth:`release` and workers use.
    Systems with byte-identical matrices (whatever their right-hand
    sides) share one segment of this store, and each publish counts one
    reference.  Segments stay mapped at refcount zero until
    :meth:`close` unlinks them.

    Every mutation (publish/release/close) is serialized by one store
    lock, so concurrent scheduler dispatchers publishing the same
    matrix cannot hand out a name while its blocks are still being
    copied, and refcounts stay exact under concurrent publish/release.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: segment name -> mapping, and its outstanding publishes.
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._refs: dict[str, int] = {}
        #: matrix digest -> the name of its segment.
        self._names: dict[str, str] = {}
        self._closed = False

    # -- publishing -----------------------------------------------------
    def publish(self, system: GaiaSystem, digest: str | None = None
                ) -> str:
        """Ensure ``system``'s matrix is in shared memory; return the
        name of its segment.

        ``digest`` is the system's matrix digest when the caller has
        it (the process backend passes the request's); without it the
        matrix is hashed here, outside the lock.  Nothing is
        remembered per system object: a system mutated in place and
        published again gets the segment of its new content.
        """
        if digest is None:
            digest = matrix_digest(system)
        with self._lock:
            if self._closed:
                raise RuntimeError("SystemStore is closed")
            name = self._names.get(digest)
            if name is None:
                seg = _create(*_pack(system))
                name = self._names[digest] = seg.name
                self._segments[name] = seg
                self._refs[name] = 0
            self._refs[name] += 1
            return name

    # -- lifecycle ------------------------------------------------------
    def attach(self, name: str) -> AttachedMatrix:
        """In-process zero-copy views of one published matrix."""
        with self._lock:
            shm = self._segments.get(name)
        if shm is None:
            raise KeyError(f"segment {name!r} is not published")
        return _views(shm.buf, _read_header(shm.buf), name, None)

    def refcount(self, name: str) -> int:
        """Outstanding publishes of one segment (0 when unknown)."""
        with self._lock:
            return self._refs.get(name, 0)

    def release(self, name: str) -> None:
        """Drop one reference (the segment stays until :meth:`close`)."""
        with self._lock:
            if name in self._refs:
                self._refs[name] -= 1

    def close(self) -> None:
        """Unlink every segment this store created (idempotent)."""
        with self._lock:
            for shm in self._segments.values():
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - view exported
                    pass
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - gone
                    pass
            self._segments.clear()
            self._refs.clear()
            self._names.clear()
            self._closed = True

    def __len__(self) -> int:
        return len(self._segments)

    def __enter__(self) -> "SystemStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "SEGMENT_PREFIX",
    "AttachedMatrix",
    "SystemStore",
    "active_segments",
    "attach",
    "rhs_of",
]
