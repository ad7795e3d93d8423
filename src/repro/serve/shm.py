"""Content-addressed shared-memory segment store for system matrices.

The process worker pool (``Scheduler(backend="process")``) must hand
each :class:`~repro.system.sparse.GaiaSystem` to its workers without
pickling the coefficient arrays through a pipe -- the paper-scale
60 GB system would be copied once per job.  Instead the parent
:class:`SystemStore` *publishes* each distinct **matrix** once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment named by
its matrix digest (:func:`repro.system.digest.matrix_digest`), and
every worker :func:`attach`\\ es by digest, mapping the same physical
pages zero-copy: the matrix a worker solves on is read-only NumPy views
straight into the segment.  The right-hand side (``known_terms`` and
the constraint rhs values) is not in the segment: it rides in each
task, and the worker binds it to the views with
:meth:`AttachedMatrix.system`.  Jobs that differ only in their
right-hand side -- the members of a fused batch, a stream of
re-observations -- share one segment and one worker mapping.

Segment layout (one segment per matrix)::

    [8-byte little-endian header length][JSON header][array blocks]

The header is JSON in a fixed schema, never a pickle: the segment name
is a predictable content address, so any local process could
pre-create it, and reading its header must not be able to run code.
It carries the dimension tuple, the ``(name, shape, dtype, offset)``
table of the blocks -- the seven matrix arrays, then each constraint
row's ``cols`` and ``vals``, every block 64-byte aligned and written
with ``np.copyto`` straight into the mapping -- and the constraint
labels.  A header that does not parse into exactly that schema, with
every block inside the mapping, makes the segment *not ready*.
``meta`` is not shipped: it is free-form provenance, irrelevant to the
numerics, and attached systems get a fresh ``{"shm_digest": ...}``
marker instead.  Content addressing makes publication idempotent: two
publishers of byte-identical matrices share one segment.

The header-length field doubles as the **publication marker**: a
fresh segment is zero-filled, the publisher writes header and array
blocks first and the length field *last*, so a nonzero length means
the segment is complete.  A publisher whose create loses the name
race (:class:`FileExistsError`) co-owns the existing segment only if
it belongs to this user alone (no group or world write bit), carries
a complete header in the schema, and its blocks hash back to the
digest.  Anything else -- a partial leftover of a crashed earlier run,
a payload another process planted under the predictable name -- is
unlinked and re-created rather than served under a valid content
address; :func:`attach` refuses a segment that fails the ownership or
header check.

Lifecycle: the parent store refcounts :meth:`SystemStore.release` and
unlinks either eagerly (``linger=False``) when a count hits zero or at
:meth:`SystemStore.close`.  Workers keep one attachment per matrix and
close their mappings when they exit -- the parent owns unlinking.  On
Python < 3.13 the resource tracker registers *attaching* processes as
owners too (no ``track=`` parameter), which would double-unlink at
worker exit -- and because spawned children share the parent's tracker
process, unregistering *after* the fact would strip the parent's
legitimate claim.  :func:`attach` therefore suppresses registration
during the mapping call, keeping single ownership with the publisher
(``make smoke`` asserts zero leaked segments via
:func:`active_segments`).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.system.constraints import ConstraintRow, ConstraintSet
from repro.system.digest import matrix_digest
from repro.system.sparse import MATRIX_FIELDS, GaiaSystem
from repro.system.structure import SystemDims

#: Every segment the store creates is named with this prefix, which is
#: what makes leak checks (:func:`active_segments`) possible.
SEGMENT_PREFIX = "repro-shm-"

#: Array blocks are aligned to cache-line boundaries.
_ALIGN = 64

#: How long ``publish`` waits for a same-name segment created by a
#: concurrent publisher to carry its completion marker before
#: declaring it a stale leftover of a crashed run and re-creating it.
_ADOPT_TIMEOUT_S = 10.0

#: The keys of a segment header, exactly.
_HEADER_KEYS = frozenset({"dims", "blocks", "constraints", "total"})


def _segment_name(digest: str) -> str:
    """Shared-memory name of one matrix digest (content address)."""
    return SEGMENT_PREFIX + digest[:40]


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _block_names(labels: list[str] | None) -> list[str]:
    """Block names of a matrix with these constraint labels, in order."""
    names = list(MATRIX_FIELDS)
    for i in range(len(labels or ())):
        names += [f"constraint{i}.cols", f"constraint{i}.vals"]
    return names


def _pack(system: GaiaSystem
          ) -> tuple[bytes, list[tuple[np.ndarray, int]], int]:
    """Header bytes, the (array, offset) plan and the segment size."""
    d = system.dims
    rows = system.constraints
    labels = None if rows is None else [r.label for r in rows]
    arrays = [getattr(system, name) for name in MATRIX_FIELDS]
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


def rhs_of(system: GaiaSystem) -> tuple:
    """The right-hand side a task carries beside its matrix digest.

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
    built from one attachment shares its pages.
    """

    digest: str
    dims: SystemDims
    #: The seven :data:`~repro.system.sparse.MATRIX_FIELDS` views.
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
                          meta={"shm_digest": self.digest},
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


def _views(buf: memoryview, header: dict, digest: str,
           shm: shared_memory.SharedMemory | None) -> AttachedMatrix:
    """Read-only views of one segment's matrix (``header`` validated)."""
    base = _align(8 + int.from_bytes(buf[:8], "little"))
    views = {}
    for name, shape, dtype, offset in header["blocks"]:
        arr = _block(buf, base, shape, dtype, offset)
        arr.flags.writeable = False
        views[name] = arr
    labels = header["constraints"]
    rows = None if labels is None else [
        (views[f"constraint{i}.cols"], views[f"constraint{i}.vals"], label)
        for i, label in enumerate(labels)]
    return AttachedMatrix(
        digest=digest, dims=SystemDims(*header["dims"]),
        arrays={name: views[name] for name in MATRIX_FIELDS},
        constraint_rows=rows, _shm=shm)


def _adoptable(seg: shared_memory.SharedMemory, digest: str) -> bool:
    """Whether an existing segment may be served under ``digest``.

    It must be this user's and writable by nobody else, carry a
    complete header in the schema within ``_ADOPT_TIMEOUT_S`` (a
    concurrent publisher may still be writing it), and its blocks must
    hash to ``digest`` -- the matrix digest does not cover the
    right-hand side, so a zero one is bound for the check.
    """
    if _foreign(seg):
        return False
    deadline = time.monotonic() + _ADOPT_TIMEOUT_S
    while (header := _read_header(seg.buf)) is None:
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    view = _views(seg.buf, header, digest, None)
    rows = view.constraint_rows
    try:
        system = view.system(np.zeros(view.dims.n_obs),
                             None if rows is None else [0.0] * len(rows))
    except (ValueError, TypeError):
        return False
    return matrix_digest(system) == digest


def attach(digest: str) -> AttachedMatrix:
    """Map one published matrix by digest (worker side, zero-copy)."""
    shm = _attach_untracked(_segment_name(digest))
    header = None if _foreign(shm) else _read_header(shm.buf)
    if header is None:
        shm.close()
        raise RuntimeError(
            f"segment for digest {digest!r} is incomplete or foreign "
            "(publisher crashed mid-write?)")
    return _views(shm.buf, header, digest, shm)


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
    """Parent-side publisher and owner of matrix segments.

    ``publish`` is idempotent and content-addressed: the matrix digest
    *is* the key, systems with byte-identical matrices (whatever their
    right-hand sides) share one segment, and each publish counts one
    reference.  The digest of an already-seen system object is memoized
    (by ``id``, with a weakref guard against id reuse) so the hash is
    paid once per object, not once per job.

    ``linger=True`` (the default) keeps zero-refcount segments mapped
    until :meth:`close` -- the serving pattern, where the next job for
    a hot matrix arrives right after the last one released it.
    ``linger=False`` unlinks eagerly at refcount zero.

    Every mutation (publish/release/close) is serialized by one store
    lock, so concurrent scheduler dispatchers publishing the same
    matrix cannot hand out a digest while its blocks are still being
    copied, and refcounts stay exact under concurrent publish/release.
    """

    def __init__(self, *, linger: bool = True) -> None:
        self.linger = linger
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._refs: dict[str, int] = {}
        self._closed = False
        #: id(system) -> (weakref, digest) memo; the weakref callback
        #: evicts the entry so a recycled id can never alias.
        self._digest_memo: dict[int, tuple[weakref.ref, str]] = {}

    # -- publishing -----------------------------------------------------
    def digest_of(self, system: GaiaSystem) -> str:
        """The (memoized) matrix digest of one system object."""
        key = id(system)
        memo = self._digest_memo.get(key)
        if memo is not None and memo[0]() is system:
            return memo[1]
        digest = matrix_digest(system)
        try:
            ref = weakref.ref(system,
                              lambda _: self._digest_memo.pop(key, None))
            self._digest_memo[key] = (ref, digest)
        except TypeError:  # pragma: no cover - unweakrefable subclass
            pass
        return digest

    def publish(self, system: GaiaSystem) -> str:
        """Ensure ``system``'s matrix is in shared memory; return its
        matrix digest (the key :meth:`attach` and workers map by)."""
        digest = self.digest_of(system)  # hash outside the lock
        with self._lock:
            if self._closed:
                raise RuntimeError("SystemStore is closed")
            if digest in self._segments:
                self._refs[digest] += 1
                return digest
            shm = self._create_or_adopt(digest, *_pack(system))
            self._segments[digest] = shm
            self._refs[digest] = 1
            return digest

    def _create_or_adopt(self, digest: str, header: bytes,
                         blocks: list[tuple[np.ndarray, int]], size: int
                         ) -> shared_memory.SharedMemory:
        """Create-and-fill the named segment, or co-own a verified one.

        A same-name segment can already exist for three reasons:
        another live publisher (a second store in this or another
        process) is mid-write, a crashed earlier run left a partial
        segment behind, or some other process planted a payload there.
        :func:`_adoptable` tells them apart: the segment is co-owned
        only when it is this user's alone, complete, and holds exactly
        the matrix ``digest`` names; anything else is unlinked and
        re-created.  A name another user holds cannot be unlinked, and
        publishing fails with :class:`PermissionError` rather than
        serving that user's arrays.  The plain attach (tracker
        registration included) is deliberate: this store takes unlink
        responsibility for the segment.
        """
        name = _segment_name(digest)
        while True:
            try:
                with _TRACK_LOCK:
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=size)
            except FileExistsError:
                pass
            else:
                _write_segment(seg, header, blocks)
                return seg
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue  # unlinked under us; retry the create
            if _adoptable(seg, digest):
                return seg
            try:  # stale, foreign or forged: reclaim the name
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            finally:
                seg.close()

    # -- lifecycle ------------------------------------------------------
    def attach(self, digest: str) -> AttachedMatrix:
        """In-process zero-copy views of one published matrix."""
        with self._lock:
            shm = self._segments.get(digest)
        if shm is None:
            raise KeyError(f"digest {digest!r} is not published")
        return _views(shm.buf, _read_header(shm.buf), digest, None)

    def refcount(self, digest: str) -> int:
        """Outstanding publishes of one digest (0 when unknown)."""
        with self._lock:
            return self._refs.get(digest, 0)

    def release(self, digest: str) -> None:
        """Drop one reference; unlink at zero unless lingering."""
        with self._lock:
            if digest not in self._refs:
                return
            self._refs[digest] -= 1
            if self._refs[digest] <= 0 and not self.linger:
                self._unlink(digest)

    def _unlink(self, digest: str) -> None:
        """Drop and unlink one segment (``self._lock`` must be held)."""
        shm = self._segments.pop(digest, None)
        self._refs.pop(digest, None)
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unlink every segment this store owns (idempotent)."""
        with self._lock:
            for digest in list(self._segments):
                self._unlink(digest)
            self._digest_memo.clear()
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
