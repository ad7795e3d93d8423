"""Content-addressed digests of Gaia systems.

Everything downstream of the generator leans on one reproducibility
contract: two systems with identical dimension tuples and identical
array content are *the same system*, wherever and whenever they were
built.  The SHA-256 digests here make that identity explicit and
cheap to compare, and three subsystems key off them:

- ``repro.serve`` caches solve reports under ``(system digest, config
  digest)`` and fuses many-RHS batches under the :func:`matrix_digest`
  (rhs excluded);
- ``repro.serve.shm`` shares one shared-memory segment per matrix
  digest within a store (the segment itself carries a private random
  name) for zero-copy attach by worker processes (the right-hand side
  rides in each task);
- ``repro.sessions`` persists solution vectors under the system digest
  and chains grown systems parent -> child by digest lineage, so a
  re-solve of an incrementally extended system can warm start from its
  ancestor's solution (``docs/sessions.md``).

One pass per job, carried by the request: :func:`digests` gives both
hex values from one pass over the matrix arrays (the two digests share
the dimension tuple and the seven matrix arrays as a prefix, so the
hash state forks after it), and :attr:`repro.api.SolveRequest.digests`
takes that pass the first time a consumer asks and keeps the pair on
the request.  The cache key, the fusion key, the shared-memory publish
and the session store all read it from there; nothing in the serving
path hashes a request's matrix a second time.  The pair lives exactly
as long as the request object, so a system mutated in place must be
solved through a new request.

The hex values are outputs -- session record names, warm-start
provenance, cache keys -- and stay byte-identical across releases.
Every array is hashed as its C-order bytes, exactly what ``tobytes()``
would give.  A contiguous array is fed to SHA-256 as its buffer; a
strided one -- each coefficient section is a column slice of the
system's one coefficient block -- is copied a row range of at most
:data:`CHUNK_BYTES` at a time into one reused staging block, so the
copy stays cache-resident and never grows with the system.

The functions lived in ``repro.serve.cache`` first; they moved here so
the ``system`` and ``sessions`` layers can address content without
importing the serving stack.  ``repro.serve.cache`` re-exports them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.system.sparse import MATRIX_FIELDS, GaiaSystem

#: Upper bound of the staging copy a strided array is hashed through.
CHUNK_BYTES = 256 << 10


def _feed(h: "hashlib._Hash", arr: np.ndarray) -> None:
    """Feed ``arr``'s C-order bytes into ``h``: its own buffer when it
    is contiguous, else row ranges of at most :data:`CHUNK_BYTES`
    copied through one reused staging block."""
    if arr.flags.c_contiguous:
        h.update(arr)
        return
    if arr.ndim == 2 and arr.strides[1] == arr.itemsize:
        # Rows that are contiguous in themselves (a column slice of a
        # block) are staged as one opaque record each, not element by
        # element.
        arr = arr.view(np.dtype((np.void, arr.shape[1] * arr.itemsize)))
    step = max(1, CHUNK_BYTES // max(arr[:1].nbytes, 1))
    stage = np.empty_like(arr[:step], order="C")
    for lo in range(0, arr.shape[0], step):
        rows = arr[lo:lo + step]
        chunk = stage[:rows.shape[0]]
        np.copyto(chunk, rows)
        h.update(chunk)


def _hash_matrix(h: "hashlib._Hash", system: GaiaSystem) -> None:
    """Feed the prefix both digests share into ``h``: the dimension
    tuple and the seven matrix arrays -- all but a sliver of the bytes."""
    d = system.dims
    h.update(repr((d.n_stars, d.n_obs, d.n_deg_freedom_att,
                   d.n_instr_params, d.n_glob_params)).encode())
    for name in MATRIX_FIELDS:
        _feed(h, getattr(system, name))


def _hash_rest(h: "hashlib._Hash", system: GaiaSystem,
               include_rhs: bool) -> None:
    """Feed what follows the shared prefix into ``h``.

    With ``include_rhs`` that is ``known_terms`` and every constraint
    row's ``cols``, ``vals`` and rhs (the full content digest);
    without, the constraint rows' ``cols`` and ``vals`` alone (the
    matrix digest).
    """
    if include_rhs:
        h.update(np.ascontiguousarray(system.known_terms))
    if system.constraints is not None:
        for row in system.constraints:
            h.update(np.ascontiguousarray(row.cols))
            h.update(np.ascontiguousarray(row.vals))
            if include_rhs:
                h.update(repr(row.rhs).encode())


def digests(system: GaiaSystem) -> tuple[str, str]:
    """``(system digest, matrix digest)`` in one pass over the matrix.

    The shared prefix is hashed once; the hash state forks there
    (``hashlib``'s ``copy``), and only the right-hand side and the
    small constraint rows are fed to each branch.
    """
    full = hashlib.sha256()
    _hash_matrix(full, system)
    matrix = full.copy()
    _hash_rest(full, system, include_rhs=True)
    _hash_rest(matrix, system, include_rhs=False)
    return full.hexdigest(), matrix.hexdigest()


def system_digest(system: GaiaSystem) -> str:
    """Content hash of one system's dimension and coefficient data."""
    return digests(system)[0]


def matrix_digest(system: GaiaSystem) -> str:
    """Content hash of the matrix alone (rhs excluded).

    Two systems with equal matrix digest differ at most in their
    right-hand side (``known_terms`` / constraint rhs values) -- the
    exact degree of freedom a fused many-RHS batch spans.
    """
    return digests(system)[1]
