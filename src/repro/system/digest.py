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
Arrays are fed to SHA-256 as buffers (C order, exactly the bytes
``tobytes()`` would give) with no intermediate copy.

The functions lived in ``repro.serve.cache`` first; they moved here so
the ``system`` and ``sessions`` layers can address content without
importing the serving stack.  ``repro.serve.cache`` re-exports them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.system.sparse import MATRIX_FIELDS, GaiaSystem


def _hash_matrix(h: "hashlib._Hash", system: GaiaSystem) -> None:
    """Feed the prefix both digests share into ``h``: the dimension
    tuple and the seven matrix arrays -- all but a sliver of the bytes."""
    d = system.dims
    h.update(repr((d.n_stars, d.n_obs, d.n_deg_freedom_att,
                   d.n_instr_params, d.n_glob_params)).encode())
    for name in MATRIX_FIELDS:
        h.update(np.ascontiguousarray(getattr(system, name)))


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
