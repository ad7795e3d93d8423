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


def _hash_matrix(h: "hashlib._Hash", system: GaiaSystem,
                 include_rhs: bool) -> None:
    """Feed the system's content into ``h``.

    With ``include_rhs`` the hash also covers ``known_terms`` and the
    constraint right-hand sides (the full content digest); without, it
    covers the matrix alone (the fusion digest).
    """
    d = system.dims
    h.update(repr((d.n_stars, d.n_obs, d.n_deg_freedom_att,
                   d.n_instr_params, d.n_glob_params)).encode())
    for name in MATRIX_FIELDS:
        h.update(np.ascontiguousarray(getattr(system, name)))
    if include_rhs:
        h.update(np.ascontiguousarray(system.known_terms))
    if system.constraints is not None:
        for row in system.constraints:
            h.update(np.ascontiguousarray(row.cols))
            h.update(np.ascontiguousarray(row.vals))
            if include_rhs:
                h.update(repr(row.rhs).encode())


def system_digest(system: GaiaSystem) -> str:
    """Content hash of one system's dimension and coefficient data."""
    h = hashlib.sha256()
    _hash_matrix(h, system, include_rhs=True)
    return h.hexdigest()


def matrix_digest(system: GaiaSystem) -> str:
    """Content hash of the matrix alone (rhs excluded).

    Two systems with equal matrix digest differ at most in their
    right-hand side (``known_terms`` / constraint rhs values) -- the
    exact degree of freedom a fused many-RHS batch spans.
    """
    h = hashlib.sha256()
    _hash_matrix(h, system, include_rhs=False)
    return h.hexdigest()
