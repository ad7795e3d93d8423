"""On-disk (de)serialization of :class:`~repro.system.sparse.GaiaSystem`.

Systems are stored as a single compressed ``.npz`` archive holding the
compressed-storage arrays, the dimension record and a JSON-encoded
metadata blob, so a generated dataset can be reused across runs and
across the simulated MPI ranks exactly like the binary dumps the
production pipeline ships to the HPC system.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.system.constraints import ConstraintRow, ConstraintSet
from repro.system.sparse import GaiaSystem
from repro.system.structure import SystemDims

_FORMAT_VERSION = 1


def save_system(system: GaiaSystem, path: str | Path) -> Path:
    """Write ``system`` to ``path`` (``.npz``); returns the path written."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    d = system.dims
    meta = {}
    for k, v in system.meta.items():
        if k == "x_true":
            continue  # stored as a real array below
        if isinstance(v, np.ndarray):
            v = v.tolist()
        meta[k] = v
    payload: dict[str, np.ndarray] = {
        "format_version": np.int64(_FORMAT_VERSION),
        "dims": np.array(
            [d.n_stars, d.n_obs, d.n_deg_freedom_att, d.n_instr_params,
             d.n_glob_params],
            dtype=np.int64,
        ),
        "astro_values": system.astro_values,
        "matrix_index_astro": system.matrix_index_astro,
        "att_values": system.att_values,
        "matrix_index_att": system.matrix_index_att,
        "instr_values": system.instr_values,
        "instr_col": system.instr_col,
        "glob_values": system.glob_values,
        "known_terms": system.known_terms,
        "meta_json": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        ),
    }
    if "x_true" in system.meta:
        payload["x_true"] = np.asarray(system.meta["x_true"])
    cs = system.constraints
    if cs is not None and len(cs):
        payload["constraint_sizes"] = np.array(
            [r.cols.size for r in cs], dtype=np.int64
        )
        payload["constraint_cols"] = np.concatenate([r.cols for r in cs])
        payload["constraint_vals"] = np.concatenate([r.vals for r in cs])
        payload["constraint_rhs"] = cs.rhs
        payload["constraint_labels"] = np.frombuffer(
            json.dumps([r.label for r in cs]).encode(), dtype=np.uint8
        )
    np.savez_compressed(path, **payload)
    return path


def load_system(path: str | Path) -> GaiaSystem:
    """Read a system previously written by :func:`save_system`."""
    path = Path(path)
    with np.load(path) as z:
        version = int(z["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported dataset format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        n_stars, n_obs, dof, n_instr, n_glob = (int(v) for v in z["dims"])
        dims = SystemDims(
            n_stars=n_stars,
            n_obs=n_obs,
            n_deg_freedom_att=dof,
            n_instr_params=n_instr,
            n_glob_params=n_glob,
        )
        meta = json.loads(bytes(z["meta_json"]).decode())
        if "x_true" in z:
            meta["x_true"] = z["x_true"]
        constraints = None
        if "constraint_sizes" in z:
            constraints = ConstraintSet()
            labels = json.loads(bytes(z["constraint_labels"]).decode())
            offsets = np.concatenate([[0], np.cumsum(z["constraint_sizes"])])
            for i, label in enumerate(labels):
                lo, hi = offsets[i], offsets[i + 1]
                constraints.add(
                    ConstraintRow(
                        cols=z["constraint_cols"][lo:hi],
                        vals=z["constraint_vals"][lo:hi],
                        rhs=float(z["constraint_rhs"][i]),
                        label=label,
                    )
                )
        return GaiaSystem(
            dims=dims,
            astro_values=z["astro_values"],
            matrix_index_astro=z["matrix_index_astro"],
            att_values=z["att_values"],
            matrix_index_att=z["matrix_index_att"],
            instr_values=z["instr_values"],
            instr_col=z["instr_col"],
            glob_values=z["glob_values"],
            known_terms=z["known_terms"],
            constraints=constraints,
            meta=meta,
        )
