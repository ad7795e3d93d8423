"""Merging observation segments into one system.

The production pipeline accumulates observations across data
segments; solving "all data so far" means concatenating segment
systems that share one unknown space.  :func:`concatenate_systems`
does that: stacks the observation blocks (preserving the star-sorted
order by merging on star id) and keeps a single constraint set.

:func:`append_observations` is the lineage-aware variant the
``repro.sessions`` subsystem builds on: it grows a system by one
observation block and stamps the child with its parent's content
digest, chaining digests parent -> child so a re-solve of the grown
system can locate its ancestor's solution in a
:class:`~repro.sessions.SessionStore` and warm start from it
(``docs/sessions.md``).
"""

from __future__ import annotations

import numpy as np

from repro.system.sparse import GaiaSystem, split_coefficients


def concatenate_systems(
    a: GaiaSystem, b: GaiaSystem, *, resort: bool = True
) -> GaiaSystem:
    """Concatenate two systems over the same unknown space.

    Both systems must have identical dimensions apart from the row
    count (same stars, same attitude/instrumental/global sections).
    With ``resort`` (default) the merged rows are re-sorted by star so
    the astrometric fast path and the star-aligned decomposition keep
    working; the constraint set is taken from ``a`` (they describe the
    same unknown space).  Each merged array is allocated once and each
    input's rows are written straight to their merged positions: no
    concatenated intermediate, so a merge holds the two inputs and the
    result, and a growing chain leaves no result-sized holes in the
    heap.
    """
    da, db = a.dims, b.dims
    same_space = (
        da.n_stars == db.n_stars
        and da.n_deg_freedom_att == db.n_deg_freedom_att
        and da.n_instr_params == db.n_instr_params
        and da.n_glob_params == db.n_glob_params
    )
    if not same_space:
        raise ValueError(
            "systems describe different unknown spaces: "
            f"{da.describe()} vs {db.describe()}"
        )
    from dataclasses import replace

    dims = replace(da, n_obs=da.n_obs + db.n_obs)
    rows = (slice(0, da.n_obs), slice(da.n_obs, dims.n_obs))
    if resort:
        stars = np.concatenate([a.matrix_index_astro, b.matrix_index_astro])
        order = np.argsort(stars, kind="stable")
        # Where each input row lands: the inverse of the sort order.
        where = np.empty_like(order)
        where[order] = np.arange(dims.n_obs)
        rows = (where[rows[0]], where[rows[1]])

    arrays = {}
    for name in ("coefficients", "matrix_index_astro", "matrix_index_att",
                 "instr_col", "known_terms"):
        parts = (getattr(a, name), getattr(b, name))
        merged = np.empty((dims.n_obs,) + parts[0].shape[1:],
                          dtype=np.result_type(*parts))
        for part, at in zip(parts, rows):
            merged[at] = part
        arrays[name] = merged

    return GaiaSystem(
        dims=dims,
        constraints=a.constraints,
        meta={"merged_from": (a.dims.n_obs, b.dims.n_obs),
              "resorted": resort},
        **split_coefficients(arrays.pop("coefficients")),
        **arrays,
    )


def append_observations(
    parent: GaiaSystem, block: GaiaSystem, *, resort: bool = True
) -> GaiaSystem:
    """Grow ``parent`` by one observation block, chaining lineage.

    A thin, lineage-aware layer over :func:`concatenate_systems`: the
    child holds the parent's rows plus the block's (star-resorted by
    default), the parent's constraint set re-appended below the
    observation rows (an independent copy, so neither system aliases
    the other's mutable row list), and meta recording where it came
    from:

    - ``parent_digest`` -- the parent's content digest;
    - ``lineage`` -- nearest-ancestor-first tuple of every digest up
      the chain (the parent's digest prepended to the parent's own
      lineage), which warm-start resolution walks to find the closest
      stored solution;
    - ``x_true`` -- the generating solution rides along unchanged
      (the unknown space is shared, so the truth is too).

    The block must carry no constraints of its own -- blocks are new
    *observations*; the gauge constraints belong to the unknown space
    and already ride with the parent.
    """
    if block.constraints is not None:
        raise ValueError(
            "observation blocks carry no constraints: the parent's "
            "constraint set is re-appended below the merged rows"
        )
    from repro.system.digest import system_digest

    parent_digest = system_digest(parent)
    child = concatenate_systems(parent, block, resort=resort)
    if parent.constraints is not None:
        child.constraints = parent.constraints.copy()
    child.meta.update({
        "generator": "repro.system.merge.append_observations",
        "parent_digest": parent_digest,
        "lineage": (parent_digest,)
        + tuple(parent.meta.get("lineage", ())),
    })
    if "x_true" in parent.meta:
        child.meta["x_true"] = parent.meta["x_true"]
    if "noise_sigma" in parent.meta:
        child.meta["noise_sigma"] = parent.meta["noise_sigma"]
    return child


def split_rows(system: GaiaSystem, row: int) -> tuple[GaiaSystem,
                                                      GaiaSystem]:
    """Inverse-ish of :func:`concatenate_systems`: cut at ``row``.

    Both halves keep the full unknown space; the constraint set rides
    with the first half (matching the merge convention).
    """
    m = system.dims.n_obs
    if not 0 < row < m:
        raise ValueError(f"row must be in (0, {m}), got {row}")
    meta = {"split_from": m}
    return (system.row_range(0, row, constraints=system.constraints,
                             meta=meta),
            system.row_range(row, m, meta=dict(meta)))
