"""Row-block decomposition of the observations across ranks.

"Each MPI rank processes a subset of the observations" (§IV).  The
production layout keeps each star's observations on one rank (the
astrometric block of a star must not straddle ranks, or its
collision-free aprod2 fast path would need cross-rank reductions), so
the partitioner cuts the star-sorted row range at star boundaries,
balancing row counts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from repro.core.engine import EngineState
from repro.system.sparse import GaiaSystem


@dataclass(frozen=True)
class RankBlock:
    """One rank's share of the observation rows.

    ``row_start``/``row_stop`` is a half-open range into the global
    star-sorted row order; ``owns_constraints`` marks the single rank
    that also carries the constraint equations.
    """

    rank: int
    row_start: int
    row_stop: int
    owns_constraints: bool = False

    @property
    def n_rows(self) -> int:
        """Observation rows owned by this rank."""
        return self.row_stop - self.row_start

    def __post_init__(self) -> None:
        if self.row_start < 0 or self.row_stop < self.row_start:
            raise ValueError(
                f"bad row range [{self.row_start}, {self.row_stop})"
            )


def partition_by_rows(
    system: GaiaSystem, n_ranks: int, *, align_to_stars: bool = True
) -> list[RankBlock]:
    """Split the observation rows into ``n_ranks`` balanced blocks.

    With ``align_to_stars`` (the production layout) each cut is moved
    to the next star boundary; requires star-sorted rows.  The
    constraint rows are assigned to the last rank.
    """
    m = system.dims.n_obs
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if n_ranks > m:
        raise ValueError(
            f"more ranks ({n_ranks}) than observation rows ({m})"
        )
    star = system.star_ids
    if align_to_stars:
        if np.any(np.diff(star) < 0):
            raise ValueError(
                "align_to_stars requires star-sorted rows; regenerate "
                "the system without shuffle_rows or pass "
                "align_to_stars=False"
            )
        # Row index where each distinct observed star begins (plus the
        # terminating m); cutting only at these keeps every star's
        # astrometric block on one rank.
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(star)) + 1, [m]]
        )
        n_groups = starts.size - 1
        if n_ranks > n_groups:
            raise ValueError(
                f"more ranks ({n_ranks}) than observed stars "
                f"({n_groups}); every rank needs at least one whole star"
            )
        cuts = [0]
        for k in range(1, n_ranks):
            target = round(m * k / n_ranks)
            # Star boundary nearest the balanced row target, clamped so
            # every remaining rank still gets at least one star.
            idx = int(np.searchsorted(starts, target))
            if idx > 0 and (target - starts[idx - 1]
                            <= starts[min(idx, n_groups)] - target):
                idx -= 1
            prev_idx = int(np.searchsorted(starts, cuts[-1]))
            idx = max(idx, prev_idx + 1)
            idx = min(idx, n_groups - (n_ranks - k))
            cuts.append(int(starts[idx]))
        cuts.append(m)
    else:
        cuts = [round(m * k / n_ranks) for k in range(n_ranks + 1)]
        if len(set(cuts)) != n_ranks + 1:
            raise ValueError(
                f"cannot split {m} rows into {n_ranks} non-empty blocks"
            )
    return [
        RankBlock(
            rank=k,
            row_start=cuts[k],
            row_stop=cuts[k + 1],
            owns_constraints=(k == n_ranks - 1),
        )
        for k in range(n_ranks)
    ]


def gather_state(state: EngineState,
                 u_blocks: list[np.ndarray]) -> EngineState:
    """A copy of one rank's state with ``u`` in global row order.

    ``x``/``v``/``w``/``var`` and the scalars are replicated, and the
    rank blocks' ``u`` concatenate to the serial ``u`` because the
    last rank owns the constraint rows: the result is the
    rank-count-independent checkpoint :meth:`EngineState.save` writes.
    """
    return copy.deepcopy(replace(state, u=np.concatenate(u_blocks)))


def shard_state(state: EngineState,
                blocks: list[RankBlock]) -> list[EngineState]:
    """Per-rank copies of a global state, for any decomposition.

    Each block gets its row range of ``u`` (the constraint tail past
    the observation rows rides with its owner); ``istop`` is cleared,
    the shards continue iterating.  The tail's length only the system
    knows: :func:`~repro.core.engine.resume_state` checks the total.
    """
    n_obs = blocks[-1].row_stop
    if n_obs > state.u.size:
        raise ValueError(
            f"decomposition covers {n_obs} rows, "
            f"checkpoint holds {state.u.size}"
        )
    shards = []
    for block in blocks:
        u = state.u[block.row_start:block.row_stop]
        if block.owns_constraints:
            u = np.concatenate([u, state.u[n_obs:]])
        shards.append(copy.deepcopy(replace(state, u=u, istop=None)))
    return shards


def load_balance_report(blocks: list[RankBlock]) -> str:
    """Rows-per-rank balance summary of one decomposition.

    The paper's timing rule maximizes over ranks, so imbalance costs
    wall-clock directly: the report quotes the max/mean row ratio (the
    expected slowdown from static imbalance alone).
    """
    if not blocks:
        raise ValueError("no rank blocks")
    rows = np.array([b.n_rows for b in blocks], dtype=np.int64)
    mean = float(rows.mean())
    imbalance = float(rows.max() / mean) if mean else float("inf")
    lines = [f"{'rank':>5}{'rows':>10}{'share':>8}"]
    total = int(rows.sum())
    for b in blocks:
        share = b.n_rows / total if total else 0.0
        lines.append(f"{b.rank:>5}{b.n_rows:>10}{share:>8.1%}"
                     + ("  +constraints" if b.owns_constraints else ""))
    lines.append(
        f"imbalance (max/mean): {imbalance:.3f} "
        f"-> expected max-over-ranks slowdown {imbalance:.3f}x"
    )
    return "\n".join(lines)


def slice_system(system: GaiaSystem, block: RankBlock) -> GaiaSystem:
    """Extract one rank's local system.

    The local system shares the *global* unknown space (the dims keep
    the global parameter counts) but holds only the block's
    observation rows (:meth:`~repro.system.sparse.GaiaSystem.row_range`); the
    constraint set rides with its owner.
    """
    return system.row_range(
        block.row_start, block.row_stop,
        constraints=system.constraints if block.owns_constraints else None,
        meta={**{k: v for k, v in system.meta.items() if k != "x_true"},
              "rank_block": (block.rank, block.row_start, block.row_stop)},
    )
