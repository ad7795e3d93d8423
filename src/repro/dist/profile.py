"""Communication profiling of the distributed solver.

Wraps :class:`~repro.dist.comm.SimComm` with byte/call accounting per
collective -- the information an MPI profiler (mpiP, Score-P) would
give the production code -- and reports the communication volume of
one distributed LSQR solve: how many allreduces, how many bytes, and
how the per-iteration payload splits between the dense unknown-space
reduction and the scalar norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.dist.comm import SimComm


def _payload_bytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (int, float, np.floating, np.integer)):
        return 8
    if isinstance(value, (list, tuple)):
        return sum(_payload_bytes(v) for v in value)
    return 0


@dataclass
class CommProfile:
    """Accumulated communication statistics of one rank."""

    calls: dict[str, int] = field(default_factory=dict)
    bytes_sent: dict[str, int] = field(default_factory=dict)

    def record(self, op: str, payload: Any) -> None:
        """Count one collective call with its payload."""
        self.calls[op] = self.calls.get(op, 0) + 1
        self.bytes_sent[op] = (self.bytes_sent.get(op, 0)
                               + _payload_bytes(payload))

    @property
    def total_calls(self) -> int:
        """Collective calls across all operations."""
        return sum(self.calls.values())

    @property
    def total_bytes(self) -> int:
        """Payload bytes contributed across all operations."""
        return sum(self.bytes_sent.values())

    def summary(self) -> str:
        """mpiP-style per-operation table."""
        lines = [f"{'collective':<14}{'calls':>8}{'bytes':>14}"]
        for op in sorted(self.calls):
            lines.append(f"{op:<14}{self.calls[op]:>8}"
                         f"{self.bytes_sent[op]:>14,}")
        lines.append(f"{'total':<14}{self.total_calls:>8}"
                     f"{self.total_bytes:>14,}")
        return "\n".join(lines)


class ProfiledComm:
    """A :class:`SimComm` proxy that records collective traffic.

    Point-to-point and accessor methods pass through untouched; the
    collectives used by the solver are counted.
    """

    def __init__(self, comm: SimComm, profile: CommProfile) -> None:
        self._comm = comm
        self.profile = profile
        self.rank = comm.rank
        self.size = comm.size

    def Get_rank(self) -> int:
        return self._comm.Get_rank()

    def Get_size(self) -> int:
        return self._comm.Get_size()

    def barrier(self) -> None:
        self.profile.record("barrier", None)
        self._comm.barrier()

    def bcast(self, obj, root: int = 0):
        self.profile.record("bcast", obj if self.rank == root else None)
        return self._comm.bcast(obj, root=root)

    def allreduce(self, value, op: str = "sum"):
        self.profile.record(f"allreduce[{op}]", value)
        return self._comm.allreduce(value, op=op)

    def allgather(self, value):
        self.profile.record("allgather", value)
        return self._comm.allgather(value)

    def gather(self, value, root: int = 0):
        self.profile.record("gather", value)
        return self._comm.gather(value, root=root)

    def scatter(self, values, root: int = 0):
        self.profile.record("scatter", values)
        return self._comm.scatter(values, root=root)

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self.profile.record("send", obj)
        self._comm.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0, timeout: float = 30.0):
        return self._comm.recv(source, tag, timeout)


@dataclass(frozen=True)
class SolveCommReport:
    """Communication report of one profiled distributed solve."""

    n_ranks: int
    itn: int
    profile: CommProfile

    @property
    def allreduce_calls_per_iteration(self) -> float:
        """Collective rounds one iteration needs (the solver uses 3)."""
        calls = sum(v for k, v in self.profile.calls.items()
                    if k.startswith("allreduce"))
        # Two initialization allreduces precede the loop.
        return (calls - 2) / max(self.itn, 1)

    @property
    def dense_fraction(self) -> float:
        """Share of bytes in the dense unknown-space reductions."""
        dense = self.profile.bytes_sent.get("allreduce[sum]", 0)
        total = self.profile.total_bytes
        return dense / total if total else 0.0


def profile_distributed_solve(system, n_ranks: int, *, atol: float = 1e-10,
                              iter_lim: int | None = None
                              ) -> SolveCommReport:
    """Run the distributed solve with communication profiling."""
    from repro.dist.runner import CommReduction, DistributedLSQR

    solver = DistributedLSQR(system, n_ranks)
    profiles = [CommProfile() for _ in range(n_ranks)]
    solver._backend = lambda comm: CommReduction(  # type: ignore[method-assign]
        ProfiledComm(comm, profiles[comm.rank]))
    result = solver.solve(atol=atol, iter_lim=iter_lim)
    # All ranks issue identical collective sequences; report rank 0.
    return SolveCommReport(n_ranks=n_ranks, itn=result.itn,
                           profile=profiles[0])
