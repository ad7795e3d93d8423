"""Simulated MPI layer and the solver's distributed decomposition.

The production AVU-GSR code "leverages distributed systems via MPI,
where each MPI rank processes a subset of the observations" (§IV);
the paper's measurement protocol reports "the iteration time maximized
among all MPI processes".  This subpackage reproduces that structure
without an MPI runtime:

- :mod:`repro.dist.comm` -- an in-process communicator with the
  mpi4py calling conventions (bcast / allreduce / allgather /
  scatter) over NumPy buffers, executed deterministically;
- :mod:`repro.dist.decomposition` -- the star-aligned row-block
  partitioning of the observations;
- :mod:`repro.dist.runner` -- the distributed LSQR driver: identical
  on every rank (replicated state is asserted equal), matching the
  serial solver to machine precision (the decomposition only changes
  floating-point summation order), with the max-over-ranks timing
  protocol and distributed variance accumulation.
"""

from repro.dist.decomposition import partition_by_rows
from repro.dist.runner import distributed_lsqr_solve
