"""The compiled ``aprod`` plan: one SciPy CSR matrix per bound system.

The host's one production kernel set.  §III-B identifies
``aprod1``/``aprod2`` as the two dominant, memory-bound costs of every
LSQR iteration, and §IV shows that how the ``aprod2`` scatter
collisions are resolved (RMW atomics vs. CAS loops) decides up to half
the achievable efficiency; the paper tunes one geometry per platform
and runs it.  The four per-submatrix kernels of the GPU ports live on
only as the validation's port emulation
(:mod:`repro.validation.compare`), which the plan beats
at every size measured (``docs/kernel_plan.md``).
*Generating* the operator is kept apart from *applying* it:

- **Generate** (:class:`AprodPlan`): the observation block is compiled
  once to ``A_obs`` in CSR (:meth:`~repro.system.sparse.GaiaSystem.
  observation_csr`) -- O(nnz), no sort of any kind, never
  canonicalized.  Its values *are* the system's coefficient block
  (:attr:`~repro.system.sparse.GaiaSystem.coefficients`, wrapped, not
  copied); only the 4 B column index per coefficient is packed.  Its
  transpose is the CSC *view* of the same three arrays: nothing is
  built for it.
- **Apply**: both products and their ``K``-wide forms go through the
  format's native kernels over that one matrix (the column norms read
  its arrays a row block at a time).
  ``A @ x`` sums each row left to right; ``A.T @ y`` walks the same
  rows and adds every coefficient into its column, so a column sums
  its terms in row-major order (the host analogue of replacing atomic
  read-modify-write with a deterministic reduction: one thread, one
  frozen order).  Two applications are bitwise equal, and member ``j``
  of a stacked product is bitwise the single product, which is what
  makes a batched solve bitwise its serial solves.
- **One stream per iteration**: an LSQR iteration reads the 12 B per
  coefficient once for each product, from the same arrays.  A second,
  transposed copy doubles the bytes an iteration cycles through; at the
  largest benchmark size that put the working set (123 MiB) at the edge
  of what the shared last-level cache of the reference host keeps, and
  the time per iteration followed the neighbours' cache use (1.6-2.7 ns
  per coefficient at 61 MiB, 2.1-4.5 ns at 123 MiB; ``docs/
  kernel_plan.md``).
- **Immutable**: the plan holds one matrix and no scratch state, so
  one compiled operator may be applied from several threads at once.
  It aliases the system's coefficients, so a system mutated in place
  while a solve runs on it gives undefined results.

``docs/kernel_plan.md`` has the measurements.
"""

from __future__ import annotations

import time

import numpy as np
# Module level, never inside the build (``observation_csr`` imports it
# lazily): the first import costs ~0.1 s, which no first request of a
# worker process should pay.
import scipy.sparse  # noqa: F401

from repro.core.kernels.gather_scatter import column_sq_norms
from repro.system.sparse import GaiaSystem

#: The ``gather_strategy`` / ``scatter_strategy`` spelling of the
#: plan (the names predate the CSR matrix; ``SolveRequest.strategies``
#: spells them).
FUSED_GATHER = "fused"
SORTED_SEGMENT_SCATTER = "sorted_segment"

#: The ``(gather_strategy, scatter_strategy)`` pairs
#: :class:`~repro.core.aprod.AprodOperator` accepts; both name the plan.
STRATEGY_PAIRS = (("auto", "auto"), (FUSED_GATHER, SORTED_SEGMENT_SCATTER))

#: Kernel names the plan reports (one kernel per direction).
FUSED_KERNEL_NAMES = ("aprod1_fused", "aprod2_fused")


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------
class AprodPlan:
    """``A_obs`` in CSR for one bound system, applied both ways.

    The products cover the observation rows only -- constraint rows
    stay with the dispatching :class:`~repro.core.aprod.AprodOperator`.
    Each accumulates into a caller-owned ``out`` (the engine hands over
    a pre-scaled vector), and each row keeps the order it was packed
    in: a key may repeat inside a row, and a rank-local row slice
    leaves columns unoccupied.
    """

    def __init__(self, system: GaiaSystem) -> None:
        t0 = time.perf_counter()
        a = system.observation_csr()
        self.n_obs, self.n_params = a.shape
        self.k_total = system.dims.nnz_per_row
        # The native kernels index the operand unchecked: bounds are
        # verified here, once.
        if a.nnz and (int(a.indices.min()) < 0
                      or int(a.indices.max()) >= self.n_params):
            raise ValueError("packed columns outside the unknown space")
        self.A = a
        # CSC over the same three arrays, no copy: a product with it
        # walks A's rows in order and adds each coefficient into its
        # column, so a column sums its entries in row-major order,
        # duplicates inside one row left to right.
        self.At = a.T
        self.work = {
            product: ((name, self.n_obs, self.n_obs * self.k_total),)
            for product, name in zip(("aprod1", "aprod2"),
                                     FUSED_KERNEL_NAMES)
        }
        self.build_seconds = time.perf_counter() - t0

    @property
    def workspace_nbytes(self) -> int:
        """Bytes the plan allocated: the column indices and the row
        pointers (the values are the system's coefficient block)."""
        return self.A.indices.nbytes + self.A.indptr.nbytes

    def aprod1(self, x: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out += A_obs @ x``."""
        obs_out += self.A @ x

    def aprod2(self, y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out += A_obs.T @ y_obs``, one ordered sum per unknown."""
        out += self.At @ y_obs

    def aprod1_batch(self, X: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out[j] += A_obs @ X[j]`` for all ``K`` members at once.

        ``X`` is ``(K, n_params)`` batch-major, ``obs_out`` is
        ``(K, n_obs)``.  One product over the ``(n_params, K)`` stack
        reads the coefficients once for the whole batch, and sums each
        member's rows in the order of :meth:`aprod1`.
        """
        obs_out += (self.A @ X.T).T

    def aprod2_batch(self, Y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out[j] += A_obs.T @ Y_obs[j]`` for all ``K`` members at once."""
        out += (self.At @ Y_obs.T).T

    def column_sq_norms(self, out: np.ndarray) -> None:
        """Accumulate the squared column norms of ``A_obs`` into ``out``.

        Every packed row holds exactly ``k_total`` entries, so
        ``A.data`` / ``A.indices`` are ``(n_obs, k_total)`` blocks in
        storage order, and :func:`~repro.core.kernels.gather_scatter.
        column_sq_norms` walks them a row block at a time: each column
        adds its terms in row-major order, and the pass allocates one
        row block of squares, not an nnz-sized copy.
        """
        shape = (self.n_obs, self.k_total)
        column_sq_norms(self.A.data.reshape(shape),
                        self.A.indices.reshape(shape), out)
