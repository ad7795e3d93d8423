"""Compressed storage scheme of the AVU-GSR coefficient matrix.

Following §III-B of the paper, the matrix is split into four
submatrices stored by structure:

- **astrometric** -- dense ``(n_obs, 5)`` coefficient block plus
  ``matrix_index_astro``, the *global column* of the first of the five
  contiguous non-zeros in each row (always ``star_id * 5``);
- **attitude** -- dense ``(n_obs, 12)`` coefficients plus
  ``matrix_index_att``, the *section-local* column of the first
  coefficient; the 12 coefficients sit in three blocks of four,
  separated by the ``att_stride`` of the system dimensions;
- **instrumental** -- dense ``(n_obs, 6)`` coefficients plus
  ``instr_col``, the section-local columns of all six coefficients
  (irregular pattern);
- **global** -- dense ``(n_obs, 1)`` coefficients hitting the single
  global column (optional).

Storing only these arrays reduces the problem by seven orders of
magnitude relative to the dense matrix, as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.system.structure import (
    ASTRO_PARAMS_PER_STAR,
    ATT_AXES,
    ATT_BLOCK_SIZE,
    ATT_PARAMS_PER_ROW,
    INSTR_PARAMS_PER_ROW,
    SystemDims,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    import scipy.sparse

    from repro.system.constraints import ConstraintSet

#: The seven arrays that make up the observation matrix (``known_terms``
#: is the right-hand side), in the order they are hashed and shipped.
MATRIX_FIELDS = (
    "astro_values", "matrix_index_astro",
    "att_values", "matrix_index_att",
    "instr_values", "instr_col",
    "glob_values",
)


@dataclass
class GaiaSystem:
    """One AVU-GSR system instance in compressed storage.

    Attributes
    ----------
    dims:
        Dimension bookkeeping (see :class:`repro.system.SystemDims`).
    astro_values:
        ``(n_obs, 5)`` float64 astrometric coefficients.
    matrix_index_astro:
        ``(n_obs,)`` int64, global column of the first astrometric
        coefficient of each row; a multiple of 5.
    att_values:
        ``(n_obs, 12)`` float64 attitude coefficients, ordered by axis
        then by coefficient within the block.
    matrix_index_att:
        ``(n_obs,)`` int64, section-local column of the first attitude
        coefficient (``0 <= idx <= n_deg_freedom_att - 4``).
    instr_values:
        ``(n_obs, 6)`` float64 instrumental coefficients.
    instr_col:
        ``(n_obs, 6)`` int32 section-local instrumental columns, sorted
        and distinct within each row.
    glob_values:
        ``(n_obs, n_glob_params)`` float64 global coefficients.
    known_terms:
        ``(n_obs,)`` float64 right-hand side ``b`` (observation rows
        only; constraint right-hand sides live on the constraint set).
    constraints:
        Optional :class:`~repro.system.constraints.ConstraintSet`
        appended below the observation rows.
    meta:
        Free-form provenance dictionary (generator seed, noise level,
        target size, ...).
    """

    dims: SystemDims
    astro_values: np.ndarray
    matrix_index_astro: np.ndarray
    att_values: np.ndarray
    matrix_index_att: np.ndarray
    instr_values: np.ndarray
    instr_col: np.ndarray
    glob_values: np.ndarray
    known_terms: np.ndarray
    constraints: "ConstraintSet | None" = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raise ``ValueError`` if violated."""
        d = self.dims
        m = d.n_obs
        expected_shapes = {
            "astro_values": (m, ASTRO_PARAMS_PER_STAR),
            "matrix_index_astro": (m,),
            "att_values": (m, ATT_PARAMS_PER_ROW),
            "matrix_index_att": (m,),
            "instr_values": (m, INSTR_PARAMS_PER_ROW),
            "instr_col": (m, INSTR_PARAMS_PER_ROW),
            "glob_values": (m, d.n_glob_params),
            "known_terms": (m,),
        }
        for name, shape in expected_shapes.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected {shape}"
                )
        for name in ("astro_values", "att_values", "instr_values",
                     "glob_values", "known_terms"):
            arr = getattr(self, name)
            if arr.dtype != np.float64:
                raise ValueError(f"{name} must be float64, got {arr.dtype}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

        idx_a = self.matrix_index_astro
        if idx_a.min(initial=0) < 0 or idx_a.max(initial=0) > (
            d.n_astro_params - ASTRO_PARAMS_PER_STAR
        ):
            raise ValueError("matrix_index_astro out of the astrometric section")
        if np.any(idx_a % ASTRO_PARAMS_PER_STAR):
            raise ValueError("matrix_index_astro entries must be multiples of 5")

        idx_t = self.matrix_index_att
        if idx_t.min(initial=0) < 0 or idx_t.max(initial=0) > (
            d.n_deg_freedom_att - ATT_BLOCK_SIZE
        ):
            raise ValueError("matrix_index_att out of the attitude axis range")

        cols = self.instr_col
        if cols.min(initial=0) < 0 or cols.max(initial=0) >= d.n_instr_params:
            raise ValueError("instr_col out of the instrumental section")
        if np.any(np.diff(cols, axis=1) <= 0):
            raise ValueError("instr_col rows must be strictly increasing")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Total equation count: observations plus constraint rows."""
        extra = 0 if self.constraints is None else len(self.constraints)
        return self.dims.n_obs + extra

    @property
    def star_ids(self) -> np.ndarray:
        """``(n_obs,)`` star index observed by each row."""
        return self.matrix_index_astro // ASTRO_PARAMS_PER_STAR

    def row_range(self, start: int, stop: int, *,
                  constraints: "ConstraintSet | None" = None,
                  meta: dict | None = None) -> "GaiaSystem":
        """Observation rows ``[start, stop)`` over the same unknowns.

        The one row-slicing site: every array is a view of this
        system's, the dims keep the global parameter counts (only
        ``n_obs`` shrinks) and the result is validated like any system,
        so a range past the last row is a ``ValueError``.  It carries
        ``constraints`` and ``meta`` as given -- none and empty by
        default.
        """
        sl = slice(start, stop)
        return GaiaSystem(
            dims=replace(self.dims, n_obs=stop - start),
            astro_values=self.astro_values[sl],
            matrix_index_astro=self.matrix_index_astro[sl],
            att_values=self.att_values[sl],
            matrix_index_att=self.matrix_index_att[sl],
            instr_values=self.instr_values[sl],
            instr_col=self.instr_col[sl],
            glob_values=self.glob_values[sl],
            known_terms=self.known_terms[sl],
            constraints=constraints,
            meta={} if meta is None else meta,
        )

    # Each column derivation writes into ``out`` -- any integer block,
    # e.g. a column slice of observation_csr's packed index block -- or
    # into a fresh int64 block, and computes in the block's dtype.
    def _column_block(self, width: int, out: np.ndarray | None
                      ) -> np.ndarray:
        if out is None:
            return np.empty((self.dims.n_obs, width), dtype=np.int64)
        return out

    def att_columns(self, out: np.ndarray | None = None) -> np.ndarray:
        """Global columns of all 12 attitude coefficients, ``(n_obs, 12)``.

        Axis ``a``, in-block position ``j`` maps to section-local column
        ``matrix_index_att + a * att_stride + j``.
        """
        d = self.dims
        axis_off = (np.arange(ATT_AXES) * d.att_stride)[:, None]
        block_off = np.arange(ATT_BLOCK_SIZE)[None, :]
        offsets = (axis_off + block_off).reshape(-1) + d.att_offset
        out = self._column_block(ATT_PARAMS_PER_ROW, out)
        return np.add(self.matrix_index_att[:, None], offsets, out=out,
                      dtype=out.dtype)

    def astro_columns(self, out: np.ndarray | None = None) -> np.ndarray:
        """Global columns of the 5 astrometric coefficients, ``(n_obs, 5)``."""
        out = self._column_block(ASTRO_PARAMS_PER_STAR, out)
        return np.add(self.matrix_index_astro[:, None],
                      np.arange(ASTRO_PARAMS_PER_STAR), out=out,
                      dtype=out.dtype)

    def instr_columns(self, out: np.ndarray | None = None) -> np.ndarray:
        """Global columns of the 6 instrumental coefficients, ``(n_obs, 6)``."""
        out = self._column_block(INSTR_PARAMS_PER_ROW, out)
        return np.add(self.instr_col, self.dims.instr_offset, out=out,
                      dtype=out.dtype)

    def row_norms_squared(self) -> np.ndarray:
        """Squared 2-norm of every observation row (constraints excluded)."""
        out = np.einsum("ij,ij->i", self.astro_values, self.astro_values)
        out += np.einsum("ij,ij->i", self.att_values, self.att_values)
        out += np.einsum("ij,ij->i", self.instr_values, self.instr_values)
        if self.dims.n_glob_params:
            out += self.glob_values[:, 0] ** 2
        return out

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def observation_csr(self) -> "scipy.sparse.csr_matrix":
        """The observation block as a SciPy CSR matrix, ``(n_obs, n_params)``.

        The one place the four coefficient blocks are packed into a
        single stream: every row lists its astrometric, attitude,
        instrumental and (when present) global coefficients in that
        order, left to right.  The matrix is handed over as packed --
        never canonicalized -- so that order is the summation order of
        every product taken with it.

        The final ``(n_obs, nnz_per_row)`` index and value blocks are
        allocated once, and each section is written straight into its
        column slice.  The index dtype follows SciPy's own rule (int32
        while ``n_obs``, ``n_params`` and the coefficient count all stay
        below 2**31, int64 past that), so the constructor keeps the
        three arrays as they are and copies nothing.
        """
        import scipy.sparse as sp

        d = self.dims
        m = d.n_obs
        per_row = d.nnz_per_row
        index = (np.int32 if max(m, d.n_params, m * per_row) < 2**31
                 else np.int64)
        a_end = ASTRO_PARAMS_PER_STAR
        t_end = a_end + ATT_PARAMS_PER_ROW
        i_end = t_end + INSTR_PARAMS_PER_ROW
        cols = np.empty((m, per_row), dtype=index)
        vals = np.empty((m, per_row), dtype=np.float64)
        self.astro_columns(out=cols[:, :a_end])
        vals[:, :a_end] = self.astro_values
        self.att_columns(out=cols[:, a_end:t_end])
        vals[:, a_end:t_end] = self.att_values
        self.instr_columns(out=cols[:, t_end:i_end])
        vals[:, t_end:i_end] = self.instr_values
        if d.n_glob_params:
            cols[:, i_end] = d.glob_offset
            vals[:, i_end] = self.glob_values[:, 0]
        indptr = np.arange(0, (m + 1) * per_row, per_row, dtype=index)
        return sp.csr_matrix(
            (vals.reshape(-1), cols.reshape(-1), indptr),
            shape=(m, d.n_params),
        )

    def to_scipy_csr(self) -> "scipy.sparse.csr_matrix":
        """The whole matrix as SciPy CSR: observation block, then the
        constraint rows."""
        import scipy.sparse as sp

        obs = self.observation_csr()
        if self.constraints is None or len(self.constraints) == 0:
            return obs
        return sp.vstack(
            [obs, self.constraints.to_scipy_csr(self.dims.n_params)],
            format="csr")

    def to_dense(self) -> np.ndarray:
        """Expand to a dense ndarray (small systems only)."""
        dense_bytes = self.n_rows * self.dims.n_params * 8
        if dense_bytes > 1 << 30:
            raise MemoryError(
                f"dense expansion would need {dense_bytes / 2**30:.1f} GiB; "
                "refusing (use to_scipy_csr instead)"
            )
        return np.asarray(self.to_scipy_csr().todense())

    def rhs(self) -> np.ndarray:
        """Full right-hand side including constraint rows, ``(n_rows,)``."""
        if self.constraints is None or len(self.constraints) == 0:
            return self.known_terms
        return np.concatenate([self.known_terms, self.constraints.rhs])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GaiaSystem({self.dims.describe()})"
