"""Compressed storage scheme of the AVU-GSR coefficient matrix.

Following §III-B of the paper, the matrix is split into four
submatrices stored by structure.  Here the four are column slices of
one C-ordered ``(n_obs, nnz_per_row)`` float64 row block,
:attr:`GaiaSystem.coefficients`: each row holds its 5 astrometric,
12 attitude, 6 instrumental and (optional) global coefficients, left
to right -- exactly the bytes and order of the observation matrix in
CSR, so the compiled ``aprod`` plan wraps the block as its values
instead of packing a second copy:

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
magnitude relative to the dense matrix, as the paper notes.  The
content digests hash the four sections one after another, as if they
were the paper's four separate arrays, so no digest depends on the
block layout.
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

#: The four coefficient sections of a row, in storage order: each is a
#: column slice of :attr:`GaiaSystem.coefficients`.
VALUE_FIELDS = ("astro_values", "att_values", "instr_values",
                "glob_values")

#: The arrays a system's matrix is stored as: the coefficient block and
#: the three index arrays (the shared-memory segment's block list).
STORAGE_FIELDS = ("coefficients", "matrix_index_astro",
                  "matrix_index_att", "instr_col")

#: Attributes that alias the block and so are never rebound.
_BLOCK_FIELDS = frozenset(VALUE_FIELDS + ("coefficients",))

_SECTION_WIDTHS = (ASTRO_PARAMS_PER_STAR, ATT_PARAMS_PER_ROW,
                   INSTR_PARAMS_PER_ROW)


def split_coefficients(block: np.ndarray) -> dict[str, np.ndarray]:
    """The four section views of an ``(n_obs, nnz_per_row)`` coefficient
    block, keyed by :data:`VALUE_FIELDS` name (no copy)."""
    views, lo = {}, 0
    for name, width in zip(VALUE_FIELDS, _SECTION_WIDTHS):
        views[name] = block[:, lo:lo + width]
        lo += width
    views["glob_values"] = block[:, lo:]
    return views


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _shared_block(views: list[np.ndarray], n_obs: int, per_row: int
                  ) -> np.ndarray | None:
    """The coefficient block the four section views already slice, or
    None when they are not exactly its column ranges.

    NumPy records the array that owns a view's memory as its ``base``;
    the block is the row range of that owner the astrometric view
    starts in, and each view must sit at its section's columns of it.
    """
    root = views[0].base
    if not (n_obs and isinstance(root, np.ndarray) and root.ndim == 2
            and root.shape[1] == per_row and root.dtype == np.float64
            and root.flags.c_contiguous):
        return None
    row, col = divmod(_address(views[0]) - _address(root), root.strides[0])
    if col or not 0 <= row <= root.shape[0] - n_obs:
        return None
    block = root if root.shape[0] == n_obs else root[row:row + n_obs]
    for view, want in zip(views, split_coefficients(block).values()):
        if want.size and (view.base is not root
                          or view.strides != want.strides
                          or _address(view) != _address(want)):
            return None
    return block


@dataclass
class GaiaSystem:
    """One AVU-GSR system instance in compressed storage.

    The four ``*_values`` sections are stored as one block,
    :attr:`coefficients`, and each attribute is a fixed column view of
    it.  A caller whose four arrays already are such views (a
    :meth:`row_range`, :func:`dataclasses.replace`, a shared-memory
    attachment) hands over the block as it is; separate arrays are
    packed into a new block once, at construction.  The views can be
    written through but not rebound: build a changed system with
    :func:`dataclasses.replace`.

    Attributes
    ----------
    dims:
        Dimension bookkeeping (see
        :class:`repro.system.structure.SystemDims`).
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
    coefficients:
        ``(n_obs, nnz_per_row)`` C-ordered float64 block the four
        value attributes are column views of (set at construction).
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
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check_shapes()
        d = self.dims
        views = [getattr(self, name) for name in VALUE_FIELDS]
        block = _shared_block(views, d.n_obs, d.nnz_per_row)
        if block is None:
            block = np.empty((d.n_obs, d.nnz_per_row))
            for name, view in split_coefficients(block).items():
                view[...] = getattr(self, name)
                object.__setattr__(self, name, view)
        object.__setattr__(self, "coefficients", block)
        self.validate()

    def __setattr__(self, name: str, value) -> None:
        if name in _BLOCK_FIELDS and "coefficients" in self.__dict__:
            raise AttributeError(
                f"GaiaSystem.{name} is a view of the coefficient block "
                "and cannot be rebound (the compiled plan would keep the "
                f"old block); use dataclasses.replace(system, {name}=...)")
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raise ``ValueError`` if violated."""
        self._check_shapes()
        d = self.dims
        for name, arr in (("coefficients", self.coefficients),
                          ("known_terms", self.known_terms)):
            # min/max propagate NaN and surface +-inf: no mask allocated.
            if arr.size and not (np.isfinite(arr.min())
                                 and np.isfinite(arr.max())):
                if name == "coefficients":
                    name = next(f for f in VALUE_FIELDS
                                if not np.isfinite(getattr(self, f)).all())
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

    def _check_shapes(self) -> None:
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
    # e.g. a column slice of observation_csr's index block -- or
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

        Every row lists its astrometric, attitude, instrumental and
        (when present) global coefficients in that order, left to right
        -- the order of :attr:`coefficients`, which the matrix wraps as
        its values (``coefficients.reshape(-1)``, no copy: the matrix
        aliases the system, so mutating a system in place changes its
        products).  Only the column indices are packed: one
        ``(n_obs, nnz_per_row)`` block, each section written straight
        into its column slice.  The matrix is handed over as packed --
        never canonicalized -- so that order is the summation order of
        every product taken with it.

        The index dtype follows SciPy's own rule (int32 while
        ``n_obs``, ``n_params`` and the coefficient count all stay below
        2**31, int64 past that), so the constructor keeps the three
        arrays as they are and copies nothing.
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
        self.astro_columns(out=cols[:, :a_end])
        self.att_columns(out=cols[:, a_end:t_end])
        self.instr_columns(out=cols[:, t_end:i_end])
        if d.n_glob_params:
            cols[:, i_end] = d.glob_offset
        indptr = np.arange(0, (m + 1) * per_row, per_row, dtype=index)
        # SciPy copies a values array that views a much larger one (its
        # ``prune``), as a row range's block does; an array over the
        # same memory whose base is its own size is kept as it is, here
        # and in the transpose view.
        values = np.frombuffer(memoryview(self.coefficients.reshape(-1)),
                               dtype=np.float64)[:]
        return sp.csr_matrix((values, cols.reshape(-1), indptr),
                             shape=(m, d.n_params))

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
