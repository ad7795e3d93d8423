"""Unit tests for the compressed storage scheme."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.system.generator import make_system
from repro.system.sparse import GaiaSystem, MATRIX_FIELDS
from repro.system.structure import SystemDims


def observation_csr_reference(system):
    """The packing built the long way: int64 column temporaries copied
    into an int64 block, then SciPy picks the index dtype and converts."""
    d = system.dims
    m, per_row = d.n_obs, d.nnz_per_row
    base = system.matrix_index_att[:, None, None]
    axis_off = (np.arange(3) * d.att_stride)[None, :, None]
    att = (base + axis_off + np.arange(4)[None, None, :]).reshape(m, 12)
    cols = np.empty((m, per_row), dtype=np.int64)
    vals = np.empty((m, per_row), dtype=np.float64)
    cols[:, :5] = system.matrix_index_astro[:, None] + np.arange(5)
    vals[:, :5] = system.astro_values
    cols[:, 5:17] = att + d.att_offset
    vals[:, 5:17] = system.att_values
    cols[:, 17:23] = system.instr_col.astype(np.int64) + d.instr_offset
    vals[:, 17:23] = system.instr_values
    if d.n_glob_params:
        cols[:, 23] = d.glob_offset
        vals[:, 23] = system.glob_values[:, 0]
    indptr = np.arange(0, (m + 1) * per_row, per_row, dtype=np.int64)
    return sp.csr_matrix((vals.reshape(-1), cols.reshape(-1), indptr),
                         shape=(m, d.n_params))


def _random_systems():
    rng = np.random.default_rng(2024)
    for seed in range(4):
        n_stars = int(rng.integers(1, 40))
        dims = SystemDims(
            n_stars=n_stars,
            n_obs=n_stars + int(rng.integers(0, 400)),
            n_deg_freedom_att=int(rng.integers(4, 30)),
            n_instr_params=int(rng.integers(6, 40)),
            n_glob_params=int(rng.integers(0, 2)))
        yield make_system(dims, seed=seed, shuffle_rows=bool(seed % 2))


@pytest.mark.parametrize("fixture", ["small_system", "shuffled_system",
                                     "noglob_system", "plan_system",
                                     "random"])
def test_observation_csr_is_the_reference_packing(request, fixture):
    """Pin: every array of the in-place packing is ``array_equal``,
    dtype for dtype, to the int64-then-SciPy construction."""
    systems = (list(_random_systems()) if fixture == "random"
               else [request.getfixturevalue(fixture)])
    for system in systems:
        got = system.observation_csr()
        want = observation_csr_reference(system)
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_observation_csr_hands_scipy_its_final_arrays(small_system):
    """The index block is packed once, in its final dtype, the values
    are the system's coefficient block, and SciPy keeps both as they
    are: no conversion copy."""
    a = small_system.observation_csr()
    block = (small_system.dims.n_obs, small_system.dims.nnz_per_row)
    assert a.indices.base is not None and a.indices.base.shape == block
    assert np.shares_memory(a.data, small_system.coefficients)
    assert np.array_equal(a.data, small_system.coefficients.reshape(-1))
    assert a.indices.dtype == a.indptr.dtype == np.int32


def test_column_derivations_write_into_a_given_block(small_system):
    for name, width in (("astro_columns", 5), ("att_columns", 12),
                        ("instr_columns", 6)):
        derive = getattr(small_system, name)
        packed = np.full((small_system.dims.n_obs, width + 2), -1,
                         dtype=np.int32)
        out = packed[:, 1:-1]
        assert derive(out=out) is out
        default = derive()
        assert default.dtype == np.int64
        assert np.array_equal(out, default)
        assert np.all(packed[:, [0, -1]] == -1)


def test_construction_leaves_caller_arrays_writable(small_dims):
    """Pin: a system never takes write access away from its arrays."""
    system = make_system(small_dims, seed=5)
    for name in MATRIX_FIELDS + ("known_terms",):
        assert getattr(system, name).flags.writeable, name
    for row in system.constraints:
        assert row.cols.flags.writeable and row.vals.flags.writeable


def test_validate_accepts_generated_system(small_system):
    small_system.validate()  # must not raise


def test_astro_columns_are_contiguous_star_blocks(small_system):
    cols = small_system.astro_columns()
    assert np.array_equal(cols[:, 0] % 5, np.zeros(len(cols)))
    assert np.all(np.diff(cols, axis=1) == 1)
    assert np.array_equal(cols[:, 0] // 5, small_system.star_ids)


def test_att_columns_follow_stride_pattern(small_system):
    d = small_system.dims
    cols = small_system.att_columns()
    # Three blocks of four, consecutive inside a block.
    blocks = cols.reshape(d.n_obs, 3, 4)
    assert np.all(np.diff(blocks, axis=2) == 1)
    # Block starts separated by exactly the attitude stride.
    starts = blocks[:, :, 0]
    assert np.all(np.diff(starts, axis=1) == d.att_stride)
    # All inside the attitude section.
    assert cols.min() >= d.att_offset
    assert cols.max() < d.instr_offset


def test_instr_columns_in_section_and_increasing(small_system):
    d = small_system.dims
    cols = small_system.instr_columns()
    assert cols.min() >= d.instr_offset
    assert cols.max() < d.glob_offset
    assert np.all(np.diff(cols, axis=1) > 0)


def test_to_scipy_csr_shape_and_nnz(small_system):
    a = small_system.to_scipy_csr()
    assert a.shape == (small_system.n_rows, small_system.dims.n_params)
    # Observation rows carry exactly 24 stored entries each (some may
    # be numerically zero but are still stored).
    obs_nnz_bound = small_system.dims.n_obs * 24
    assert a.nnz <= obs_nnz_bound + sum(
        r.cols.size for r in small_system.constraints
    )


def test_dense_matches_csr(noglob_system):
    a_csr = noglob_system.to_scipy_csr().toarray()
    a_dense = noglob_system.to_dense()
    assert np.array_equal(a_csr, a_dense)


def test_dense_refuses_huge_systems(small_system):
    # The guard triggers on the dims alone, so patch a copy's dims to a
    # paper-scale shape and check the expansion is refused.
    patched = GaiaSystem.__new__(GaiaSystem)
    patched.__dict__.update(small_system.__dict__)
    patched.dims = SystemDims(n_stars=200_000, n_obs=400_000,
                              n_deg_freedom_att=100, n_instr_params=100)
    with pytest.raises(MemoryError):
        patched.to_dense()


def test_row_norms_squared_matches_csr(small_system):
    a = small_system.to_scipy_csr()
    obs = np.asarray(
        a[: small_system.dims.n_obs].multiply(
            a[: small_system.dims.n_obs]
        ).sum(axis=1)
    ).ravel()
    assert np.allclose(small_system.row_norms_squared(), obs)


def test_rhs_appends_constraint_rows(small_system):
    rhs = small_system.rhs()
    assert rhs.shape == (small_system.n_rows,)
    n_constraints = len(small_system.constraints)
    assert n_constraints > 0
    assert np.array_equal(rhs[: small_system.dims.n_obs],
                          small_system.known_terms)


def test_validate_rejects_bad_shapes(small_system):
    with pytest.raises(ValueError, match="astro_values"):
        replace(small_system, astro_values=small_system.astro_values[:, :4])


def test_validate_rejects_nonfinite(small_system):
    bad = small_system.att_values.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        replace(small_system, att_values=bad)


def test_validate_rejects_misaligned_astro_index(small_system):
    broken = GaiaSystem.__new__(GaiaSystem)
    broken.__dict__.update(small_system.__dict__)
    bad = small_system.matrix_index_astro.copy()
    bad[0] += 1  # no longer a multiple of 5
    broken.matrix_index_astro = bad
    with pytest.raises(ValueError, match="multiples of 5"):
        broken.validate()
