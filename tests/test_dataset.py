"""Unit tests for dataset (de)serialization."""

import numpy as np
import pytest

from repro.system.dataset import load_system, save_system
from repro.system.generator import make_system


def test_save_load_roundtrip(tmp_path, small_system):
    path = save_system(small_system, tmp_path / "sys.npz")
    loaded = load_system(path)
    assert loaded.dims == small_system.dims
    for name in ("astro_values", "matrix_index_astro", "att_values",
                 "matrix_index_att", "instr_values", "instr_col",
                 "glob_values", "known_terms"):
        assert np.array_equal(getattr(loaded, name),
                              getattr(small_system, name)), name
    assert np.array_equal(loaded.meta["x_true"],
                          small_system.meta["x_true"])
    assert len(loaded.constraints) == len(small_system.constraints)
    for a, b in zip(loaded.constraints, small_system.constraints):
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.vals, b.vals)
        assert a.rhs == b.rhs and a.label == b.label


def test_suffix_is_normalized(tmp_path, small_system):
    path = save_system(small_system, tmp_path / "plain")
    assert path.suffix == ".npz"
    load_system(path)


def test_roundtrip_without_constraints(tmp_path, small_dims):
    system = make_system(small_dims, seed=3, with_constraints=False)
    loaded = load_system(save_system(system, tmp_path / "nc.npz"))
    assert loaded.constraints is None


def test_loaded_system_solves_identically(tmp_path, small_system):
    from repro.core.lsqr import lsqr_solve

    loaded = load_system(save_system(small_system, tmp_path / "s.npz"))
    a = lsqr_solve(small_system, atol=1e-10, btol=1e-10)
    b = lsqr_solve(loaded, atol=1e-10, btol=1e-10)
    assert np.array_equal(a.x, b.x)


def test_version_guard(tmp_path, small_system):
    import repro.system.dataset as ds

    path = save_system(small_system, tmp_path / "v.npz")
    old = ds._FORMAT_VERSION
    try:
        ds._FORMAT_VERSION = 999
        with pytest.raises(ValueError, match="format version"):
            load_system(path)
    finally:
        ds._FORMAT_VERSION = old


def test_roundtrip_with_array_valued_meta(tmp_path, small_dims):
    """Metadata containing arrays must serialize -- regression test
    for the JSON-encoding of meta."""
    system = make_system(small_dims, seed=8, noise_sigma=1e-9)
    system.meta["flagged_rows"] = np.array([3, 17, 42])
    loaded = load_system(save_system(system, tmp_path / "out.npz"))
    assert loaded.meta["flagged_rows"] == [3, 17, 42]
    assert np.array_equal(loaded.known_terms, system.known_terms)
