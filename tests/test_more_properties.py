"""Additional property-based tests: weighting, I/O, checkpointing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lsqr_solve
from repro.system import SystemDims, apply_weights, make_system

_dims = SystemDims(n_stars=8, n_obs=160, n_deg_freedom_att=6,
                   n_instr_params=10, n_glob_params=1)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(0.1, 10.0))
def test_uniform_weight_scaling_leaves_solution_unchanged(seed, scale):
    """Multiplying every weight by the same constant cannot move the
    weighted LS solution.

    Holds only without constraint rows: those are soft extra equations
    that do not scale with the observation weights, so rescaling the
    observations changes their relative pull (by design).
    """
    system = make_system(_dims, seed=seed, noise_sigma=1e-10,
                         with_constraints=False)
    w = np.random.default_rng(seed).uniform(0.5, 1.0, _dims.n_obs)
    a = lsqr_solve(apply_weights(system, w), atol=1e-13, btol=1e-13)
    b = lsqr_solve(apply_weights(system, scale * w), atol=1e-13,
                   btol=1e-13)
    assert np.allclose(a.x, b.x, rtol=1e-6, atol=1e-14)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_weighting_is_idempotent_through_composition(seed):
    """apply_weights(w1) then (w2) == apply_weights(w1 * w2)."""
    rng = np.random.default_rng(seed)
    system = make_system(_dims, seed=seed)
    w1 = rng.uniform(0.2, 1.0, _dims.n_obs)
    w2 = rng.uniform(0.2, 1.0, _dims.n_obs)
    chained = apply_weights(apply_weights(system, w1), w2)
    direct = apply_weights(system, w1 * w2)
    assert np.allclose(chained.known_terms, direct.known_terms,
                       rtol=1e-12)
    assert np.allclose(chained.att_values, direct.att_values,
                       rtol=1e-12)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_binary_io_roundtrip_property(seed, tmp_path_factory):
    from repro.io import read_binary_system, write_binary_system

    system = make_system(_dims, seed=seed, noise_sigma=1e-10)
    path = tmp_path_factory.mktemp("io") / "s.gsrb"
    back = read_binary_system(write_binary_system(system, path))
    assert np.array_equal(back.known_terms, system.known_terms)
    assert np.array_equal(back.att_values, system.att_values)
    assert np.array_equal(back.instr_col, system.instr_col)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), cut=st.integers(1, 40))
def test_checkpoint_split_invariance(seed, cut, tmp_path_factory):
    """Splitting the iteration budget at any point changes nothing."""
    system = make_system(_dims, seed=seed, noise_sigma=1e-10)
    path = tmp_path_factory.mktemp("split") / "cut.npz"
    straight = lsqr_solve(system, atol=1e-12, btol=1e-12)
    lsqr_solve(system, atol=1e-12, btol=1e-12, iter_lim=cut,
               checkpoint_every=cut, checkpoint_path=path)
    split = lsqr_solve(system, atol=1e-12, btol=1e-12, resume_from=path)
    assert split.itn == straight.itn
    assert split.istop == straight.istop
    assert np.array_equal(split.x, straight.x)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16),
       frac=st.floats(0.0, 0.2))
def test_outlier_rows_recorded_correctly(seed, frac):
    system = make_system(_dims, seed=seed, noise_sigma=1e-9,
                         outlier_fraction=frac, outlier_sigma=1e-6
                         if frac else 0.0)
    expected = round(frac * _dims.n_obs)
    rows = system.meta.get("outlier_rows")
    if expected == 0:
        assert rows is None or len(rows) == 0
    else:
        assert len(rows) == expected
        assert len(np.unique(rows)) == expected
        assert rows.min() >= 0 and rows.max() < _dims.n_obs
