"""Additional property-based tests: checkpointing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lsqr_solve
from repro.system import SystemDims, make_system

_dims = SystemDims(n_stars=8, n_obs=160, n_deg_freedom_att=6,
                   n_instr_params=10, n_glob_params=1)


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
