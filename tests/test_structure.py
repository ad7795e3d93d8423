"""Unit tests for the system layout bookkeeping."""

import pytest

from repro.system.structure import (
    SystemDims,
    ASTRO_PARAMS_PER_STAR,
    ATT_PARAMS_PER_ROW,
    GLOB_PARAMS_PER_ROW,
    INSTR_PARAMS_PER_ROW,
    NNZ_PER_ROW,
)


def test_nnz_per_row_is_24():
    # The paper's "at most ~1e11 x 24 elements" accounting.
    assert NNZ_PER_ROW == 24
    assert (
        ASTRO_PARAMS_PER_STAR
        + ATT_PARAMS_PER_ROW
        + INSTR_PARAMS_PER_ROW
        + GLOB_PARAMS_PER_ROW
        == 24
    )


def test_section_offsets_partition_column_space(small_dims):
    d = small_dims
    assert d.astro_offset == 0
    assert d.att_offset == d.n_astro_params
    assert d.instr_offset == d.att_offset + d.n_att_params
    assert d.glob_offset == d.instr_offset + d.n_instr_params
    assert d.glob_offset + d.n_glob_params == d.n_params


def test_section_slices_cover_everything(small_dims):
    slices = small_dims.section_slices()
    covered = sum(s.stop - s.start for s in slices.values())
    assert covered == small_dims.n_params
    assert slices["astrometric"].start == 0
    assert slices["global"].stop == small_dims.n_params


def test_att_stride_is_dof_per_axis(small_dims):
    assert small_dims.att_stride == small_dims.n_deg_freedom_att
    assert small_dims.n_att_params == 3 * small_dims.n_deg_freedom_att


def test_nnz_accounting_with_and_without_global():
    base = dict(n_stars=4, n_obs=40, n_deg_freedom_att=8, n_instr_params=10)
    with_glob = SystemDims(**base, n_glob_params=1)
    without = SystemDims(**base, n_glob_params=0)
    assert with_glob.nnz_per_row == 24
    assert without.nnz_per_row == 23
    assert with_glob.nnz == 40 * 24


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_stars=0, n_obs=10, n_deg_freedom_att=8, n_instr_params=10),
        dict(n_stars=2, n_obs=0, n_deg_freedom_att=8, n_instr_params=10),
        dict(n_stars=2, n_obs=10, n_deg_freedom_att=3, n_instr_params=10),
        dict(n_stars=2, n_obs=10, n_deg_freedom_att=8, n_instr_params=5),
        dict(n_stars=2, n_obs=10, n_deg_freedom_att=8, n_instr_params=10,
             n_glob_params=2),
    ],
)
def test_invalid_dims_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemDims(**kwargs)


def test_describe_mentions_counts(small_dims):
    text = small_dims.describe()
    assert f"{small_dims.n_obs:,}" in text
    assert f"{small_dims.n_params:,}" in text
