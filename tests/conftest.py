"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.system.generator import make_system
from repro.system.structure import SystemDims


@pytest.fixture(scope="session")
def small_dims() -> SystemDims:
    """A tiny but fully structured system (fast unit tests)."""
    return SystemDims(
        n_stars=20,
        n_obs=600,
        n_deg_freedom_att=12,
        n_instr_params=18,
        n_glob_params=1,
    )


@pytest.fixture(scope="session")
def small_system(small_dims):
    """Star-sorted consistent system with tiny noise."""
    return make_system(small_dims, seed=11, noise_sigma=1e-10)


@pytest.fixture(scope="session")
def shuffled_system(small_dims):
    """Row-shuffled variant stressing the colliding scatter paths."""
    return make_system(small_dims, seed=11, noise_sigma=1e-10,
                       shuffle_rows=True)


@pytest.fixture(scope="session")
def noglob_dims() -> SystemDims:
    """Validation-style dims: no global section."""
    return SystemDims(
        n_stars=25,
        n_obs=750,
        n_deg_freedom_att=10,
        n_instr_params=15,
        n_glob_params=0,
    )


@pytest.fixture(scope="session")
def noglob_system(noglob_dims):
    return make_system(noglob_dims, seed=23, noise_sigma=1e-10)


@pytest.fixture(scope="session")
def plan_system():
    """15 000 rows: two ``CHUNK_ROWS`` row blocks, and a 3-rank split
    whose rank blocks are each thousands of rows."""
    dims = SystemDims(n_stars=600, n_obs=15000, n_deg_freedom_att=12,
                      n_instr_params=18, n_glob_params=1)
    return make_system(dims, seed=7, noise_sigma=1e-9)


@pytest.fixture()
def saved_itns(monkeypatch):
    """The ``itn`` of every ``EngineState.save`` call (any thread)."""
    from repro.core.engine import EngineState

    saves = []
    real_save = EngineState.save

    def counting_save(state, path):
        saves.append(state.itn)
        return real_save(state, path)

    monkeypatch.setattr(EngineState, "save", counting_save)
    return saves


@pytest.fixture()
def own_segments(monkeypatch):
    """Lists the live shm segments this test published, sorted.

    ``active_segments()`` names every store segment on the host, so a
    concurrent serving run or benchmark would fail a leak check built
    on it.  This fixture records the segment name every
    ``SystemStore.publish`` of the test returns and returns a function
    listing which of those segments are still live.
    """
    from repro.serve import shm

    published: set[str] = set()
    publish = shm.SystemStore.publish

    def recording_publish(store, system, digest=None):
        name = publish(store, system, digest)
        published.add(name)
        return name

    monkeypatch.setattr(shm.SystemStore, "publish", recording_publish)
    return lambda: sorted(published.intersection(shm.active_segments()))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
