"""The content digests: hex values pinned, arrays hashed as buffers.

A digest's hex value is an output -- it names session records
(``sol-<digest>.npz``), lands in ``WarmStartInfo.source_digest`` and
keys the result cache -- so it must not move when the hashing code
does.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.system import digest as digest_mod
from repro.system.digest import matrix_digest, system_digest
from repro.system.generator import make_system
from repro.system.sparse import MATRIX_FIELDS, VALUE_FIELDS
from repro.system.structure import SystemDims

_GLOB = SystemDims(n_stars=20, n_obs=600, n_deg_freedom_att=12,
                   n_instr_params=18, n_glob_params=1)
_NOGLOB = SystemDims(n_stars=25, n_obs=750, n_deg_freedom_att=10,
                     n_instr_params=15, n_glob_params=0)

#: (dims, seed, with_constraints) -> (system_digest, matrix_digest).
#: The system digests were restated once, when generation of systems
#: below 4 096 rows moved to the compiled plan: their known terms
#: moved in the last bit, and the hashing code did not change (the old
#: terms still hash to the old values).  The matrix digests never moved.
PINS = {
    (_GLOB, 11, True): (
        "6cb75f48dd17bcf79b5ee03212854a83152c6080c9bc486c83a9d4863efda10c",
        "4eb85d9b9c4491563f56d89f4795fbcd603c8739b2a70d579f14c212ade38981"),
    (_GLOB, 11, False): (
        "b04ca9e5b0a6d2c3be9611ca460a32262525ba6747ce37e3aa519220427078f6",
        "63a755feba44955f279b79328141020aebd10b37b1be603f2559ea08e6da02a3"),
    (_NOGLOB, 23, True): (
        "a1ba4a15b9b556ddad72cb898f866e9ce0728735d46985211bc438fb537ef143",
        "c76b23f293f3b77ff8002616ff2b0718ffec37b3c01ec1498826a004876f8a5a"),
    (_NOGLOB, 23, False): (
        "99c07a428d5d229cd72a25631f3049675480df31594dff7687ef93d903aaa683",
        "b20510fe0e7ec63eeb2a509772dc7976b5baae4a62dea2bdb91c01796abeedb3"),
}


def _pinned(key):
    dims, seed, with_constraints = key
    return make_system(dims, seed=seed, noise_sigma=1e-10,
                       with_constraints=with_constraints)


@pytest.mark.parametrize("key", list(PINS), ids=[
    "glob+constraints", "glob", "noglob+constraints", "noglob"])
def test_digest_hex_values_are_pinned(key):
    """Pin: both digests of fixed systems, exactly as first recorded."""
    system = _pinned(key)
    assert (system_digest(system), matrix_digest(system)) == PINS[key]


def test_layout_does_not_change_the_digest():
    """Pin: an array is hashed by its C-order bytes, whatever its
    memory layout."""
    system = _pinned((_GLOB, 11, True))
    fortran = dataclasses.replace(
        system, att_values=np.asfortranarray(system.att_values),
        known_terms=np.repeat(system.known_terms, 2)[::2])
    assert not fortran.att_values.flags.c_contiguous
    assert not fortran.known_terms.flags.c_contiguous
    assert system_digest(fortran) == PINS[(_GLOB, 11, True)][0]
    assert matrix_digest(fortran) == PINS[(_GLOB, 11, True)][1]


class _Recorder:
    """A hash sink that records what each ``update`` was handed, and the
    bytes it held then (a staging block is reused)."""

    def __init__(self):
        self.fed = []
        self.bytes = []

    def update(self, data):
        self.fed.append(data)
        self.bytes.append(data.tobytes() if isinstance(data, np.ndarray)
                          else bytes(data))


def test_arrays_are_hashed_as_buffers_not_byte_copies():
    """Contiguous arrays are fed as their own buffers; each coefficient
    section -- a strided column slice of the system's block -- is fed
    as its C-order bytes in row chunks of at most ``CHUNK_BYTES``, and
    no chunk holds all ``n_obs`` rows (no full-section copy)."""
    dims = SystemDims(n_stars=2000, n_obs=40_000, n_deg_freedom_att=40,
                      n_instr_params=60, n_glob_params=1)
    system = make_system(dims, seed=11, noise_sigma=1e-10)
    sink = _Recorder()
    digest_mod._hash_matrix(sink, system)
    digest_mod._hash_rest(sink, system, include_rhs=True)
    fed = iter(zip(sink.fed[1:], sink.bytes[1:]))  # after the dims
    for name in MATRIX_FIELDS:
        arr = getattr(system, name)
        if name in VALUE_FIELDS:
            assert not arr.flags.c_contiguous, name
        if arr.flags.c_contiguous:
            assert next(fed)[0] is arr, name
            continue
        got = b""
        while len(got) < arr.nbytes:
            chunk, data = next(fed)
            assert isinstance(chunk, np.ndarray), name
            assert chunk.nbytes <= digest_mod.CHUNK_BYTES, name
            assert chunk.shape[0] < dims.n_obs, name
            got += data
        assert got == arr.tobytes(), name
    assert next(fed)[0] is system.known_terms
    assert len(list(fed)) == 3 * len(system.constraints)
