"""Unit tests for the simulated MPI communicator."""

import numpy as np
import pytest

from repro.dist.comm import CollectiveBus, SimComm


def run(size, fn, *args):
    return CollectiveBus(size).run(fn, *args)


def test_rank_identity():
    out = run(4, lambda c: (c.Get_rank(), c.Get_size()))
    assert out == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_bcast():
    out = run(3, lambda c: c.bcast("hello" if c.rank == 0 else None))
    assert out == ["hello"] * 3


def test_bcast_from_nonzero_root():
    out = run(3, lambda c: c.bcast(c.rank * 10, root=2))
    assert out == [20, 20, 20]


def test_allreduce_sum_scalar():
    out = run(4, lambda c: c.allreduce(c.rank + 1))
    assert out == [10, 10, 10, 10]


def test_allreduce_max_min():
    assert run(3, lambda c: c.allreduce(c.rank, op="max")) == [2, 2, 2]
    assert run(3, lambda c: c.allreduce(c.rank, op="min")) == [0, 0, 0]


def test_allreduce_arrays_private_copies():
    """Each rank must own its result: mutating it cannot leak."""
    def body(c):
        v = c.allreduce(np.full(3, float(c.rank)))
        v *= (c.rank + 1)  # in-place mutation on the private copy
        c.barrier()
        w = c.allreduce(np.ones(3))
        return v.tolist(), w.tolist()

    out = run(3, body)
    assert out[0][0] == [3.0, 3.0, 3.0]
    assert out[2][0] == [9.0, 9.0, 9.0]
    assert all(o[1] == [3.0, 3.0, 3.0] for o in out)


def test_allreduce_sum_is_rank_ordered_deterministic():
    def body(c):
        return c.allreduce(np.array([0.1 * (c.rank + 1)]))

    a = run(4, body)
    b = run(4, body)
    assert all(np.array_equal(x, a[0]) for x in a)
    assert np.array_equal(a[0], b[0])


def test_allgather_order():
    out = run(3, lambda c: c.allgather(c.rank * 2))
    assert out == [[0, 2, 4]] * 3


def test_gather_root_only():
    out = run(3, lambda c: c.gather(c.rank, root=1))
    assert out[0] is None and out[2] is None
    assert out[1] == [0, 1, 2]


def test_scatter():
    out = run(3, lambda c: c.scatter([10, 20, 30] if c.rank == 0 else None))
    assert out == [10, 20, 30]


def test_scatter_wrong_length():
    with pytest.raises(ValueError, match="one value per rank"):
        run(3, lambda c: c.scatter([1, 2] if c.rank == 0 else None))


def test_point_to_point():
    def body(c):
        if c.rank == 0:
            c.send({"payload": 42}, dest=1, tag=7)
            return None
        if c.rank == 1:
            return c.recv(source=0, tag=7)
        return None

    out = run(2, body)
    assert out[1] == {"payload": 42}


def test_ring_pass():
    def body(c):
        c.send(c.rank, dest=(c.rank + 1) % c.size)
        return c.recv(source=(c.rank - 1) % c.size)

    assert run(4, body) == [3, 0, 1, 2]


def test_exception_propagates_without_deadlock():
    def body(c):
        if c.rank == 1:
            raise RuntimeError("rank 1 exploded")
        c.barrier()  # would deadlock without the abort
        return True

    with pytest.raises(RuntimeError):
        run(3, body)


def test_invalid_construction():
    with pytest.raises(ValueError):
        CollectiveBus(0)
    with pytest.raises(ValueError):
        SimComm(CollectiveBus(2), 5)
    with pytest.raises(ValueError):
        run(2, lambda c: c.allreduce(1.0, op="prod"))
