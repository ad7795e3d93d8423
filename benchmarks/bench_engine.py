"""Hot-path baseline for the shared LSQR step engine.

The engine refactor moved the Paige & Saunders iteration body out of
three hand-rolled loops into :class:`repro.core.engine.LSQRStepEngine`
with preallocated per-iteration workspaces.  This bench pins down what
that must not change on the serial hot path: bitwise ``x``/``var``
against the pre-refactor loop body (which built fresh ``w / rho`` /
``t1 * w`` / ``dk * dk`` temporaries every iteration) and strictly
fewer heap allocations inside the loop.  Both rates are reported; no
ratio of them is (it sat inside run-to-run noise: 1.003x, 1.00x).

Runs two ways:

- ``make bench-engine`` (``python benchmarks/bench_engine.py``) writes
  the machine-readable baseline to ``BENCH_engine.json``;
- under pytest it rides the normal bench harness and writes
  ``results/engine_hot_path.txt``.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.aprod import AprodOperator
from repro.core.engine import LSQRStepEngine, SerialReduction
from repro.core.precond import ColumnScaling, PreconditionedAprod
from repro.system import SystemDims, make_system

ROOT = Path(__file__).resolve().parent.parent

BENCH_DIMS = SystemDims(n_stars=400, n_obs=12_000,
                        n_deg_freedom_att=24, n_instr_params=60,
                        n_glob_params=1)
# The preconditioned system hits machine-precision convergence near
# iteration 65; keep each run well inside the hot regime and repeat.
BENCH_ITERS = 50
BENCH_REPEATS = 5


def _bench_operator(dims=BENCH_DIMS, seed=7):
    op = AprodOperator(make_system(dims, seed=seed, noise_sigma=1e-10))
    scaling = ColumnScaling.from_operator(op)
    return PreconditionedAprod(op, scaling), op.system.rhs().astype(
        np.float64)


def _seed_step_loop(op, b, iters, trace=False):
    """The pre-refactor iteration body, verbatim allocation pattern.

    Same math as the engine (damp=0, stopping tests computed but the
    loop always runs ``iters`` iterations), but with the seed's fresh
    per-iteration temporaries -- the baseline the refactor must match.
    With ``trace=True`` the loop (and only the loop -- setup is
    excluded) runs under tracemalloc and the peak heap growth is
    returned instead of the solution.
    """
    eps = float(np.finfo(np.float64).eps)
    m, n = op.shape
    x = np.zeros(n)
    var = np.zeros(n)
    u = b.copy()
    beta = float(np.linalg.norm(u))
    u /= beta
    v = op.aprod2(u)
    alfa = float(np.linalg.norm(v))
    v /= alfa
    w = v.copy()
    rhobar, phibar = alfa, beta
    bnorm = beta
    anorm = ddnorm = res2 = xnorm = xxnorm = z = 0.0
    cs2, sn2 = -1.0, 0.0
    probe = _LoopAllocProbe(trace)
    for _ in range(iters):
        u *= -alfa
        op.aprod1(v, out=u)
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u /= beta
            anorm = float(np.sqrt(anorm**2 + alfa**2 + beta**2))
            v *= -beta
            op.aprod2(u, out=v)
            alfa = float(np.linalg.norm(v))
            if alfa > 0.0:
                v /= alfa
        rhobar1 = float(np.sqrt(rhobar**2))
        cs1 = rhobar / rhobar1
        phibar = cs1 * phibar
        rho = float(np.sqrt(rhobar1**2 + beta**2))
        cs = rhobar1 / rho
        sn = beta / rho
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi
        t1 = phi / rho
        t2 = -theta / rho
        dk = w / rho
        x += t1 * w
        w *= t2
        w += v
        ddnorm += float(np.dot(dk, dk))
        var += dk * dk
        delta = sn2 * rho
        gambar = -cs2 * rho
        rhs = phi - delta * z
        zbar = rhs / gambar
        xnorm = float(np.sqrt(xxnorm + zbar**2))
        gamma = float(np.sqrt(gambar**2 + theta**2))
        cs2 = gambar / gamma
        sn2 = theta / gamma
        z = rhs / gamma
        xxnorm += z * z
        acond = anorm * float(np.sqrt(ddnorm))
        rnorm = float(np.sqrt(phibar**2 + res2))
        arnorm = alfa * abs(tau)
        _ = (rnorm / bnorm, arnorm / (anorm * rnorm + eps),
             1.0 / (acond + eps), xnorm)
    if trace:
        return probe.stop()
    return x, var


class _LoopAllocProbe:
    """Peak heap growth across a code region, via tracemalloc."""

    def __init__(self, active):
        self.active = active
        if active:
            tracemalloc.start()
            self.base = tracemalloc.get_traced_memory()[0]

    def stop(self):
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak - self.base

    def __del__(self):  # pragma: no cover - safety if stop() skipped
        if self.active and tracemalloc.is_tracing():
            tracemalloc.stop()


def _engine_loop(op, b, iters, trace=False):
    """The refactored hot path: engine.step with no stopping."""
    engine = LSQRStepEngine(op, backend=SerialReduction(), atol=0.0,
                            btol=0.0, conlim=0.0, calc_var=True)
    # start() takes ownership of its argument (it becomes u).
    state = engine.start(b.copy())
    probe = _LoopAllocProbe(trace)
    for _ in range(iters):
        engine.step(state)
    # Guard: an eps-level stop would turn later steps into no-ops and
    # invalidate the timing comparison.
    assert state.istop is None, state.istop
    if trace:
        return probe.stop()
    return engine, state


def _timed(fn, repeats, *args):
    t0 = time.perf_counter()
    for _ in range(repeats):
        out = fn(*args)
    return out, time.perf_counter() - t0


def measure(dims=BENCH_DIMS, iters=BENCH_ITERS, repeats=BENCH_REPEATS):
    op, b = _bench_operator(dims)
    # Warm-up (numpy internals, page faults), then timed runs.
    _seed_step_loop(op, b, 3)
    _engine_loop(op, b, 3)
    (x_seed, var_seed), t_seed = _timed(_seed_step_loop, repeats,
                                        op, b, iters)
    (_, state), t_engine = _timed(_engine_loop, repeats, op, b, iters)
    total = iters * repeats
    alloc_seed = _seed_step_loop(op, b, iters, trace=True)
    alloc_engine = _engine_loop(op, b, iters, trace=True)
    return {
        "system": {"n_rows": dims.n_obs, "n_params": op.shape[1]},
        "iterations": iters,
        "repeats": repeats,
        "engine_iters_per_sec": total / t_engine,
        "seed_loop_iters_per_sec": total / t_seed,
        "engine_loop_alloc_bytes": alloc_engine,
        "seed_loop_alloc_bytes": alloc_seed,
        "bitwise_x_match": bool(np.array_equal(state.x, x_seed)),
        "bitwise_var_match": bool(np.array_equal(state.var, var_seed)),
    }


def test_engine_hot_path_parity(benchmark, write_result):
    small = SystemDims(n_stars=120, n_obs=3_600, n_deg_freedom_att=24,
                       n_instr_params=36, n_glob_params=1)
    stats = benchmark.pedantic(measure, args=(small, 25, 3), rounds=1,
                               iterations=1)
    write_result(
        "engine_hot_path",
        "Shared step engine vs pre-refactor loop body "
        f"({stats['iterations']} iterations)\n"
        f"  engine: {stats['engine_iters_per_sec']:.0f} it/s, "
        f"loop alloc {stats['engine_loop_alloc_bytes']} B\n"
        f"  seed loop: {stats['seed_loop_iters_per_sec']:.0f} it/s, "
        f"loop alloc {stats['seed_loop_alloc_bytes']} B\n"
        f"  bitwise x match: {stats['bitwise_x_match']}, "
        f"var: {stats['bitwise_var_match']}",
    )
    # The refactor must not change the math nor regress allocations:
    # the preallocated workspaces should allocate strictly less inside
    # the loop than the fresh-temporary seed body.
    assert stats["bitwise_x_match"]
    assert stats["bitwise_var_match"]
    assert (stats["engine_loop_alloc_bytes"]
            < stats["seed_loop_alloc_bytes"])


def main(output: Path) -> None:
    stats = measure()
    output.write_text(json.dumps(stats, indent=2) + "\n")
    print(f"{output}: engine {stats['engine_iters_per_sec']:.0f} it/s, "
          f"seed loop {stats['seed_loop_iters_per_sec']:.0f} it/s, "
          f"loop alloc {stats['engine_loop_alloc_bytes']} B vs "
          f"{stats['seed_loop_alloc_bytes']} B, bitwise x match: "
          f"{stats['bitwise_x_match']}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path,
                        default=ROOT / "BENCH_engine.json")
    main(parser.parse_args().output)
