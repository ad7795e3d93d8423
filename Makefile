# Developer targets. Everything here is tier-1-safe: no network, no
# extra dependencies beyond the baked-in python toolchain.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-obs telemetry-smoke chaos-smoke bench-engine serve-smoke serve-mp-smoke serve-bench bench-batch-smoke tune-smoke tune-bench gang-smoke sessions-smoke sessions-bench bench-ab

# The full tier-1 suite (ROADMAP.md's verify command).
test:
	$(PYTHON) -m pytest -x -q

# The observability suite: unit + golden-shape regression tests that
# lock down solver/port telemetry behavior.
test-obs:
	$(PYTHON) -m pytest -q tests/test_obs.py tests/test_obs_integration.py

# Smoke the telemetry CLI end to end: instrumented solve, modeled
# iteration, Perfetto-loadable Chrome trace.
telemetry-smoke:
	$(PYTHON) -m repro.cli telemetry --size tiny --iterations 15 \
	    --export chrome --output telemetry_trace.json
	$(PYTHON) -c "import json; json.load(open('telemetry_trace.json')); print('telemetry_trace.json: valid JSON')"

# Fault-injection smoke matrix: solve under comm drops, payload
# corruption (detected and silent) and a mid-iteration rank death on 4
# simulated ranks; nonzero exit unless every scenario recovers to the
# fault-free solution (see docs/resilience.md).
chaos-smoke:
	$(PYTHON) -m repro.cli chaos --size-gb 0.005 --ranks 4

# Hot-path baseline for the shared LSQR step engine: iterations/sec
# and loop allocations, engine vs the pre-refactor loop body.
bench-engine:
	$(PYTHON) benchmarks/bench_engine.py --output BENCH_engine.json

# Serving-layer smoke (< 30 s): the example scenario end to end via
# the CLI, then the CI-sized throughput bench with its invariants
# (zero oversize admissions, bitwise cache-miss solutions, 2x bar).
serve-smoke:
	$(PYTHON) -m repro.cli serve --scenario examples/serve_scenario.json
	$(PYTHON) benchmarks/bench_serve.py --smoke --output BENCH_serve_smoke.json

# Process-backend smoke: the same example scenario executed by a pool
# of spawned worker processes attached to the shared-memory system
# store, then an assertion that the run unlinked every segment it
# published (a /dev/shm segment that outlives the run is a leak).
serve-mp-smoke:
	$(PYTHON) -m repro.cli serve --scenario examples/serve_scenario.json --backend process
	$(PYTHON) -c "from repro.serve import active_segments as a; segs = a(); assert not segs, f'leaked shm segments: {segs}'; print('shm segments: none leaked')"

# Request-fusion smoke (< 30 s): a K=4 same-matrix/different-rhs
# stream through the scheduler, per-job vs fused.  Exits nonzero
# unless fused beats per-job (>1x), demux is bitwise what a direct
# solve_batch of the same members produces, and every member matches
# its solo solve.
bench-batch-smoke:
	$(PYTHON) benchmarks/bench_serve.py --batch-smoke --output BENCH_batch_smoke.json

# Online-tuning smoke (< 30 s): the E38 acceptance gates on a
# CI-sized cell matrix — a >= 20% tuned-vs-out-of-the-box cell, a
# zero-model-eval byte-identical cache replay, and a strict
# makespan/jobs-per-s win for tuned-aware placement (see
# docs/tuning.md).
tune-smoke:
	$(PYTHON) benchmarks/bench_tuning_ablation.py --smoke --output BENCH_tuning_smoke.json

# Full E38 acceptance run: every sweepable (port, platform,
# size-class) cell plus the tuned-vs-nominal placement A/B and the
# tuned-vs-out-of-the-box Pennycook P study.
tune-bench:
	$(PYTHON) benchmarks/bench_tuning_ablation.py --output BENCH_tuning.json

# Gang-scheduling smoke (< 30 s): the E39 exclusion A/B on a CI-sized
# pool (a 16 GB job on two 15 GB T4s: rejected without the gang
# opt-in, completed as a 2-rank gang with it), the bitwise-vs-R-rank
# reference check, the rank-death migration arm, and the zero-leak
# assertion; then the gang example scenario end to end via the CLI.
gang-smoke:
	$(PYTHON) benchmarks/bench_serve.py --gang-smoke --output BENCH_gang_smoke.json
	$(PYTHON) -m repro.cli serve --scenario examples/gang_scenario.json

# Solve-session smoke (< 60 s): the incremental re-solve CLI demo
# (exits nonzero unless warm starts save iterations), the CI-sized
# E40 bench (warm-vs-cold ladder + preempt/park/resume on both
# backends, zero store/shm leaks), then the sessions example
# scenario -- warm-started chains and preemptible low-priority
# traffic -- end to end via the CLI (see docs/sessions.md).
sessions-smoke:
	$(PYTHON) -m repro.cli sessions --size-gb 0.005 --steps 3
	$(PYTHON) benchmarks/bench_sessions.py --smoke --output BENCH_sessions_smoke.json
	$(PYTHON) -m repro.cli serve --scenario examples/sessions_scenario.json

# Full E40 acceptance run: warm-vs-cold iterations/wall-clock across
# the 10/30/60 GB ladder (savings required at >= 2 sizes) and the
# preemption arm on thread AND process backends with the bitwise
# resume contract.
sessions-bench:
	$(PYTHON) benchmarks/bench_sessions.py --output BENCH_sessions.json

# Full E35+E36 acceptance run: the 16-job mixed 10/30/60 GB workload
# on a 4-device pool at >= 3x sequential throughput, then the K=8
# request-fusion workload at >= 3x the per-job path (see
# docs/serving.md).
serve-bench:
	$(PYTHON) benchmarks/bench_serve.py --output BENCH_serve.json

# Parent/change A/B of the benchmark (bench/): PAIRS alternating pairs
# of `bench/run.py --all` on BASE (exported with `git archive` into a
# temporary directory) and on this checkout, seeds SEED0, SEED0+1, ...,
# then bench/compare.py.  With WORKLOAD= only that workload, untraced
# (`bench/run.py --workload W --trace 0`).  Either way the per-pair
# end-to-end values, win counts, medians and quartile distances follow.
BASE ?= HEAD~1
PAIRS ?= 10
SEED0 ?= 1
bench-ab:
	$(PYTHON) tools/bench_ab.py --base $(BASE) --pairs $(PAIRS) --seed0 $(SEED0) \
	    $(if $(WORKLOAD),--workload $(WORKLOAD))
