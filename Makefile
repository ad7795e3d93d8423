# Developer targets. Everything here is tier-1-safe: no network, no
# extra dependencies beyond the baked-in python toolchain.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-obs telemetry-smoke smoke bench-ab

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

# End-to-end smoke of the CLI (about a minute): the example serving
# scenarios (plain, gang, sessions, tuning) on the thread backend, the plain
# one again on spawned worker processes over the shared-memory store
# with an assertion that the run left no segment beyond those live
# before it (a concurrent run's segments are not its leaks) and that
# it hashed no job's matrix twice (serve.digest_passes at most one per
# admitted job: each one is published),
# the incremental re-solve demo (nonzero exit unless warm starts save
# iterations), the fault-injection matrix on 4 simulated ranks
# (nonzero exit unless every scenario recovers to the fault-free
# solution), and four malformed scenarios (an unknown `load` key, an
# unknown backend, `max_fuse` 0, a non-numeric `n_jobs`), each of which
# must exit 2 with one stderr line.
smoke:
	$(PYTHON) -m repro.cli serve --scenario examples/serve_scenario.json
	$(PYTHON) -m repro.cli serve --scenario examples/gang_scenario.json
	$(PYTHON) -m repro.cli serve --scenario examples/sessions_scenario.json
	$(PYTHON) -m repro.cli serve --scenario examples/tuning_serve_scenario.json
	before="$$($(PYTHON) -c "from repro.serve import active_segments as a; print(' '.join(a()))")" && \
	run="$$(mktemp)" && \
	$(PYTHON) -m repro.cli serve --scenario examples/serve_scenario.json --backend process --json "$$run" && \
	SHM_BEFORE="$$before" $(PYTHON) -c "import os; from repro.serve import active_segments as a; segs = sorted(set(a()) - set(os.environ['SHM_BEFORE'].split())); assert not segs, f'leaked shm segments: {segs}'; print('shm segments: none leaked')" && \
	$(PYTHON) -c "import json, sys; d = json.load(open(sys.argv[1])); jobs = d['completed'] + d['failed']; assert d['digest_passes'] <= jobs, f\"{d['digest_passes']:g} digest passes for {jobs} jobs\"; print(f\"digest passes: {d['digest_passes']:g} for {jobs} jobs\")" "$$run" && \
	rm -f "$$run"
	$(PYTHON) -m repro.cli sessions --size-gb 0.005 --steps 3
	$(PYTHON) -m repro.cli chaos --size-gb 0.005 --ranks 4
	for doc in '{"load": {"n_jobz": 3}}' '{"placement": {"backend": "gpu"}}' \
	           '{"placement": {"max_fuse": 0}}' '{"load": {"n_jobs": "many"}}'; do \
	  bad="$$(mktemp)" && echo "$$doc" > "$$bad" && \
	  { err="$$($(PYTHON) -m repro.cli serve --scenario "$$bad" 2>&1 >/dev/null)"; code=$$?; } ; \
	  rm -f "$$bad"; echo "$$err"; \
	  test "$$code" -eq 2 && test "$$(printf '%s\n' "$$err" | wc -l)" -eq 1 || exit 1; \
	done; echo "malformed scenarios: exit 2, one stderr line each"

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
