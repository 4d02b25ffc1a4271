# Developer entry points.  CI runs the same commands (.github/workflows).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint simlint simlint-fix simlint-graph ruff mypy baseline perf-gate monitor-demo bench-fast bench-clean bench-timings bench-engine engine-diff chaos chaos-replay event-sites cold-start

test:
	$(PYTHON) -m pytest -x -q

# seeded chaos batch on every core; shrinks any failure to a minimal
# reproducer under /tmp/chaos-failures (CHAOS_SEED=n to pin the seed)
CHAOS_SEED ?= 0
chaos:
	$(PYTHON) -m repro.chaos fuzz --seed $(CHAOS_SEED) --count 200 \
	  --jobs auto --shrink --out /tmp/chaos-failures

# replay the committed reproducer corpus (also part of `make test`)
chaos-replay:
	$(PYTHON) -m repro.chaos replay --corpus

# regenerate every paper figure/table: parallel across all cores, with
# the content-addressed result cache on (reruns after a no-op edit
# replay instead of re-simulating)
bench-fast:
	$(PYTHON) -m repro.bench all --jobs auto --cache

# drop cache entries that can never hit again (recorded under another
# source tree) plus anything corrupt; `gc --all` clears everything
bench-clean:
	$(PYTHON) scripts/bench_cache.py gc

# rewrite the committed experiment record: each experiment's wall
# time, simulated time and result table.  perf-gate compares fresh
# runs with it, benchmarks/ asserts the paper's shapes on its rows and
# scripts/generate_experiments.py renders EXPERIMENTS.md from it.
# This rewrites wall_s too, which loosens perf-gate on a slower host;
# to refresh only the rows after a figure change, merge a fresh run
# as docs/bench_runner.md "Refreshing the record" shows
bench-timings:
	$(PYTHON) -m repro.bench all --jobs 1 --no-cache \
	  --timings bench-timings.json > /dev/null

# the results gate: rerun the matrix serially (the sweep grid
# included) and compare it with the committed bench-timings.json
# (scripts/perf_gate.py) -- every table row, sim_time_ns and machine
# count exactly (Table 2's line counts excepted), wall time within
# tolerance bands; after an intentional change refresh the record as
# docs/bench_runner.md shows and review its diff
perf-gate:
	$(PYTHON) -m repro.bench all --jobs 1 --no-cache \
	  --timings .perf-gate-timings.json > /dev/null
	$(PYTHON) scripts/perf_gate.py .perf-gate-timings.json

# engine events posted per op, by posting call site, in the timed
# window of each perfbench workload at seed 101 (the per-call-site
# table in docs/engine_performance.md)
event-sites:
	for w in randread-bypassd randread-sync ycsb-a-wiredtiger \
	    fmap-cold-warm; do \
	  $(PYTHON) scripts/event_sites.py --workload $$w --seed 101 \
	    || exit 1; \
	done

# fresh-interpreter cost of `import repro; repro.Machine()`: the
# fastest of 12 timings and the 10 largest -X importtime self times
cold-start:
	$(PYTHON) scripts/cold_start.py

# hot-path ops/sec, overhauled engine vs the frozen reference
bench-engine:
	$(PYTHON) benchmarks/bench_engine.py --json engine-bench.json

# full differential-timeline run: every registry experiment on both
# engines, byte-identical or bust (minutes of wall clock)
engine-diff:
	REPRO_ENGINE_DIFF_FULL=1 $(PYTHON) -m pytest -q \
	  tests/sim/test_engine_diff.py

# the latency tour with continuous telemetry on: sparklines, SLO
# section, Perfetto counter tracks, telemetry dump
monitor-demo:
	$(PYTHON) examples/latency_tour.py --monitor

# fails on any new simlint violation (baselined ones are tolerated);
# both passes: per-module SIM001-SIM014 over src+tests+scripts, and
# the whole-program SIM015-SIM018 pass over the package
simlint:
	$(PYTHON) scripts/simlint.py src/repro tests scripts

# apply the mechanically safe rewrites (sorted() wraps, int casts)
simlint-fix:
	$(PYTHON) scripts/simlint.py src/repro tests scripts --fix

# print the layer DAG (pipe into `dot -Tsvg` for docs)
simlint-graph:
	$(PYTHON) scripts/simlint.py --graph dot

# record current violations as the baseline (use sparingly; prefer fixes)
baseline:
	$(PYTHON) scripts/simlint.py src/repro tests scripts --write-baseline

ruff:
	$(PYTHON) -m ruff check .

mypy:
	$(PYTHON) -m mypy

# the full gate: project linter + style/pyflakes + types
lint: simlint
	@$(PYTHON) -c "import importlib.util as u, sys; \
	  sys.exit(0 if u.find_spec('ruff') else 1)" \
	  && $(MAKE) ruff || echo "ruff not installed; skipping (pip install -e .[lint])"
	@$(PYTHON) -c "import importlib.util as u, sys; \
	  sys.exit(0 if u.find_spec('mypy') else 1)" \
	  && $(MAKE) mypy || echo "mypy not installed; skipping (pip install -e .[lint])"
