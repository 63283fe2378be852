# Two test tiers (see ROADMAP.md):
#
#   make verify   - tier 1: the full default suite; stays around a
#                   minute and is what every PR must keep green.
#                   Includes the full-size functional fig11/fig12
#                   runs, the full-size XVAL_CONTRACT of all four
#                   networks (AlexNet, ResNet-50, VGG-16, MobileNet-v1)
#                   over all seven accelerator models (systolic family
#                   + SparTen / Eyeriss v2 / SCNN engines) and the
#                   seed-fixed functional baseline pins.
#   make nightly  - tier 2: `repro experiment xval` (AlexNet only)
#                   and the trace, plus every benchmarks/bench_*.py
#                   artifact run —
#                   bench_functional_vs_analytic checks AlexNet's
#                   full-size XVAL_CONTRACT — recording a timestamped
#                   BENCH_<utc>.json, then diffing the newest two BENCH
#                   files and failing on >10% throughput regression.
#
#   make bench    - just the benchmark sweep + regression check. The
#                   bench_*.py glob includes bench_dse_throughput.py,
#                   so nightly also gates the DSE engine's
#                   configs-evaluated-per-second rate (median of 5
#                   sweeps, as is bench_sec7_design_space.py's rate).
#   make check    - just the regression diff of existing BENCH files.
#   make dse      - exhaustive design-space exploration over the full
#                   keyspace (repro dse); writes the artifact
#                   (evaluations + Pareto frontier) to
#                   dse_frontier.json.
#
# Functional-tier execution engine (repro.eval.runner):
#
#   make fig-functional - full-size fig11 + fig12 functional runs on the
#                   memoized engine (on-disk result cache; re-runs skip
#                   straight to finalization).
#   make cache-clear    - delete the on-disk functional-result cache, a
#                   directory of append-only <salt>.jsonl logs, one per
#                   simulator source salt, plus corrupt.jsonl
#                   ($REPRO_CACHE_DIR, default ~/.cache/repro/results).
#
# Observability (repro.obs, see docs/observability.md):
#
#   make trace    - record a Chrome trace of a fig12 functional run
#                   (trace_fig12.json, viewable at
#                   https://ui.perfetto.dev) and print the offline
#                   phase-attribution summary. Nightly runs this too,
#                   so a wiring break (unmatched spans, missing phases)
#                   surfaces there; bench_obs_overhead.py in the bench
#                   sweep gates the disabled-path cost.
#
# `make nightly` fails when AlexNet's xval agreement contract trips
# (`repro experiment xval` exits non-zero) or when the benchmark gate
# regresses — including the end-to-end wall-clock metric from
# bench_experiment_wallclock.py.

PY         := PYTHONPATH=src python
STAMP      := $(shell date -u +%Y%m%dT%H%M%SZ)
BENCH_JSON := BENCH_$(STAMP).json

.PHONY: verify nightly bench check dse fig-functional cache-clear trace

verify:
	$(PY) -m pytest -x -q

# The xval gate always simulates cold (the CLI enforces it): its whole
# point is to re-validate the *current* simulators against the
# contract, which a cached entry from before a simulator change the
# cache's source salt does not cover would mask.
nightly:
	$(PY) -m repro experiment xval
	$(MAKE) trace
	$(MAKE) bench

# --no-result-cache so the trace always covers real simulation work
# (a fully-cached run would attribute everything to finalize).
trace:
	$(PY) -m repro experiment fig12 --functional \
		--no-result-cache --trace trace_fig12.json
	$(PY) -m repro trace summarize trace_fig12.json

dse:
	$(PY) -m repro dse --out dse_frontier.json

fig-functional:
	$(PY) -m repro experiment fig11 --functional
	$(PY) -m repro experiment fig12 --functional

cache-clear:
	rm -rf "$${REPRO_CACHE_DIR:-$$HOME/.cache/repro/results}"

# pytest-benchmark writes its JSON even when assertions fail; stage it
# under a .tmp name (outside the BENCH_*.json glob) and promote it to a
# comparison baseline only after BOTH the benchmark run and the
# regression check are green — a red or regressed nightly must not
# become the baseline that masks its own regression.
bench:
	rm -f BENCH_*.json.tmp
	$(PY) -m pytest -q benchmarks/bench_*.py \
		--benchmark-json=$(BENCH_JSON).tmp
	$(PY) tools/check_bench_regression.py --candidate $(BENCH_JSON).tmp
	mv $(BENCH_JSON).tmp $(BENCH_JSON)

check:
	$(PY) tools/check_bench_regression.py
