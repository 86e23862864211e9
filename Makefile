# Convenience targets for the plan-bouquet reproduction.
#
#   make help         show this target summary
#   make install      editable install into the current environment
#   make test         run the unit/integration/property test suite
#   make lint         ruff check (imports + obvious-bug rules; config in
#                     pyproject.toml); without ruff, the stdlib unused-import
#                     and export checks of tests/test_public_surface.py
#   make ci           lint + ledger-smoke + perf-guards + the tier-1 pytest
#                     suite, in one gate
#   make ledger-smoke the BENCHMARK.json ledger at a tenth of its size: all
#                     four workloads with their output verification, then
#                     the ledger's own tests (nothing is timed for a claim)
#   make perf-guards  the count-based guards of the microbenchmarks (a warm
#                     request builds no index and is one plan execution, a
#                     whole-grid compile offers one DP's worth of join
#                     candidates, a campaign pass evaluates spill formulas
#                     <= 1,300 times, the canned workload's join probes
#                     are all addressed, a repeated served text is neither
#                     parsed nor re-counted, a served hit builds no AxisPlans
#                     gather table, a campaign sweep costs each q_run once and
#                     builds a bouquet's AxisPlans tables in one pass, a
#                     campaign pass sweeps in 315 (contour, spill) rounds, a
#                     repeated served hit reuses its opening: no count, no
#                     plan node costed, no dominance test; a statistics
#                     refresh and a rebind whose base moved plan nothing,
#                     the rebind's fallback compile aside; a statistics
#                     refresh opens no disk envelope; a compile builds no
#                     whole-grid cost array; an artifact writes each
#                     sub-plan once and its diagram arrays as bytes; a
#                     grid DP holds each subset at the shape of the axes
#                     it reads, and a one-location optimize holds no
#                     array at all; a repeated served hit decides nothing
#                     and builds no index over a whole base table; the
#                     canned group-by groups its keys by address, once
#                     per aggregate run); counts only, nothing is timed
#   make census       the figures a CHANGES entry quotes: lines per package
#                     of src/ and in total (also with tests/, benchmarks/
#                     and examples/ added, so a move is not a deletion),
#                     BouquetConfig field and ServeRequest key counts, who
#                     takes a workers parameter, defaulted public
#                     parameters per package, the CLI subcommands, and the
#                     public definitions only tests reach
#   make bench        regenerate every paper table/figure
#   make experiments  bench + rebuild EXPERIMENTS.md
#   make examples     run the example scripts end to end
#   make all          test + experiments + examples
#   make clean        remove caches and generated results

PYTHON ?= python

.PHONY: help install test lint ci ledger-smoke perf-guards census bench experiments examples all clean

help:
	@sed -n 's/^#   //p' Makefile

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; running the stdlib unused-import and export checks"; \
		PYTHONPATH=src $(PYTHON) -m pytest tests/test_public_surface.py -q; \
	fi

ci: lint ledger-smoke perf-guards
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The pipeline's benchmark, small: each run checks its outputs (reference
# rows, cache tiers, digests, rosters) and exits non-zero on a mismatch,
# so a change that breaks them fails here and not after it is pushed.
ledger-smoke:
	for workload in serve_hot serve_churn compile_cold eval_campaign; do \
		$(PYTHON) ledger/run.py --workload $$workload --smoke || exit 1; \
	done
	$(PYTHON) -m pytest ledger/tests -q

# The guards of the hit path that count instead of timing: deterministic,
# a few seconds, and otherwise outside every gate (benchmarks/ is not a
# tier-1 test path).
perf-guards:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_perf_microbench.py -q \
		-k "warm_request or one_execution or one_dp or spill_evaluations or dense_probes or prepared or axis_tables or each_qrun_once or sweep_steps or reuses_its_opening or plans_nothing or opens_no_envelope or builds_no_cost_grid or each_subplan_once or frontier_elements or no_frontier_array or repeat_hit_is_prepared or canned_group_by or replays_its_build_sides" --benchmark-disable

census:
	@PYTHONPATH=src $(PYTHON) tests/test_public_surface.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments: bench
	$(PYTHON) benchmarks/assemble_experiments.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/etl_unknown_stats.py
	$(PYTHON) examples/robust_dashboard.py
	$(PYTHON) examples/strategy_faceoff.py
	$(PYTHON) examples/canned_query_service.py
	$(PYTHON) examples/async_service.py
	$(PYTHON) examples/plan_diagram_gallery.py

all: test experiments examples

clean:
	rm -rf .pytest_cache .benchmarks results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
