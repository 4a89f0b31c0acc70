# Convenience targets for the reproduction harness.

.PHONY: install test test-slow lint staticcheck typecheck bench bench-smoke bench-json bench-check conform arena full-bench report tour clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Scale goldens deselected from tier-1 (the n = 10,000 sparse pin runs
# ~70s); the nightly CI job runs exactly this.
test-slow:
	PYTHONPATH=src pytest tests/ -m slow

# Static checks (CI runs the same invocations; `pip install -e .[lint]`
# locally for ruff + mypy — staticcheck itself is stdlib-only).
lint: staticcheck
	ruff check src tests
	$(MAKE) typecheck

# Determinism-contract gate (rules RPR001-RPR005 over src/repro,
# ratcheted against staticcheck-baseline.json).  Pure stdlib — runs
# from a clean checkout with no installs.
staticcheck:
	PYTHONPATH=src python -m repro staticcheck src/repro

# Strict typing gate for the determinism-critical packages
# (repro.core, repro.radio, repro._util); the rest of the tree is on
# the ratchet list in pyproject.toml [tool.mypy] overrides.
typecheck:
	mypy -p repro

# Dual-path conformance: the quick scenario matrix plus a short seeded
# fuzz (<= 30s wall clock total).  Exits nonzero with a slot/node-level
# divergence report if the compatibility and vectorized engine paths
# ever disagree.  The same scenarios run inside tier-1 pytest as the
# `conform`-marked smoke subset (`pytest -m conform`).
conform:
	PYTHONPATH=src python -m repro conform --quick --fuzz 64 --budget 20

# The protocol x PHY arena: the pinned lockstep cells behind every
# pairing (repro conform --arena), then the E18 comparison table
# (colors, time-to-completion, message cost per protocol x PHY).
arena:
	PYTHONPATH=src python -m repro conform --arena
	PYTHONPATH=src python -m repro experiment e18

bench:
	pytest benchmarks/ --benchmark-only

# Fast benchmark sanity pass: the engine microbenchmarks (including the
# vectorized-vs-classic speedup gate) plus one experiment bench at tiny
# scale.  Meant for pre-merge smoke, not for archived numbers; works
# from a clean checkout (no `make install` needed).
bench-smoke:
	PYTHONPATH=src pytest benchmarks/bench_engine_microbench.py \
	  benchmarks/bench_engine_blocks.py \
	  benchmarks/bench_e1_correctness.py --benchmark-only -q

# Regenerate the committed engine-path baseline (BENCH_engine.json at
# the repo root): classic vs per-slot-vectorized vs block-stepped on
# the sparse-deployment cold-start workload (n in {100, 400, 1600}) and
# the active-set sparse cells (n in {1e4, 1e5} vs dense blocked plus
# the sparse-only n=1e6 scale cell).  --repeats 5 keeps the vectorized-vs-classic
# crossover pin stable against timer noise.
# Commit the refreshed JSON together with whatever engine change
# motivated it; CI guards it via scripts/check_bench.py.
bench-json:
	PYTHONPATH=src python -m repro.experiments.engine_bench --repeats 5 \
	  --out BENCH_engine.json

# Re-run the engine benchmark and compare against the committed
# baseline (2x wall-clock tolerance; blocked-vs-per-slot speedup floor
# on the n=1600 cell, vectorized <= classic at every pinned n, and the
# >= 3x sparse-vs-blocked floor on the sparse cells).
bench-check:
	PYTHONPATH=src python scripts/check_bench.py

# Full-scale experiment sweeps (slow; writes benchmarks/results/full/).
full-bench:
	mkdir -p benchmarks/results/full
	for e in e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18; do \
	  python -m repro experiment $$e --full --csv benchmarks/results/full/$$e.csv \
	    > benchmarks/results/full/$$e.txt; \
	done

report:
	python examples/paper_tour.py

tour: report

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
