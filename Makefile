# Convenience targets for the reproduction harness.

.PHONY: install test test-slow lint staticcheck typecheck bench bench-smoke conform arena full-bench report tour clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Scale goldens deselected from tier-1 (the n = 10,000 blocked pin runs
# ~35s); the nightly CI job runs exactly this.
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

# Route conformance: the quick scenario matrix plus a short seeded fuzz
# (<= 30s wall clock total).  Exits nonzero with a slot/node-level
# divergence report if an engine route ever disagrees with the per-slot
# loop over the same node population.  The same scenarios run inside
# tier-1 pytest as the `conform`-marked smoke subset (`pytest -m
# conform`); the full wall is `python -m repro conform` (~1 min).
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

# Fast benchmark sanity pass: the engine microbenchmarks, one
# experiment bench at tiny scale, and the conformance harness's budget
# gate (the quick matrix under 30 s, the one-cell time, the fuzz rate).
# Meant for pre-merge smoke, not for archived numbers (timing claims
# come from bench/, exact work counts from
# tests/test_radio_engine_blocks.py); works from a clean checkout (no
# `make install` needed).
bench-smoke:
	PYTHONPATH=src pytest benchmarks/bench_engine_microbench.py \
	  benchmarks/bench_e1_correctness.py \
	  benchmarks/bench_conform_lockstep.py --benchmark-only -q

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
