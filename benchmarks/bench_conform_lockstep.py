"""Benchmarks for the differential conformance harness.

Lockstep execution runs a route and its per-slot reference with level-2
tracing on both sides, so it is intrinsically slower than a plain run —
but it has to stay cheap enough that ``make conform``'s
matrix-plus-fuzz budget is a pre-merge habit rather than a nightly job.  These benchmarks track the
harness's own overhead and gate the quick matrix under a wall-clock
ceiling.
"""

import time

from repro.conform import SCENARIO_MATRIX, fuzz, quick_matrix, run_cells, run_scenario


def test_single_lockstep_scenario(benchmark):
    """One mid-size matrix cell: route and reference + localization per
    slot."""
    report = benchmark.pedantic(
        lambda: run_scenario(SCENARIO_MATRIX[0]), rounds=1, iterations=1
    )
    assert report.ok, report.describe()


def test_quick_matrix_under_budget(benchmark):
    """The tier-1 smoke subset must stay interactive (well under the
    30s ``make conform`` budget; the usual cost is a few seconds)."""

    def run_quick():
        t0 = time.perf_counter()
        reports = [r for s in quick_matrix() for r in run_cells(s)]
        return reports, time.perf_counter() - t0

    reports, elapsed = benchmark.pedantic(run_quick, rounds=1, iterations=1)
    assert all(r.ok for r in reports)
    assert elapsed < 30.0, f"quick matrix took {elapsed:.1f}s (budget 30s)"


def test_fuzz_scenario_rate(benchmark):
    """Scenarios/second the budgeted fuzzer sustains (sizing the
    ``make conform`` fuzz budget)."""
    result = benchmark.pedantic(
        lambda: fuzz(0, budget_s=5.0, max_scenarios=8), rounds=1, iterations=1
    )
    assert result.ok, result.describe()
    rate = len(result.reports) / max(result.elapsed_s, 1e-9)
    print(f"\nfuzz rate: {rate:.1f} scenarios/s ({len(result.reports)} run)")
    assert len(result.reports) >= 1
