"""Engine execution-path benchmark: classic vs vectorized vs block-stepped.

The perf-regression harness for the simulation engine itself (the
E-series benchmarks measure *protocol* behavior; this one measures the
*engine*).  Three execution paths run the same coloring workload:

- ``classic`` — per-node :meth:`ProtocolNode.step` calls
  (:class:`~repro.core.node.ColoringNode`);
- ``vectorized`` — the per-slot fast path, one ``rng.random(n)`` per
  slot (:class:`~repro.core.vector_node.BernoulliColoringNode`);
- ``blocked`` — the block-stepped fast path
  (:meth:`~repro.radio.engine.RadioSimulator.step_block` via
  ``run(..., block=B)``), which is trajectory-identical to
  ``vectorized`` and therefore a pure engine-speed comparison.

Workload: the **cold-start phase of a sparse deployment**.  Nodes wake
uniformly at random over a ``wake_window_mult * n``-slot window and the
benchmark measures the first ``slots`` slots from slot 0.  This is the
regime the block-stepped mode exists for — long all-passive spans
before the first activations, then a low constant transmitter density
(the paper's sending probabilities are ``1/kappa_2`` for leaders and
``1/(kappa_2 * Delta)`` otherwise) — and it is also the regime where
per-slot Python overhead dominates real experiment wall-clock (E7's
wake-up sweeps spend most of their slots exactly here).  In dense
steady state every slot carries transmissions, both fast paths pay the
same per-fire-slot Python, and the blocked speedup shrinks toward the
draw-batching gain alone; the committed baseline records the cold-start
numbers, which is what ``scripts/check_bench.py`` guards.

Parameters use :meth:`Parameters.practical` — the exact
:meth:`Parameters.for_deployment` constants need a branch-and-bound MIS
per neighborhood, which is itself slower than the whole benchmark at
``n = 1600``.

**Sparse cells** (``SPARSE_CELLS``) measure the active-set sparse
stepping path (``build_simulator(..., sparse=True)``) against the dense
blocked path on an *extreme* cold start at ``n = 10^4``-``10^6``: with
only a handful of nodes awake inside the horizon, dense blocked still
draws a full ``(chunk, n)`` uniform segment per active span while the
sparse path walks just the awake columns (byte-identically — the
in-benchmark tripwire checks totals, the conformance SPARSE_MATRIX the
slots).  The ``n = 10^6`` cell is sparse-only and committed-only: the
end-to-end scale proof, too deployment-construction-heavy for CI's
fresh re-run.

Run ``make bench-json`` (or ``python -m repro.experiments.engine_bench``)
to regenerate ``BENCH_engine.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.node import ColoringNode
from repro.core.params import Parameters
from repro.core.protocol import build_simulator
from repro.core.vector_node import BernoulliColoringNode
from repro.graphs import random_udg
from repro.wakeup import uniform_random

__all__ = [
    "CELLS",
    "SCHEMA_VERSION",
    "SPARSE_CELLS",
    "BenchCell",
    "SparseCell",
    "build_sparse_workload",
    "build_workload",
    "main",
    "measure_cell",
    "measure_sparse_cell",
    "run_bench",
]

SCHEMA_VERSION = 4

#: Metric columns whose totals must agree between the vectorized and
#: blocked runs of every cell (the in-benchmark identity tripwire; the
#: full slot-for-slot check lives in the conformance matrix).
_IDENTITY_COLUMNS = ("tx", "rx", "collisions", "lost", "protocol_draws", "loss_draws")


@dataclass(frozen=True)
class BenchCell:
    """One benchmark configuration (a row of ``BENCH_engine.json``)."""

    n: int
    slots: int  #: measured horizon (no stop predicate: fixed work)
    expected_degree: float = 12.0
    wake_window_mult: int = 500  #: wake window = this many slots per node
    block: int = 1024  #: block size for the blocked path
    graph_seed: int = 1
    wake_seed: int = 2
    sim_seed: int = 3


#: The pinned matrix: n = 1600 is the headline sparse-deployment cell
#: (the blocked-vs-per-slot speedup gate — >= 1.5x now that the
#: per-slot crossover fix made the vectorized reference itself fast);
#: the smaller cells track how the win scales down.  Fixed slot
#: horizons keep the work identical across paths and machines.
CELLS: tuple[BenchCell, ...] = (
    BenchCell(n=100, slots=20_000),
    BenchCell(n=400, slots=20_000),
    BenchCell(n=1600, slots=20_000),
)

_PATHS: tuple[tuple[str, type, int], ...] = (
    ("classic", ColoringNode, 1),
    ("vectorized", BernoulliColoringNode, 1),
    ("blocked", BernoulliColoringNode, 0),  # 0 -> cell.block
)


@dataclass(frozen=True)
class SparseCell:
    """One active-set sparse-stepping benchmark configuration.

    The workload is an *extreme* cold start: the wake window is
    ``wake_window_mult * n`` slots, so only ``~slots / wake_window_mult``
    nodes are awake inside the measured horizon.  The dense blocked path
    still draws a ``(chunk, n)`` uniform segment for every span that has
    any active row; the sparse path walks only the awake-and-undecided
    columns, so its cost is independent of ``n`` — this matrix is how
    the engine reaches the 10^5-10^6-node scale.
    """

    n: int
    slots: int  #: measured horizon (no stop predicate: fixed work)
    expected_degree: float = 12.0
    wake_window_mult: int = 5000  #: wake window = this many slots per node
    block: int = 1024  #: block size for both fast paths
    graph_seed: int = 1
    wake_seed: int = 2
    sim_seed: int = 3
    #: measure the dense blocked path alongside (the speedup baseline);
    #: False = sparse-only (the n = 1M scale proof, where a dense run
    #: would draw ~``slots * n`` uniforms for nothing)
    dense_baseline: bool = True


#: The pinned sparse matrix: n = 10^4 and 10^5 carry the
#: sparse-vs-blocked speedup gate (>= 3x, checked by
#: ``scripts/check_bench.py``); the n = 10^6 cell is the committed-only
#: end-to-end scale proof (excluded from CI's fresh re-run — its cost is
#: deployment construction, not engine stepping).
SPARSE_CELLS: tuple[SparseCell, ...] = (
    SparseCell(n=10_000, slots=20_000),
    SparseCell(n=100_000, slots=20_000),
    SparseCell(n=1_000_000, slots=20_000, dense_baseline=False),
)


def build_workload(cell: BenchCell):
    """Deployment, parameters, and wake schedule for one cell."""
    dep = random_udg(
        cell.n, expected_degree=cell.expected_degree, seed=cell.graph_seed
    )
    params = Parameters.practical(cell.n, max(2, dep.max_degree), 5, 18)
    wake = uniform_random(
        cell.n, window=cell.wake_window_mult * cell.n, seed=cell.wake_seed
    )
    return dep, params, wake


def _time_path(dep, params, wake, cell: BenchCell, node_cls, block: int):
    """One timed run; returns (seconds, channel totals)."""
    sim, _ = build_simulator(
        dep, params, wake, seed=cell.sim_seed, node_cls=node_cls, trace_level=0
    )
    t0 = time.perf_counter()
    sim.run(cell.slots, block=block)
    elapsed = time.perf_counter() - t0
    return elapsed, sim.trace.channel_metrics.totals()


def measure_cell(cell: BenchCell, *, repeats: int = 2) -> dict:
    """Measure all three paths on one cell (best of ``repeats`` runs).

    Also cross-checks that the vectorized and blocked runs produced
    identical channel-metric totals — a perf number for a path that
    diverged from the model would be worse than no number.
    """
    dep, params, wake = build_workload(cell)
    row: dict = dict(asdict(cell))
    totals: dict[str, dict] = {}
    for name, node_cls, block in _PATHS:
        block = block or cell.block
        best = None
        for _ in range(max(1, repeats)):
            elapsed, tot = _time_path(dep, params, wake, cell, node_cls, block)
            best = elapsed if best is None else min(best, elapsed)
        totals[name] = tot
        row[f"{name}_s"] = round(best, 6)
        row[f"{name}_slots_per_s"] = round(cell.slots / best, 1)
    for col in _IDENTITY_COLUMNS:
        if totals["vectorized"][col] != totals["blocked"][col]:
            raise AssertionError(
                f"blocked path diverged from per-slot fast path on cell "
                f"n={cell.n}: totals[{col!r}] "
                f"{totals['blocked'][col]} != {totals['vectorized'][col]}"
            )
    row["tx_total"] = int(totals["vectorized"]["tx"])
    row["speedup_blocked_vs_vectorized"] = round(
        row["vectorized_s"] / row["blocked_s"], 3
    )
    row["speedup_blocked_vs_classic"] = round(row["classic_s"] / row["blocked_s"], 3)
    return row


def build_sparse_workload(cell: SparseCell):
    """Deployment, parameters, and wake schedule for one sparse cell."""
    dep = random_udg(
        cell.n, expected_degree=cell.expected_degree, seed=cell.graph_seed
    )
    params = Parameters.practical(cell.n, max(2, dep.max_degree), 5, 18)
    wake = uniform_random(
        cell.n, window=cell.wake_window_mult * cell.n, seed=cell.wake_seed
    )
    return dep, params, wake


def _time_sparse_path(dep, params, wake, cell: SparseCell, *, sparse: bool):
    """One timed run on the blocked fast path; returns (s, channel totals)."""
    sim, _ = build_simulator(
        dep,
        params,
        wake,
        seed=cell.sim_seed,
        node_cls=BernoulliColoringNode,
        trace_level=0,
        sparse=sparse,
    )
    t0 = time.perf_counter()
    sim.run(cell.slots, block=cell.block)
    elapsed = time.perf_counter() - t0
    return elapsed, sim.trace.channel_metrics.totals()


def measure_sparse_cell(cell: SparseCell, *, repeats: int = 2) -> dict:
    """Measure the sparse path (and its dense-blocked baseline) on one cell.

    On ``dense_baseline`` cells the two paths' channel-metric totals
    must agree exactly (the byte-identity tripwire; the slot-for-slot
    contract lives in the conformance SPARSE_MATRIX), and the row gains
    ``blocked_s`` / ``speedup_sparse_vs_blocked``.  Sparse-only cells
    record the sparse wall clock alone, plus ``tx_total`` as evidence
    the run carried real protocol activity end to end.
    """
    dep, params, wake = build_sparse_workload(cell)
    row: dict = dict(asdict(cell))
    best_sparse = None
    sparse_totals = None
    for _ in range(max(1, repeats)):
        elapsed, sparse_totals = _time_sparse_path(dep, params, wake, cell, sparse=True)
        best_sparse = elapsed if best_sparse is None else min(best_sparse, elapsed)
    assert best_sparse is not None and sparse_totals is not None
    row["sparse_s"] = round(best_sparse, 6)
    row["sparse_slots_per_s"] = round(cell.slots / best_sparse, 1)
    row["tx_total"] = int(sparse_totals["tx"])
    if cell.dense_baseline:
        best_dense = None
        dense_totals = None
        for _ in range(max(1, repeats)):
            elapsed, dense_totals = _time_sparse_path(
                dep, params, wake, cell, sparse=False
            )
            best_dense = elapsed if best_dense is None else min(best_dense, elapsed)
        assert best_dense is not None and dense_totals is not None
        for col in _IDENTITY_COLUMNS:
            if dense_totals[col] != sparse_totals[col]:
                raise AssertionError(
                    f"sparse path diverged from dense blocked path on cell "
                    f"n={cell.n}: totals[{col!r}] "
                    f"{sparse_totals[col]} != {dense_totals[col]}"
                )
        row["blocked_s"] = round(best_dense, 6)
        row["speedup_sparse_vs_blocked"] = round(
            row["blocked_s"] / row["sparse_s"], 3
        )
    return row


def run_bench(
    cells: tuple[BenchCell, ...] = CELLS,
    sparse_cells: tuple[SparseCell, ...] = SPARSE_CELLS,
    *,
    repeats: int = 2,
    verbose: bool = False,
) -> dict:
    """Measure every cell and return the ``BENCH_engine.json`` payload."""
    rows = []
    for cell in cells:
        row = measure_cell(cell, repeats=repeats)
        if verbose:
            print(
                f"n={row['n']:>5}  classic={row['classic_s']:.3f}s  "
                f"vectorized={row['vectorized_s']:.3f}s  "
                f"blocked={row['blocked_s']:.3f}s  "
                f"({row['speedup_blocked_vs_vectorized']:.2f}x vs per-slot)",
                file=sys.stderr,
            )
        rows.append(row)
    sparse_rows = []
    for scell in sparse_cells:
        srow = measure_sparse_cell(scell, repeats=repeats)
        if verbose:
            speed = (
                f"blocked={srow['blocked_s']:.3f}s  "
                f"({srow['speedup_sparse_vs_blocked']:.2f}x vs blocked)"
                if scell.dense_baseline
                else "(sparse-only scale cell)"
            )
            print(
                f"n={srow['n']:>8}  sparse={srow['sparse_s']:.3f}s  {speed}",
                file=sys.stderr,
            )
        sparse_rows.append(srow)
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "engine_blocks",
        "workload": "sparse-deployment cold start (see repro.experiments.engine_bench)",
        "sparse_workload": (
            "extreme cold start, active-set sparse stepping vs dense "
            "blocked (see repro.experiments.engine_bench)"
        ),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "repeats": repeats,
        "cells": rows,
        "sparse_cells": sparse_rows,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the benchmark matrix and write the JSON
    baseline (``make bench-json``)."""
    parser = argparse.ArgumentParser(
        description="Benchmark engine execution paths and write BENCH_engine.json"
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timed runs per (cell, path); best is kept (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    payload = run_bench(repeats=args.repeats, verbose=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
