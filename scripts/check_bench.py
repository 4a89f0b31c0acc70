#!/usr/bin/env python
"""Guard the committed engine benchmark baseline (``BENCH_engine.json``).

Two layers of checking, both driven by the same cell definitions the
baseline was generated from (:mod:`repro.experiments.engine_bench`):

1. **Committed-baseline gates** — the checked-in JSON must itself
   satisfy the perf contract: the ``n = 1600`` sparse-deployment cell
   shows the block-stepped path at least ``--committed-speedup-floor``
   (default 1.5x) faster than the per-slot fast path — the floor
   dropped from the historical 3x when the per-slot crossover fix
   made the vectorized reference itself ~2x faster; and the per-slot
   vectorized path is no slower than classic at every pinned n.
   Sparse cells gate the active-set stepping path: every pinned
   ``SPARSE_CELLS`` row must be present, dense-baseline cells must show
   sparse at least ``--sparse-speedup-floor`` (default 3x) faster than
   dense blocked, and the committed-only ``n = 1M`` scale cell must
   record a completed run with nonzero transmissions.  This catches a
   regenerated baseline that silently recorded a regression.  A
   malformed or schema-mismatched baseline fails with a message naming
   the offending field, never a ``KeyError`` traceback.

2. **Fresh-run comparison** — the benchmark is re-run on this machine
   and compared cell-by-cell against the committed wall-clock numbers
   with a multiplicative ``--tolerance`` (default 2x, absorbing
   machine-to-machine and CI-runner noise).  A fresh run *slower* than
   ``tolerance x committed`` fails (perf regression); a fresh run more
   than ``tolerance`` *faster* only warns (stale baseline — regenerate
   with ``make bench-json``).  The fresh run must also keep a relative
   blocked-vs-per-slot speedup of at least ``--fresh-speedup-floor``
   (default 1.25x) on the headline cell: relative speedups transfer
   across machines far better than absolute seconds, so this is the
   robust CI signal.  The vectorized-vs-classic crossover is re-checked
   with ``--fresh-vectorized-slack`` (default 1.25x) noise headroom, and
   sparse cells keep at least ``--fresh-sparse-speedup-floor`` (default
   2x) over dense blocked.

Exit status 0 iff every gate passes.  Run from the repo root:

    PYTHONPATH=src python scripts/check_bench.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.engine_bench import (  # noqa: E402
    CELLS,
    SCHEMA_VERSION,
    SPARSE_CELLS,
    BenchCell,
    SparseCell,
    run_bench,
)

HEADLINE_N = 1600
_TIMED_KEYS = ("classic_s", "vectorized_s", "blocked_s")
_SPARSE_TIMED_KEYS = ("blocked_s", "sparse_s")


def _fail(msg: str) -> str:
    return f"FAIL: {msg}"


class BenchFormatError(Exception):
    """A malformed baseline row; the message names the offending field."""


def _field(row: dict, key: str, label: str):
    """``row[key]`` with a named, actionable failure instead of a
    ``KeyError`` traceback when the baseline is malformed."""
    if not isinstance(row, dict):
        raise BenchFormatError(
            f"{label}: row is {type(row).__name__}, expected a JSON object "
            "(regenerate with `make bench-json`)"
        )
    if key not in row:
        raise BenchFormatError(
            f"{label}: missing field {key!r} "
            "(schema mismatch; regenerate with `make bench-json`)"
        )
    value = row[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BenchFormatError(
            f"{label}: field {key!r} holds {value!r}, expected a number "
            "(regenerate with `make bench-json`)"
        )
    return value


def _cell_from_row(cls, row: dict, label: str):
    """Rebuild the cell dataclass from a baseline row, naming any field
    that is missing or of the wrong type."""
    kwargs = {}
    for name, field_def in cls.__dataclass_fields__.items():
        if not isinstance(row, dict) or name not in row:
            raise BenchFormatError(
                f"{label}: missing field {name!r} "
                "(schema mismatch; regenerate with `make bench-json`)"
            )
        kwargs[name] = row[name]
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise BenchFormatError(f"{label}: malformed cell definition: {exc}") from exc


def _rows(payload: dict, key: str, label: str) -> list:
    """The ``payload[key]`` row list, or a named format error."""
    rows = payload.get(key, ())
    if not isinstance(rows, list):
        raise BenchFormatError(
            f"{label}: field {key!r} holds {type(rows).__name__}, expected "
            "a list of cell rows (regenerate with `make bench-json`)"
        )
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise BenchFormatError(
                f"{label}: {key}[{i}] is {type(row).__name__}, expected a "
                "JSON object (regenerate with `make bench-json`)"
            )
    return rows


def check_committed(
    payload: dict,
    *,
    committed_speedup_floor: float,
    sparse_speedup_floor: float,
) -> list[str]:
    """Structural and perf-contract gates on the committed baseline."""
    errors: list[str] = []
    if payload.get("schema") != SCHEMA_VERSION:
        errors.append(
            _fail(
                f"schema {payload.get('schema')!r} != {SCHEMA_VERSION} "
                "(regenerate with `make bench-json`)"
            )
        )
        return errors
    try:
        by_n = {
            _field(row, "n", f"cells[{i}]"): row
            for i, row in enumerate(_rows(payload, "cells", "committed baseline"))
        }
    except BenchFormatError as exc:
        return [_fail(str(exc))]
    for cell in CELLS:
        row = by_n.get(cell.n)
        if row is None:
            errors.append(_fail(f"committed baseline is missing the n={cell.n} cell"))
            continue
        label = f"committed n={cell.n} cell"
        try:
            committed_cell = _cell_from_row(BenchCell, row, label)
            if committed_cell != cell:
                errors.append(
                    _fail(
                        f"n={cell.n}: committed workload {committed_cell} does "
                        f"not match the code's cell definition {cell} "
                        "(regenerate with `make bench-json`)"
                    )
                )
                continue
            # The per-slot fast path must not lose to the per-node loop
            # at any pinned n (the vectorized-crossover regression gate).
            vectorized_s = _field(row, "vectorized_s", label)
            classic_s = _field(row, "classic_s", label)
            if vectorized_s > classic_s:
                errors.append(
                    _fail(
                        f"n={cell.n}: committed vectorized path "
                        f"{vectorized_s:.3f}s is slower than classic "
                        f"{classic_s:.3f}s (regenerate with `make "
                        "bench-json`; if it persists the fast path regressed)"
                    )
                )
        except BenchFormatError as exc:
            errors.append(_fail(str(exc)))
    headline = by_n.get(HEADLINE_N)
    if headline is not None:
        try:
            speedup = _field(
                headline,
                "speedup_blocked_vs_vectorized",
                f"committed n={HEADLINE_N} cell",
            )
            if speedup < committed_speedup_floor:
                errors.append(
                    _fail(
                        f"committed n={HEADLINE_N} blocked-vs-per-slot speedup "
                        f"{speedup:.2f}x < required {committed_speedup_floor:.1f}x"
                    )
                )
        except BenchFormatError as exc:
            errors.append(_fail(str(exc)))
    try:
        by_sn = {
            _field(row, "n", f"sparse_cells[{i}]"): row
            for i, row in enumerate(
                _rows(payload, "sparse_cells", "committed baseline")
            )
        }
    except BenchFormatError as exc:
        errors.append(_fail(str(exc)))
        by_sn = {}
    for scell in SPARSE_CELLS:
        row = by_sn.get(scell.n)
        if row is None:
            errors.append(
                _fail(
                    f"committed baseline is missing the n={scell.n} sparse "
                    "cell (regenerate with `make bench-json`)"
                )
            )
            continue
        label = f"committed n={scell.n} sparse cell"
        try:
            committed_scell = _cell_from_row(SparseCell, row, label)
            if committed_scell != scell:
                errors.append(
                    _fail(
                        f"sparse n={scell.n}: committed workload "
                        f"{committed_scell} does not match the code's cell "
                        f"definition {scell} (regenerate with `make bench-json`)"
                    )
                )
                continue
            # Every sparse cell — including the committed-only n = 1M
            # scale proof — must have completed end to end with real
            # protocol activity.
            _field(row, "sparse_s", label)
            if _field(row, "tx_total", label) <= 0:
                errors.append(
                    _fail(
                        f"sparse n={scell.n}: committed run recorded no "
                        "transmissions — the horizon never exercised the "
                        "sparse path (re-tune the cell)"
                    )
                )
            if scell.dense_baseline:
                speedup = _field(row, "speedup_sparse_vs_blocked", label)
                if speedup < sparse_speedup_floor:
                    errors.append(
                        _fail(
                            f"committed sparse n={scell.n} sparse-vs-blocked "
                            f"speedup {speedup:.2f}x < required "
                            f"{sparse_speedup_floor:.1f}x"
                        )
                    )
        except BenchFormatError as exc:
            errors.append(_fail(str(exc)))
    return errors


def _compare_timed(
    kind: str,
    ident,
    keys: tuple[str, ...],
    row: dict,
    base: dict,
    *,
    tolerance: float,
    errors: list[str],
    warnings: list[str],
) -> None:
    """Tolerance-compare the timed columns of one fresh/committed row pair."""
    for key in keys:
        got = _field(row, key, f"fresh {kind}={ident} cell")
        want = _field(base, key, f"committed {kind}={ident} cell")
        if got > want * tolerance:
            errors.append(
                _fail(
                    f"{kind}={ident} {key}: fresh {got:.3f}s is more than "
                    f"{tolerance:.1f}x the committed {want:.3f}s"
                )
            )
        elif got * tolerance < want:
            warnings.append(
                f"note: {kind}={ident} {key}: fresh {got:.3f}s is more than "
                f"{tolerance:.1f}x faster than committed {want:.3f}s "
                "(baseline looks stale; consider `make bench-json`)"
            )


def check_fresh(
    committed: dict,
    fresh: dict,
    *,
    tolerance: float,
    fresh_speedup_floor: float,
    fresh_vectorized_slack: float,
    fresh_sparse_speedup_floor: float,
) -> tuple[list[str], list[str]]:
    """Compare a fresh run against the committed baseline."""
    errors: list[str] = []
    warnings: list[str] = []
    committed_by_n = {row["n"]: row for row in committed.get("cells", ())}
    for row in fresh["cells"]:
        base = committed_by_n.get(row["n"])
        if base is None:
            continue
        _compare_timed(
            "n", row["n"], _TIMED_KEYS, row, base,
            tolerance=tolerance, errors=errors, warnings=warnings,
        )
        # Relative vectorized-vs-classic crossover, with slack for
        # single-run noise on a shared CI machine.
        if row["vectorized_s"] > row["classic_s"] * fresh_vectorized_slack:
            errors.append(
                _fail(
                    f"n={row['n']}: fresh vectorized path "
                    f"{row['vectorized_s']:.3f}s is more than "
                    f"{fresh_vectorized_slack:.2f}x the classic "
                    f"{row['classic_s']:.3f}s (per-slot fast path regressed)"
                )
            )
    fresh_headline = next(
        (row for row in fresh["cells"] if row["n"] == HEADLINE_N), None
    )
    if fresh_headline is not None:
        speedup = fresh_headline["speedup_blocked_vs_vectorized"]
        if speedup < fresh_speedup_floor:
            errors.append(
                _fail(
                    f"fresh n={HEADLINE_N} blocked-vs-per-slot speedup "
                    f"{speedup:.2f}x < required {fresh_speedup_floor:.1f}x"
                )
            )
    committed_by_sn = {
        row["n"]: row for row in committed.get("sparse_cells", ())
    }
    for row in fresh.get("sparse_cells", ()):
        if not row.get("dense_baseline", True):
            continue  # the n = 1M scale proof is committed-only
        base = committed_by_sn.get(row["n"])
        if base is not None:
            _compare_timed(
                "sparse n", row["n"], _SPARSE_TIMED_KEYS, row, base,
                tolerance=tolerance, errors=errors, warnings=warnings,
            )
        speedup = row["speedup_sparse_vs_blocked"]
        if speedup < fresh_sparse_speedup_floor:
            errors.append(
                _fail(
                    f"fresh sparse n={row['n']} sparse-vs-blocked speedup "
                    f"{speedup:.2f}x < required "
                    f"{fresh_sparse_speedup_floor:.1f}x"
                )
            )
    return errors, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="committed baseline path (default: repo-root BENCH_engine.json)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the fresh run's JSON here (CI artifact)",
    )
    parser.add_argument("--tolerance", type=float, default=2.0)
    parser.add_argument("--committed-speedup-floor", type=float, default=1.5)
    parser.add_argument("--fresh-speedup-floor", type=float, default=1.25)
    parser.add_argument("--fresh-vectorized-slack", type=float, default=1.25)
    parser.add_argument("--sparse-speedup-floor", type=float, default=3.0)
    parser.add_argument("--fresh-sparse-speedup-floor", type=float, default=2.0)
    parser.add_argument(
        "--skip-run",
        action="store_true",
        help="only validate the committed file (no fresh measurement)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as fh:
        committed = json.load(fh)
    errors = check_committed(
        committed,
        committed_speedup_floor=args.committed_speedup_floor,
        sparse_speedup_floor=args.sparse_speedup_floor,
    )
    warnings: list[str] = []
    if not args.skip_run and not errors:
        # The fresh run skips the sparse-only scale cells (n = 1M): they
        # measure deployment construction, not engine stepping, and the
        # committed row already proves the end-to-end run.
        fresh = run_bench(
            sparse_cells=tuple(c for c in SPARSE_CELLS if c.dense_baseline),
            repeats=2,
            verbose=True,
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(fresh, fh, indent=2)
                fh.write("\n")
        run_errors, warnings = check_fresh(
            committed,
            fresh,
            tolerance=args.tolerance,
            fresh_speedup_floor=args.fresh_speedup_floor,
            fresh_vectorized_slack=args.fresh_vectorized_slack,
            fresh_sparse_speedup_floor=args.fresh_sparse_speedup_floor,
        )
        errors.extend(run_errors)
    for line in warnings:
        print(line)
    for line in errors:
        print(line)
    if errors:
        return 1
    print("check_bench: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
