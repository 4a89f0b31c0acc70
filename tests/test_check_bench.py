"""``scripts/check_bench.py`` gate logic: named failures, never tracebacks.

The checker guards the committed ``BENCH_engine.json``.  A malformed or
schema-mismatched baseline — hand-edited, truncated by a bad merge, or
generated by an older schema — must fail CI with a message naming the
offending field, not die with a ``KeyError`` traceback that points at
the checker instead of the baseline.  These tests drive the committed-
baseline gates on synthetic payloads covering the happy path and every
malformation class.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"
)
_spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
assert _spec is not None and _spec.loader is not None
check_bench = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench", check_bench)
_spec.loader.exec_module(check_bench)

from repro.experiments.engine_bench import CELLS, SCHEMA_VERSION  # noqa: E402
from dataclasses import asdict  # noqa: E402


def _good_payload() -> dict:
    """A committed baseline that satisfies every gate."""
    cells = []
    for cell in CELLS:
        row = dict(asdict(cell))
        row.update(
            classic_s=10.0,
            classic_slots_per_s=1.0,
            vectorized_s=2.0,
            vectorized_slots_per_s=1.0,
            blocked_s=1.0,
            blocked_slots_per_s=1.0,
            tx_total=100,
            speedup_blocked_vs_vectorized=2.0,
            speedup_blocked_vs_classic=10.0,
        )
        cells.append(row)
    return {"schema": SCHEMA_VERSION, "cells": cells}


def _check(payload: dict) -> list[str]:
    return check_bench.check_committed(payload, committed_speedup_floor=1.5)


def test_valid_baseline_passes():
    assert _check(_good_payload()) == []


def test_schema_mismatch_is_a_named_failure():
    payload = _good_payload()
    payload["schema"] = SCHEMA_VERSION - 1
    errors = _check(payload)
    assert len(errors) == 1
    assert "schema" in errors[0] and errors[0].startswith("FAIL")


def test_missing_timing_field_names_the_field():
    """A row without vectorized_s fails by name, not with a KeyError."""
    payload = _good_payload()
    del payload["cells"][0]["vectorized_s"]
    errors = _check(payload)
    assert any("'vectorized_s'" in e for e in errors), errors
    assert all(e.startswith("FAIL") for e in errors)


def test_missing_cell_definition_field_names_the_field():
    payload = _good_payload()
    del payload["cells"][1]["wake_window_mult"]
    errors = _check(payload)
    assert any("'wake_window_mult'" in e for e in errors), errors


def test_wrong_typed_field_names_the_field_and_value():
    payload = _good_payload()
    payload["cells"][0]["classic_s"] = "fast"
    errors = _check(payload)
    assert any("'classic_s'" in e and "'fast'" in e for e in errors), errors


def test_non_object_row_is_a_named_failure():
    payload = _good_payload()
    payload["cells"][0] = "oops"
    errors = _check(payload)
    assert any("cells[0]" in e for e in errors), errors


def test_rows_field_of_wrong_type_is_a_named_failure():
    payload = _good_payload()
    payload["cells"] = {"n": 1600}
    errors = _check(payload)
    assert any("'cells'" in e for e in errors), errors


def test_cell_definition_drift_fails():
    """A baseline generated from stale cell definitions is rejected."""
    payload = _good_payload()
    payload["cells"][0]["wake_window_mult"] = 123
    errors = _check(payload)
    assert any("does not match the code's cell definition" in e for e in errors)


def test_malformed_baseline_never_raises():
    """Whatever shape the JSON takes, the checker reports, not crashes."""
    for payload in (
        {},
        {"schema": SCHEMA_VERSION},
        {"schema": SCHEMA_VERSION, "cells": [{}]},
        {"schema": SCHEMA_VERSION, "cells": [{"n": "x"}]},
        {"schema": SCHEMA_VERSION, "cells": 7},
    ):
        errors = _check(payload)
        assert errors, f"payload {payload!r} produced no errors"
        assert all(e.startswith("FAIL") for e in errors)


def test_committed_file_passes_skip_run():
    """The checked-in baseline satisfies its own gates end to end."""
    rc = check_bench.main(["--skip-run"])
    assert rc == 0
