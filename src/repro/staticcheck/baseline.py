"""Pinned-baseline ratchet for the determinism gate.

The baseline file (``staticcheck-baseline.json`` at the repo root)
records, per ``<contract-relpath>::<rule>`` key, how many violations
the committed tree is *allowed* to carry.  The gate is a ratchet:

- **new** violations (count above baseline for any key) fail the run,
  each printed diff-style with rule + file:line;
- **stale** entries (count now below baseline) do not fail, but are
  reported so the baseline can be ratcheted down with
  ``--update-baseline`` — counts only ever go down, never up, without
  an explicit re-pin;
- ``tests/test_staticcheck.py`` additionally asserts the committed
  baseline *exactly* matches a fresh self-scan, so in-repo drift in
  either direction is caught by tier-1 tests.

Keys use contract-relative paths (``radio/engine.py``), so the same
baseline applies to scans of temporary copies of the tree.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.staticcheck.rules import Violation

__all__ = ["Baseline", "BaselineDiff", "count_violations"]

_SCHEMA = 1


def count_violations(violations: Iterable[Violation]) -> dict[str, int]:
    """Violations grouped into baseline form: key → count."""
    return dict(sorted(Counter(v.baseline_key for v in violations).items()))


@dataclass
class BaselineDiff:
    """Fresh scan vs. pinned baseline."""

    new: list[Violation] = field(default_factory=list)  #: over-baseline, fail
    stale: dict[str, tuple[int, int]] = field(default_factory=dict)  #: key → (pinned, fresh)

    @property
    def ok(self) -> bool:
        return not self.new


@dataclass(frozen=True)
class Baseline:
    """An immutable set of pinned per-(file, rule) violation counts."""

    entries: Mapping[str, int]

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(entries={})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("schema") != _SCHEMA:
            raise ValueError(
                f"{path}: unsupported baseline schema {data.get('schema')!r} "
                f"(expected {_SCHEMA})"
            )
        entries = data.get("entries", {})
        if not isinstance(entries, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v > 0
            for k, v in entries.items()
        ):
            raise ValueError(f"{path}: 'entries' must map '<path>::<rule>' to counts > 0")
        return cls(entries=dict(entries))

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "Baseline":
        return cls(entries=count_violations(violations))

    def save(self, path: Path) -> None:
        """Write the pinned counts as pretty-printed JSON."""
        payload = {
            "schema": _SCHEMA,
            "comment": (
                "Pinned determinism-gate baseline: allowed violation counts "
                "per '<path-under-repro>::<rule>'. Regenerate with "
                "'python -m repro staticcheck src/repro --update-baseline'. "
                "Counts may only be ratcheted down."
            ),
            "entries": dict(sorted(self.entries.items())),
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def diff(self, violations: Iterable[Violation]) -> BaselineDiff:
        """Split a fresh scan into new violations and stale pins.

        Within one key, the first ``pinned`` violations (in report
        order) are considered covered; everything beyond is new.
        """
        diff = BaselineDiff()
        seen: Counter[str] = Counter()
        fresh: Counter[str] = Counter()
        for violation in violations:
            key = violation.baseline_key
            fresh[key] += 1
            seen[key] += 1
            if seen[key] > self.entries.get(key, 0):
                diff.new.append(violation)
        for key, pinned in self.entries.items():
            if fresh.get(key, 0) < pinned:
                diff.stale[key] = (pinned, fresh.get(key, 0))
        return diff
