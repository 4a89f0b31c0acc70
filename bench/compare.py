"""Compare two suite records metric by metric.

    python3 -m bench.compare A.json B.json

``A`` and ``B`` are written by ``python3 -m bench.run --seed S --out FILE``
(A is the parent, B the change).  For every (workload, end-to-end metric)
pair of ``BENCHMARK.json`` and :data:`SUITE_METRICS` the verdict on B is:

- ``worse`` / ``better``: the medians differ by more than the metric's
  bound (a share of A's median) and by more than the unit's absolute
  floor;
- ``unresolved``: either side's spread (max - min over its samples, as a
  share of A's median) is wider than the bound, unless every sample of B
  is better than every sample of A;
- ``same`` otherwise.

A higher failure share in B is a failure; so is, when both records used
the same seed, any difference in the output digest, ``sim_slots`` or
``colors_max``.  Exits 1 on any ``worse`` verdict or failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: absolute change below which a metric in this unit reads as the same.
FLOORS = {"s": 0.05, "MB": 5.0}
#: outputs that two records of the same seed must reproduce exactly.
EXACT = ("digest", "sim_slots", "colors_max")
#: end-to-end metrics the suite judges besides those of BENCHMARK.json:
#: median times per run.  A run's length depends on its input as much as
#: on the program, and a sub-millisecond ``verify_run`` reads the host's
#: speed at the few moments it runs, so across seeds these spread wider
#: than any bound and are not declared there; the suite's rounds share
#: one seed.
SUITE_METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "verify_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float, floor: float) -> str:
    """Verdict on sample summary ``b`` against ``a`` (median/min/max)."""
    base = abs(a["median"]) or 1.0
    worse_by = b["median"] - a["median"] if better == "lower" else a["median"] - b["median"]
    if max(s["max"] - s["min"] for s in (a, b)) > bound * base:
        all_better = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
        return "better" if all_better else "unresolved"
    if abs(worse_by) <= max(bound * base, floor):
        return "same"
    return "worse" if worse_by > 0 else "better"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether anything is worse or failed."""
    lines: list[str] = []
    bad = False
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        ra, rb = a["workloads"].get(name), b["workloads"].get(name)
        if ra is None or rb is None:
            lines.append(f"{name}: FAIL missing from {'A' if ra is None else 'B'}")
            bad = True
            continue
        for m in spec["end_to_end"] + SUITE_METRICS:
            ma, mb = ra["end_to_end"].get(m["name"]), rb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                lines.append(f"{name} {m['name']}: FAIL missing")
                bad = True
                continue
            v = verdict(ma, mb, m["better"], m["bound"], FLOORS.get(m["unit"], 0.0))
            change = (mb["median"] - ma["median"]) / (abs(ma["median"]) or 1.0)
            lines.append(
                f"{name} {m['name']}: {ma['median']:.6g} -> {mb['median']:.6g} {m['unit']} "
                f"({change:+.1%}, bound {m['bound']:.0%}) {v}"
            )
            bad |= v == "worse"
        fa = ra["end_to_end"]["failed_frac"]["median"]
        fb = rb["end_to_end"]["failed_frac"]["median"]
        if fb > fa:
            lines.append(f"{name} failed_frac: FAIL {fa:.3g} -> {fb:.3g}")
            bad = True
        if a["seed"] == b["seed"]:
            for key in EXACT:
                if ra["outputs"].get(key) != rb["outputs"].get(key):
                    lines.append(f"{name} {key}: FAIL {ra['outputs'].get(key)} -> {rb['outputs'].get(key)}")
                    bad = True
    if a["seed"] != b["seed"]:
        lines.append(f"# seeds differ ({a['seed']} vs {b['seed']}): outputs not compared")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 -m bench.compare A.json B.json", file=sys.stderr)
        return 2
    records = []
    for path in args:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    lines, bad = compare(records[0], records[1], spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
