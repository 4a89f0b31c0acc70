"""CLI for the determinism gate: ``repro staticcheck`` (also runnable
standalone as ``python -m repro.staticcheck``).

Exit codes: 0 = gate green, 1 = new violations (each printed
diff-style with rule + file:line), 2 = usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, TextIO

from repro.staticcheck.baseline import Baseline, count_violations
from repro.staticcheck.checker import CheckResult, check_paths
from repro.staticcheck.rules import RULES

__all__ = ["add_arguments", "run", "main"]

DEFAULT_BASELINE = "staticcheck-baseline.json"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``staticcheck`` flags to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files/directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=f"pinned-baseline JSON (default: ./{DEFAULT_BASELINE} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; report every violation",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-pin the baseline to exactly this scan's violations and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def _resolve_baseline_path(args: argparse.Namespace) -> Path | None:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE)
    if default.exists() or args.update_baseline:
        return default
    return None


def run(args: argparse.Namespace, out: TextIO | None = None) -> int:
    """Execute the gate; returns a process exit code."""
    out = out or sys.stdout
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}  {rule.title}", file=out)
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"staticcheck: no such path: {', '.join(missing)}", file=out)
        return 2

    result: CheckResult = check_paths(args.paths)
    baseline_path = _resolve_baseline_path(args)

    if args.update_baseline:
        assert baseline_path is not None
        Baseline.from_violations(result.violations).save(baseline_path)
        print(
            f"staticcheck: baseline re-pinned to {baseline_path} "
            f"({len(count_violations(result.violations))} entries, "
            f"{len(result.violations)} violations)",
            file=out,
        )
        return 0

    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"staticcheck: cannot load baseline: {exc}", file=out)
            return 2
    else:
        baseline = Baseline.empty()

    diff = baseline.diff(result.violations)
    for violation in diff.new:
        print(f"+ {violation.render()}", file=out)
    for key, (pinned, fresh) in sorted(diff.stale.items()):
        print(
            f"- {key}: baseline allows {pinned}, found {fresh} — ratchet down "
            "with --update-baseline",
            file=out,
        )
    for note in result.unused_noqa:
        print(f"? unused suppression at {note}", file=out)

    status = "ok" if diff.ok else f"FAIL ({len(diff.new)} new violations)"
    print(
        f"staticcheck: {status} — {result.files} files, "
        f"{len(result.violations)} violations "
        f"({len(baseline.entries)} baselined, {result.suppressed} noqa-suppressed)",
        file=out,
    )
    return 0 if diff.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.staticcheck``)."""
    parser = argparse.ArgumentParser(
        prog="repro staticcheck",
        description="Determinism-contract static analyzer (rules RPR001-RPR005)",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
