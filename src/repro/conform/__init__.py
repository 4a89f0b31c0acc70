"""Differential conformance harness: the standing oracle for engine paths.

The engine grows execution variants (today the vectorized fast path;
the ROADMAP names SINR-style and general-BIG backends next), and every
variant must simulate the *same* radio model as the per-node
compatibility path.  This package checks that mechanically rather than
by spot test:

- :mod:`repro.conform.lockstep` — runs both paths on one seed with a
  shared transmit-decision stream and compares every slot's trace
  events and channel metrics;
- :mod:`repro.conform.divergence` — localizes the first mismatch to a
  (slot, node, field) triple with a minimized reproducer;
- :mod:`repro.conform.scenarios` — the pinned conformance matrix and a
  seeded random-scenario fuzzer (graph family x wake-up schedule x loss
  x protocol constants);
- :mod:`repro.conform.runner` — matrix / budgeted-fuzz campaign driver
  (``repro conform`` on the command line, ``make conform`` in CI);
- :mod:`repro.conform.broken` — deliberately broken node classes that
  keep the localizer itself honest.
"""

from repro.conform.broken import LateActivationNode, OffByOneCounterNode
from repro.conform.divergence import ConformanceReport, Divergence, localize_slot
from repro.conform.lockstep import (
    LockstepPair,
    SlotUniformSource,
    SourcedBeaconNode,
    StepShimNode,
    build_lockstep,
    run_block_lockstep,
    run_lockstep,
    run_unaligned_lockstep,
)
from repro.conform.runner import FuzzResult, fuzz, run_cells, run_matrix, run_scenario
from repro.conform.scenarios import (
    ARENA_MATRIX,
    BLOCK_MATRIX,
    FAMILIES,
    PHY_MATRIX,
    PHYS,
    SCENARIO_MATRIX,
    SCHEDULES,
    Scenario,
    arena_matrix,
    block_matrix,
    phy_matrix,
    quick_matrix,
    random_scenarios,
)

__all__ = [
    "ARENA_MATRIX",
    "BLOCK_MATRIX",
    "FAMILIES",
    "PHYS",
    "PHY_MATRIX",
    "SCENARIO_MATRIX",
    "SCHEDULES",
    "ConformanceReport",
    "Divergence",
    "FuzzResult",
    "LateActivationNode",
    "LockstepPair",
    "OffByOneCounterNode",
    "Scenario",
    "SlotUniformSource",
    "SourcedBeaconNode",
    "StepShimNode",
    "arena_matrix",
    "block_matrix",
    "build_lockstep",
    "fuzz",
    "localize_slot",
    "phy_matrix",
    "quick_matrix",
    "random_scenarios",
    "run_block_lockstep",
    "run_cells",
    "run_lockstep",
    "run_matrix",
    "run_scenario",
    "run_unaligned_lockstep",
]
