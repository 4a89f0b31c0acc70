"""Differential conformance harness: the standing oracle for engine routes.

The engine runs a node population on one of two span-stepped routes —
the vectorized route for batched populations, the event-driven classic
route for ``ColoringNode`` ones — and every route must simulate the
*same* radio model as the engine's per-slot loop, slot for slot.  This
package checks that mechanically rather than by spot test:

- :mod:`repro.conform.lockstep` — runs a route, at a chosen block size,
  next to its per-slot reference on one seed and compares every slot's
  trace events and channel metrics, and the terminal state;
- :mod:`repro.conform.divergence` — localizes the first mismatch to a
  (slot, node, field) triple with a minimized reproducer;
- :mod:`repro.conform.scenarios` — the pinned conformance matrices and a
  seeded random-scenario fuzzer (graph family x wake-up schedule x loss
  x protocol constants x PHY x protocol x block size);
- :mod:`repro.conform.runner` — matrix / budgeted-fuzz campaign driver,
  one cell per scenario and node population (``repro conform`` on the
  command line, ``make conform`` in CI);
- :mod:`repro.conform.broken` — deliberately broken node classes that
  keep the localizer itself honest.
"""

from repro.conform.broken import LateActivationNode, LateStepNode, OffByOneCounterNode
from repro.conform.divergence import ConformanceReport, Divergence, localize_slot
from repro.conform.lockstep import (
    LockstepPair,
    PerSlotNode,
    SlotUniformSource,
    SourcedBeaconNode,
    StepShimNode,
    build_lockstep,
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
    "LateStepNode",
    "LockstepPair",
    "OffByOneCounterNode",
    "PerSlotNode",
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
    "run_cells",
    "run_lockstep",
    "run_matrix",
    "run_scenario",
    "run_unaligned_lockstep",
]
