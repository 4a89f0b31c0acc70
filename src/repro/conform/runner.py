"""Conformance campaign runner: matrices, budgeted fuzzing, parallelism.

Four entry points over :func:`repro.conform.lockstep.run_lockstep`:

- :func:`run_scenario` — one scenario, one report;
- :func:`run_cells` — one scenario's cells: its report, or for a block
  cell one report per node population (the protocol's vectorized and
  classic node classes, the engine's two block-stepped routes);
- :func:`run_matrix` — the cells of a scenario list, optionally across
  worker processes via the experiment harness's deterministic sweep
  executor (:func:`repro.experiments.parallel.run_sweep`), reports in
  scenario order regardless of worker count;
- :func:`fuzz` — a wall-clock-budgeted walk over the cells of
  :func:`~repro.conform.scenarios.random_scenarios`, stopping at the
  first divergence (fail fast: the reproducer matters more than the
  count) or when the budget or scenario cap runs out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from repro.conform.divergence import ConformanceReport
from repro.conform.lockstep import (
    run_block_lockstep,
    run_lockstep,
    run_unaligned_lockstep,
)
from repro.conform.scenarios import Scenario, random_scenarios
from repro.core.strategy import resolve_protocol

__all__ = ["FuzzResult", "fuzz", "run_cells", "run_matrix", "run_scenario"]


def run_scenario(
    scenario: Scenario,
    *,
    max_slots: int | None = None,
    vectorized_node_cls: type | None = None,
) -> ConformanceReport:
    """Build the scenario's world and run the lockstep comparison.

    Dispatches on ``scenario.phy``: ``collision``, ``multichannel``, and
    ``sinr`` lockstep the engine's classic and vectorized paths (on a
    :class:`~repro.radio.channel.MultiChannelPhy` /
    :class:`~repro.radio.channel.SinrPhy` for the latter two);
    ``unaligned`` locksteps the aligned classic engine against the
    zero-offset unaligned simulator on a scripted beacon population.
    ``scenario.protocol`` picks the node-logic strategy (the lockstep
    completion condition generalizes through it).  With
    ``scenario.block > 0`` the comparison is instead the vectorized
    population's per-slot stepping against its block-stepped mode
    (:func:`~repro.conform.lockstep.run_block_lockstep`;
    :func:`run_cells` also runs the classic population).
    """
    return _run(scenario, max_slots, vectorized_node_cls, vectorized=True)


def run_cells(
    scenario: Scenario,
    *,
    max_slots: int | None = None,
    vectorized_node_cls: type | None = None,
) -> list[ConformanceReport]:
    """The scenario's conformance cells: :func:`run_scenario`'s report,
    followed, for a block cell, by the same per-slot-vs-blocked lockstep
    of the protocol's classic population, whose block-stepped route
    takes node steps ahead of the deliveries and takes back the ones a
    cut overtakes."""
    reports = [run_scenario(scenario, max_slots=max_slots,
                            vectorized_node_cls=vectorized_node_cls)]
    if scenario.block:
        reports.append(_run(scenario, max_slots, None, vectorized=False))
    return reports


def _run(
    scenario: Scenario,
    max_slots: int | None,
    vectorized_node_cls: type | None,
    *,
    vectorized: bool,
) -> ConformanceReport:
    """:func:`run_scenario`, with a block cell run on the protocol's
    vectorized or classic node population."""
    dep, params, wake_slots = scenario.build()
    if scenario.phy == "unaligned":
        return run_unaligned_lockstep(
            dep,
            wake_slots,
            seed=scenario.seed,
            loss_prob=scenario.loss_prob,
            max_slots=max_slots,
            scenario=scenario,
        )
    phy_factory = None
    if scenario.phy == "multichannel":
        from repro.radio.channel import MultiChannelPhy

        phy_factory = partial(MultiChannelPhy, scenario.channels)
        if max_slots is None:
            # The meeting rate drops as 1/k; scale the budget with it.
            from repro.core.params import suggested_max_slots

            wake_max = int(wake_slots.max()) if dep.n else 0
            max_slots = suggested_max_slots(params, wake_max) * scenario.channels
    elif scenario.phy == "sinr":
        from repro.radio.channel import SinrPhy

        phy_factory = SinrPhy
    if scenario.block:
        proto = resolve_protocol(scenario.protocol)
        return run_block_lockstep(
            dep,
            params,
            wake_slots,
            seed=scenario.seed,
            loss_prob=scenario.loss_prob,
            block=scenario.block,
            max_slots=max_slots,
            node_cls=proto.node_cls(vectorized=vectorized),
            scenario=scenario,
            phy_factory=phy_factory,
            protocol=scenario.protocol,
        )
    return run_lockstep(
        dep,
        params,
        wake_slots,
        seed=scenario.seed,
        loss_prob=scenario.loss_prob,
        max_slots=max_slots,
        vectorized_node_cls=vectorized_node_cls,
        scenario=scenario,
        phy_factory=phy_factory,
        protocol=scenario.protocol,
    )


def _run_indexed(
    scenarios: tuple[Scenario, ...], index: int
) -> list[ConformanceReport]:
    """Module-level sweep kernel (picklable for the process pool)."""
    return run_cells(scenarios[index])


def run_matrix(
    scenarios: tuple[Scenario, ...] | list[Scenario],
    *,
    workers: int | None = None,
) -> list[ConformanceReport]:
    """Run every scenario's cells (:func:`run_cells`); reports come back
    in scenario order.

    ``workers`` follows the sweep executor's convention (``None`` reads
    ``REPRO_SWEEP_WORKERS``, ``0`` means all cores, ``1`` is serial).
    """
    from repro.experiments.parallel import run_sweep

    scenarios = tuple(scenarios)
    cells = run_sweep(
        partial(_run_indexed, scenarios),
        seeds=range(len(scenarios)),
        workers=workers,
    )
    return [report for reports in cells for report in reports]


@dataclass
class FuzzResult:
    """Outcome of a budgeted fuzz campaign: one report per cell of the
    ``scenarios`` scenarios run."""

    reports: list[ConformanceReport] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False
    scenarios: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def first_failure(self) -> ConformanceReport | None:
        return next((r for r in self.reports if not r.ok), None)

    def describe(self) -> str:
        """Campaign summary line plus the first failure's report, if any."""
        verdict = "all conform" if self.ok else "DIVERGENCE FOUND"
        lines = [
            f"fuzz: {self.scenarios} scenarios ({len(self.reports)} cells) "
            f"in {self.elapsed_s:.1f}s ({verdict})"
        ]
        failure = self.first_failure
        if failure is not None:
            lines.append(failure.describe())
        return "\n".join(lines)


def fuzz(
    master_seed: int = 0,
    *,
    budget_s: float = 20.0,
    max_scenarios: int | None = None,
) -> FuzzResult:
    """Fuzz random scenarios until the budget, the cap, or a divergence.

    Each scenario runs as its cells (:func:`run_cells`), so a block
    scenario adds one report per node population.  The scenario stream
    is fully determined by ``master_seed``; the wall-clock budget only
    decides *how far* into the stream the campaign gets, so any failure
    it finds is replayable from the failing scenario record alone.
    """
    if budget_s <= 0:
        raise ValueError(f"budget_s must be positive, got {budget_s}")
    result = FuzzResult()
    t0 = time.monotonic()  # repro: noqa RPR003 -- fuzz wall-clock budget: decides only how many scenarios run, never any scenario's content (stream is fixed by master_seed)
    for count, scenario in enumerate(random_scenarios(master_seed), start=1):
        cells = run_cells(scenario)
        result.reports.extend(cells)
        result.scenarios = count
        result.elapsed_s = time.monotonic() - t0  # repro: noqa RPR003 -- telemetry only; see budget note above
        if not all(report.ok for report in cells):
            break
        if max_scenarios is not None and count >= max_scenarios:
            break
        if result.elapsed_s >= budget_s:
            result.budget_exhausted = True
            break
    result.elapsed_s = time.monotonic() - t0  # repro: noqa RPR003 -- telemetry only; see budget note above
    return result
