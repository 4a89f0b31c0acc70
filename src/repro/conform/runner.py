"""Conformance campaign runner: matrices, budgeted fuzzing, parallelism.

Three entry points over :func:`repro.conform.lockstep.run_lockstep`:

- :func:`run_scenario` — one scenario, one report;
- :func:`run_matrix` — a scenario list, optionally across worker
  processes via the experiment harness's deterministic sweep executor
  (:func:`repro.experiments.parallel.run_sweep`), reports in scenario
  order regardless of worker count;
- :func:`fuzz` — a wall-clock-budgeted walk over
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

__all__ = ["FuzzResult", "fuzz", "run_matrix", "run_scenario"]


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
    path's per-slot stepping against its block-stepped mode
    (:func:`~repro.conform.lockstep.run_block_lockstep`), with
    ``scenario.sparse`` moving the blocked side onto the engine's sparse
    stepping route.
    """
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
        return run_block_lockstep(
            dep,
            params,
            wake_slots,
            seed=scenario.seed,
            loss_prob=scenario.loss_prob,
            block=scenario.block,
            max_slots=max_slots,
            scenario=scenario,
            phy_factory=phy_factory,
            sparse=scenario.sparse,
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


def _run_indexed(scenarios: tuple[Scenario, ...], index: int) -> ConformanceReport:
    """Module-level sweep kernel (picklable for the process pool)."""
    return run_scenario(scenarios[index])


def run_matrix(
    scenarios: tuple[Scenario, ...] | list[Scenario],
    *,
    workers: int | None = None,
) -> list[ConformanceReport]:
    """Run every scenario; reports come back in scenario order.

    ``workers`` follows the sweep executor's convention (``None`` reads
    ``REPRO_SWEEP_WORKERS``, ``0`` means all cores, ``1`` is serial).
    """
    from repro.experiments.parallel import run_sweep

    scenarios = tuple(scenarios)
    return run_sweep(
        partial(_run_indexed, scenarios),
        seeds=range(len(scenarios)),
        workers=workers,
    )


@dataclass
class FuzzResult:
    """Outcome of a budgeted fuzz campaign."""

    reports: list[ConformanceReport] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False

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
            f"fuzz: {len(self.reports)} scenarios in {self.elapsed_s:.1f}s "
            f"({verdict})"
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

    The scenario stream is fully determined by ``master_seed``; the
    wall-clock budget only decides *how far* into the stream the
    campaign gets, so any failure it finds is replayable from the
    failing scenario record alone.
    """
    if budget_s <= 0:
        raise ValueError(f"budget_s must be positive, got {budget_s}")
    result = FuzzResult()
    t0 = time.monotonic()  # repro: noqa RPR003 -- fuzz wall-clock budget: decides only how many scenarios run, never any scenario's content (stream is fixed by master_seed)
    for count, scenario in enumerate(random_scenarios(master_seed), start=1):
        result.reports.append(run_scenario(scenario))
        result.elapsed_s = time.monotonic() - t0  # repro: noqa RPR003 -- telemetry only; see budget note above
        if not result.reports[-1].ok:
            break
        if max_scenarios is not None and count >= max_scenarios:
            break
        if result.elapsed_s >= budget_s:
            result.budget_exhausted = True
            break
    result.elapsed_s = time.monotonic() - t0  # repro: noqa RPR003 -- telemetry only; see budget note above
    return result
