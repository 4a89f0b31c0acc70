"""Conformance scenarios: seeded (graph, schedule, loss, constants) tuples.

A :class:`Scenario` is a fully-seeded description of one conformance
run — graph family and size, wake-up schedule, injected loss
probability, and a protocol-constants scale — small enough to embed in
a failure report verbatim.  That is the point: when the lockstep
harness finds a divergence, the scenario *is* the reproducer.

Two sources of scenarios:

- :data:`SCENARIO_MATRIX` — the pinned conformance matrix (4 graph
  families x 3 wake-up schedules x loss in {0, 0.1}), run by
  ``repro conform`` with the PHY, block and arena matrices, and the
  tier-1 smoke subset;
- :func:`random_scenarios` — the fuzzer: an endless seeded stream
  sweeping family, size, degree, schedule, loss, and constants, for
  budgeted fuzzing (``repro conform --fuzz`` / ``make conform``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro._util import spawn_generator
from repro.core.params import Parameters
from repro.core.strategy import protocol_names
from repro.graphs import doubling_grid_ubg, quasi_udg, random_udg, torus_udg
from repro.graphs.deployment import Deployment
from repro.wakeup import sequential, staggered_neighbors, synchronous, uniform_random

__all__ = [
    "ARENA_MATRIX",
    "BLOCK_MATRIX",
    "FAMILIES",
    "PHYS",
    "PHY_MATRIX",
    "SCENARIO_MATRIX",
    "SCHEDULES",
    "Scenario",
    "arena_matrix",
    "block_matrix",
    "phy_matrix",
    "quick_matrix",
    "random_scenarios",
]

#: graph families the conformance matrix covers (UDG, torus, UBG over a
#: doubling metric, and the adversarial quasi-UDG BIG).
FAMILIES = ("udg", "torus", "ubg", "quasi_udg")

#: wake-up schedule shapes.
SCHEDULES = ("sync", "random", "staggered")

#: channel models: ``collision`` locksteps each population's route
#: against its per-slot reference on the default PHY; ``multichannel``
#: does the same on a :class:`~repro.radio.channel.MultiChannelPhy`;
#: ``sinr`` on the geometry-aware :class:`~repro.radio.channel.SinrPhy`;
#: ``unaligned`` locksteps the aligned engine's per-slot loop against the
#: zero-offset unaligned simulator on a scripted no-feedback population.
PHYS = ("collision", "multichannel", "sinr", "unaligned")


@dataclass(frozen=True)
class Scenario:
    """One seeded conformance run, reproducible from this record alone."""

    family: str = "udg"
    n: int = 24
    degree: float = 6.0
    schedule: str = "sync"
    loss_prob: float = 0.0
    seed: int = 0
    #: protocol-constants scale (``Parameters.practical(scale=...)``).
    param_scale: float = 1.0
    #: conformance path (see :data:`PHYS`).
    phy: str = "collision"
    #: channel count for the ``multichannel`` phy (1 elsewhere).
    channels: int = 1
    #: block size the routes run at (``step_block`` chunks; 0 means
    #: :data:`~repro.core.protocol.DEFAULT_BLOCK`, the ``run_coloring``
    #: default).
    block: int = 0
    #: node-logic strategy (a :mod:`repro.core.strategy` registry name);
    #: ``mw05`` is the paper's protocol, and the lockstep generalizes
    #: over it through the protocol's completion predicate.
    protocol: str = "mw05"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {FAMILIES}")
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; pick from {SCHEDULES}"
            )
        if self.n < 1:
            raise ValueError("scenarios need n >= 1")
        if self.phy not in PHYS:
            raise ValueError(f"unknown phy {self.phy!r}; pick from {PHYS}")
        if self.channels < 1:
            raise ValueError("scenarios need channels >= 1")
        if self.channels > 1 and self.phy != "multichannel":
            raise ValueError("channels > 1 requires phy='multichannel'")
        if self.block < 0:
            raise ValueError("scenarios need block >= 0")
        if self.block and self.phy == "unaligned":
            raise ValueError(
                "a block size sets the aligned engine's routes; the "
                "unaligned lockstep steps slot by slot (pick one of "
                "block / phy='unaligned')"
            )
        if self.protocol not in protocol_names():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; pick from "
                f"{protocol_names()}"
            )
        if self.protocol != "mw05" and self.phy == "unaligned":
            raise ValueError(
                "the unaligned lockstep drives a scripted mw05 population; "
                "non-default protocols run on the aligned engine only"
            )

    # ------------------------------------------------------------------
    def build_deployment(self) -> Deployment:
        """Generate the scenario's deployment (seeded, reproducible)."""
        if self.family == "udg":
            return random_udg(self.n, expected_degree=self.degree, seed=self.seed)
        if self.family == "torus":
            return torus_udg(self.n, expected_degree=self.degree, seed=self.seed)
        if self.family == "ubg":
            # Side sized so the expected l_inf degree lands near `degree`:
            # E[deg] ~ (n-1) * (2r)^dim / side^dim with r = 1, dim = 2.
            side = max(2.5, float(np.sqrt(max(self.n - 1, 1) * 4.0 / self.degree)))
            return doubling_grid_ubg(self.n, dim=2, side=side, seed=self.seed)
        # Adversarial BIG: quasi-UDG with a gray zone around the UDG radius.
        side = max(2.5, float(np.sqrt(max(self.n - 1, 1) * np.pi / self.degree)))
        return quasi_udg(
            self.n, r_in=1.0, r_out=1.6, side=side, link_prob=0.5, seed=self.seed
        )

    def build_wake_slots(self, dep: Deployment) -> np.ndarray:
        """Generate the scenario's wake-slot array."""
        if self.schedule == "sync":
            return synchronous(dep.n)
        if self.schedule == "random":
            return uniform_random(dep.n, window=max(2, 2 * dep.n), seed=self.seed + 1)
        # "staggered": deterministic neighbor-staggered wake-up when the
        # graph has edges, else a sequential ramp — both exercise wake
        # orders that differ from vid order (the lockstep harness's
        # canonical-ordering contract must hold regardless).
        if dep.m:
            return staggered_neighbors(dep, gap=7)
        return sequential(dep.n, gap=3, seed=self.seed + 1)

    def build_params(self, dep: Deployment) -> Parameters:
        """Measured-kappa practical parameters at this scenario's scale."""
        return Parameters.for_deployment(dep, scale=self.param_scale)

    def build(self) -> tuple[Deployment, Parameters, np.ndarray]:
        """Deployment, parameters, and wake slots in one call."""
        dep = self.build_deployment()
        return dep, self.build_params(dep), self.build_wake_slots(dep)

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Compact one-line description for reports."""
        base = (
            f"{self.family}(n={self.n}, deg={self.degree:g}) "
            f"wake={self.schedule} loss={self.loss_prob:g} "
            f"scale={self.param_scale:g} seed={self.seed}"
        )
        if self.phy != "collision":
            base += f" phy={self.phy}"
        if self.channels > 1:
            base += f" k={self.channels}"
        if self.block:
            base += f" block={self.block}"
        if self.protocol != "mw05":
            base += f" protocol={self.protocol}"
        return base

    def cli_args(self) -> str:
        """The ``repro conform`` flags that replay exactly this scenario."""
        base = (
            f"--family {self.family} --n {self.n} --degree {self.degree:g} "
            f"--schedule {self.schedule} --loss {self.loss_prob:g} "
            f"--param-scale {self.param_scale:g} --seed {self.seed}"
        )
        if self.phy != "collision":
            base += f" --phy {self.phy}"
        if self.channels > 1:
            base += f" --channels {self.channels}"
        if self.block:
            base += f" --block {self.block}"
        if self.protocol != "mw05":
            base += f" --protocol {self.protocol}"
        return base


def _matrix() -> tuple[Scenario, ...]:
    """The pinned conformance matrix: every family x schedule x loss
    combination, seeds fixed so failures are reproducible by label."""
    out = []
    for fi, family in enumerate(FAMILIES):
        for si, schedule in enumerate(SCHEDULES):
            for li, loss in enumerate((0.0, 0.1)):
                out.append(
                    Scenario(
                        family=family,
                        n=20 + 2 * fi,
                        degree=5.0 + si,
                        schedule=schedule,
                        loss_prob=loss,
                        seed=1000 + 100 * fi + 10 * si + li,
                    )
                )
    return tuple(out)


#: the full pinned matrix (24 scenarios: 4 families x 3 schedules x 2 loss).
SCENARIO_MATRIX: tuple[Scenario, ...] = _matrix()


def _phy_matrix() -> tuple[Scenario, ...]:
    """Pinned scenarios for the non-default PHY paths.

    Kept separate from :data:`SCENARIO_MATRIX` (whose 24-cell shape is
    itself pinned): three unaligned cells lockstepping the zero-offset
    unaligned simulator against the aligned engine — with and without
    loss, across wake schedules — and three multi-channel scenarios
    lockstepping both populations' routes on a 2- and 3-channel PHY.
    Multi-channel cells scale the protocol constants with the channel
    count (the meeting rate drops as ``1/k``) so the runs complete
    within their scaled slot budgets.
    """
    return (
        Scenario(family="udg", n=18, degree=5.0, schedule="sync",
                 seed=4000, phy="unaligned"),
        Scenario(family="udg", n=18, degree=5.0, schedule="sync",
                 loss_prob=0.1, seed=4001, phy="unaligned"),
        Scenario(family="torus", n=20, degree=6.0, schedule="random",
                 loss_prob=0.1, seed=4010, phy="unaligned"),
        Scenario(family="udg", n=18, degree=5.0, schedule="sync",
                 seed=4100, phy="multichannel", channels=2, param_scale=2.0),
        Scenario(family="udg", n=18, degree=5.0, schedule="sync",
                 loss_prob=0.1, seed=4101, phy="multichannel", channels=2,
                 param_scale=2.0),
        Scenario(family="torus", n=20, degree=6.0, schedule="random",
                 seed=4110, phy="multichannel", channels=3, param_scale=3.0),
    )


#: the pinned PHY matrix (3 unaligned + 3 multi-channel scenarios).
PHY_MATRIX: tuple[Scenario, ...] = _phy_matrix()


def phy_matrix() -> tuple[Scenario, ...]:
    """The pinned non-default-PHY scenarios (see :data:`PHY_MATRIX`)."""
    return PHY_MATRIX


def _block_matrix() -> tuple[Scenario, ...]:
    """Pinned block-size scenarios.

    Every aligned scenario runs its routes at a block size (the default
    :data:`~repro.core.protocol.DEFAULT_BLOCK` elsewhere); these pin
    others, so :meth:`~repro.radio.engine.RadioSimulator.step_block`
    must match the per-slot reference wherever its chunk boundaries
    fall — across wake schedules (the staggered/random cells exercise
    long all-passive spans, which the routes record in bulk), with loss
    injection (the loss-draw column must match to the draw), on
    multi-channel PHYs (lazy per-slot hop draws must stay lazy), and
    with a block far beyond the run length (one chunk, stopped at the
    completion slot; span caps, not the block size, must govern memory
    and correctness).
    """
    return (
        Scenario(family="udg", n=20, degree=5.0, schedule="sync",
                 seed=5000, block=64),
        Scenario(family="udg", n=22, degree=6.0, schedule="random",
                 loss_prob=0.1, seed=5001, block=7),
        Scenario(family="torus", n=20, degree=6.0, schedule="staggered",
                 seed=5010, block=256),
        Scenario(family="quasi_udg", n=18, degree=5.0, schedule="random",
                 loss_prob=0.2, seed=5012, block=1_000_000),
        Scenario(family="udg", n=18, degree=5.0, schedule="sync",
                 seed=5100, phy="multichannel", channels=2,
                 param_scale=2.0, block=32),
        Scenario(family="torus", n=20, degree=6.0, schedule="random",
                 loss_prob=0.1, seed=5110, phy="multichannel", channels=3,
                 param_scale=3.0, block=16),
    )


#: the pinned block-size matrix (6 scenarios).
BLOCK_MATRIX: tuple[Scenario, ...] = _block_matrix()


def block_matrix() -> tuple[Scenario, ...]:
    """The pinned block-size scenarios (see :data:`BLOCK_MATRIX`)."""
    return BLOCK_MATRIX


def _arena_matrix() -> tuple[Scenario, ...]:
    """Pinned protocol x PHY arena cells.

    One scenario per *new* pairing the strategy layer unlocks — ``mw05``
    over the SINR PHY, and the ``mis`` protocol over every aligned PHY
    (collision, multichannel, SINR) — plus a ``mis`` scenario at a small
    block size, so the non-default completion predicate stops the routes
    across many chunk boundaries too (state-scan predicates only change
    value at processed slots, which the lockstep verifies slot by slot).
    The ``mw05`` x collision / multichannel pairings are pinned by
    :data:`SCENARIO_MATRIX` and :data:`PHY_MATRIX`; together the three
    walls back every cell of the E18 arena table.
    """
    return (
        Scenario(family="udg", n=18, degree=5.0, schedule="sync",
                 seed=9000, phy="sinr"),
        Scenario(family="torus", n=20, degree=6.0, schedule="random",
                 loss_prob=0.1, seed=9001, phy="sinr"),
        Scenario(family="udg", n=18, degree=5.0, schedule="sync",
                 seed=9100, protocol="mis"),
        Scenario(family="udg", n=18, degree=5.0, schedule="random",
                 loss_prob=0.1, seed=9101, protocol="mis",
                 phy="multichannel", channels=2, param_scale=2.0),
        Scenario(family="torus", n=20, degree=6.0, schedule="random",
                 seed=9110, protocol="mis", phy="sinr"),
        Scenario(family="udg", n=20, degree=5.0, schedule="staggered",
                 seed=9120, protocol="mis", block=64),
    )


#: the pinned arena matrix (new protocol x PHY pairings: mw05 x sinr and
#: mis x {collision, multichannel, sinr}, plus a blocked mis cell).
ARENA_MATRIX: tuple[Scenario, ...] = _arena_matrix()


def arena_matrix() -> tuple[Scenario, ...]:
    """The pinned protocol x PHY arena scenarios (see
    :data:`ARENA_MATRIX`)."""
    return ARENA_MATRIX


def quick_matrix() -> tuple[Scenario, ...]:
    """A fast diagonal through the matrix: one scenario per family,
    rotating schedules, alternating loss — the ``--quick`` / tier-1
    smoke subset (seconds, not minutes)."""
    out = []
    for fi, family in enumerate(FAMILIES):
        schedule = SCHEDULES[fi % len(SCHEDULES)]
        loss = 0.1 if fi % 2 else 0.0
        out.append(
            Scenario(
                family=family,
                n=16,
                degree=5.0,
                schedule=schedule,
                loss_prob=loss,
                seed=500 + fi,
            )
        )
    # One small-block scenario so the smoke subset also guards chunk
    # boundaries inside a run (full coverage lives in BLOCK_MATRIX).
    out.append(
        Scenario(
            family="udg",
            n=16,
            degree=5.0,
            schedule="random",
            loss_prob=0.1,
            seed=504,
            block=32,
        )
    )
    # One SINR-PHY and one mis-protocol cell so `repro conform` smokes
    # the arena pairings by default (full coverage lives in
    # ARENA_MATRIX).
    out.append(
        Scenario(
            family="udg",
            n=16,
            degree=5.0,
            schedule="sync",
            seed=507,
            phy="sinr",
        )
    )
    out.append(
        Scenario(
            family="udg",
            n=16,
            degree=5.0,
            schedule="random",
            seed=508,
            protocol="mis",
        )
    )
    return tuple(out)


def random_scenarios(master_seed: int = 0) -> Iterator[Scenario]:
    """Endless seeded scenario stream for fuzzing.

    Sweeps family, size (8..40), degree (3..8), schedule, loss
    (0 / 0.05 / 0.1 / 0.2), and the protocol-constants scale
    (0.6 / 1.0 / 1.5); a third of the scenarios set a block size of 3,
    16, 128 or 4096 (the rest run at the default).
    :func:`~repro.conform.runner.run_cells` runs each on both node
    populations.  Per-scenario seeds
    are drawn from the stream, so the whole fuzz run is reproducible
    from ``master_seed``.
    """
    rng = spawn_generator(master_seed, 0xF0552)
    while True:
        scenario = Scenario(
            family=FAMILIES[int(rng.integers(len(FAMILIES)))],
            n=int(rng.integers(8, 41)),
            degree=float(rng.integers(3, 9)),
            schedule=SCHEDULES[int(rng.integers(len(SCHEDULES)))],
            loss_prob=float(rng.choice([0.0, 0.05, 0.1, 0.2])),
            seed=int(rng.integers(0, 1 << 31)),
            param_scale=float(rng.choice([0.6, 1.0, 1.5])),
        )
        if rng.random() < 1 / 3:
            scenario = replace(scenario, block=int(rng.choice([3, 16, 128, 4096])))
        yield scenario


def replay(scenario: Scenario, **overrides) -> Scenario:
    """A copy of ``scenario`` with fields replaced (report minimization)."""
    return replace(scenario, **overrides)
