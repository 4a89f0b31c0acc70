"""E16 (extension) — Leader failure: probing a design limitation honestly.

The algorithm's cluster structure makes leaders load-bearing: a node in
state ``R`` waits for *its* leader's assignment and has no fallback
(Fig. 2 has no edge out of ``R`` except the assignment).  The paper
never claims fault tolerance — nodes in its model do not fail — but a
downstream adopter should know the blast radius, so we measure it:

at a chosen slot, a fraction of the elected leaders goes permanently
silent (battery death).  Nodes already past ``R`` are unaffected;
nodes still waiting on a dead leader starve.  We report how many
nodes end up stuck versus the failure timing and fraction.

(This is a *negative-space* experiment: its value is quantifying the
assumption, not contradicting any claim.)
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.verify import check_proper_coloring
from repro.core import Parameters
from repro.core.node import _DEAF, _FAR, _MUTE, ColoringNode
from repro.core.protocol import DEFAULT_BLOCK, build_simulator
from repro.experiments.runner import Table, sweep_seeds
from repro.graphs import random_udg
from repro._util import spawn_generator

__all__ = ["run", "run_with_leader_failures"]

class MortalNode(ColoringNode):
    """A ColoringNode that can be killed: once dead it never transmits
    and never processes receptions (radio off)."""

    __slots__ = ("dead",)

    def __init__(self, vid, params, trace=None):
        super().__init__(vid, params, trace)
        self.dead = False

    def step(self, slot, rng):
        """Dead nodes never transmit."""
        return None if self.dead else super().step(slot, rng)

    def deliver(self, slot, msg):
        """Dead nodes never receive (and report no change)."""
        return False if self.dead else super().deliver(slot, msg)

    def next_step_slot(self, slot):
        """Dead nodes have no step left to take."""
        return _FAR if self.dead else super().next_step_slot(slot)

    def next_event_slot(self):
        """Dead nodes have no event left (a stale one would end every span)."""
        return _FAR if self.dead else super().next_event_slot()

    def listen_key(self):
        """Dead nodes react to no message."""
        return _DEAF if self.dead else super().listen_key()

    def message_keys(self):
        """Dead nodes send nothing."""
        return (_MUTE, _MUTE) if self.dead else super().message_keys()


def run_with_leader_failures(
    dep,
    *,
    kill_fraction: float,
    kill_at_factor: float,
    seed: int = 0,
    horizon_factor: float = 60.0,
):
    """Run the protocol, killing ``kill_fraction`` of the current leaders
    at slot ``kill_at_factor * threshold``.  Returns (stuck, killed,
    decided_mask, params, nodes).  Runs in spans up to the kill slot,
    then on to the horizon, checking completion every 64 slots."""
    params = Parameters.for_deployment(dep)
    sim, nodes = build_simulator(dep, params, seed=seed, node_cls=MortalNode)
    kill_slot = int(kill_at_factor * params.threshold)
    horizon = int(horizon_factor * params.threshold)
    rng = spawn_generator(seed, 0xDEAD)
    killed: list[int] = []
    decide_slot = sim.trace.decide_slot

    def all_decided(_sim) -> bool:
        return bool((decide_slot >= 0).all())

    def run_to(slot: int) -> None:
        sim.run(slot, stop_when=all_decided, check_every=64, block=DEFAULT_BLOCK)

    run_to(min(kill_slot, horizon))
    # A stop reported at the kill slot itself still kills: completion
    # counts only on a 64-slot boundary, checked after the kill.
    if sim.slot == kill_slot:
        leaders = [v for v, nd in enumerate(nodes) if nd.color == 0]
        k = int(round(kill_fraction * len(leaders)))
        if k:
            killed = [int(v) for v in rng.choice(leaders, size=k, replace=False)]
            for v in killed:
                nodes[v].dead = True
                sim.refresh(v)
        if not (kill_slot % 64 == 0 and sim.all_woken and all_decided(sim)):
            run_to(horizon)
    decided = np.array([nd.color >= 0 for nd in nodes])
    stuck = [v for v in range(dep.n) if not decided[v]]
    return stuck, killed, decided, params, nodes


def run(*, quick: bool = True, seeds: int = 3, workers: int | None = None) -> Table:
    """Run the experiment; see the module docstring for the claim."""
    table = Table("E16 leader-failure blast radius (extension; negative-space)")
    n, degree = (40, 8.0) if quick else (80, 12.0)
    configs = [(0.0, 1.5), (0.3, 1.5), (0.6, 1.5), (0.6, 2.5)]
    for kill_fraction, kill_at in configs:
        rows = sweep_seeds(
            partial(_one, n=n, degree=degree, kill_fraction=kill_fraction, kill_at=kill_at),
            seeds=seeds,
            master_seed=int(kill_fraction * 100) + int(kill_at),
            workers=workers,
        )
        table.add(
            kill_fraction=kill_fraction,
            kill_at_thresholds=kill_at,
            leaders_killed=float(np.mean([r["killed"] for r in rows])),
            stuck_nodes=float(np.mean([r["stuck"] for r in rows])),
            stuck_were_waiting_on_dead=float(np.mean([r["stuck_explained"] for r in rows])),
            proper=float(np.mean([r["proper"] for r in rows])),
        )
    table.note(
        "expected shape: stuck nodes are exactly those still in R (or A_0 "
        "adjacent only to dead leaders) when their leader died; nodes that "
        "already held a tc finish normally; the decided part of the "
        "coloring stays proper.  The paper assumes no failures — this "
        "quantifies that assumption for adopters"
    )
    return table


def _one(seed: int, n: int, degree: float, kill_fraction: float, kill_at: float) -> dict:
    dep = random_udg(n, expected_degree=degree, seed=seed, connected=True)
    stuck, killed, decided, params, nodes = run_with_leader_failures(
        dep, kill_fraction=kill_fraction, kill_at_factor=kill_at, seed=seed ^ 0xE16
    )
    killed_set = set(killed)
    # A stuck node is "explained" if it is a non-leader whose leader died,
    # or it never acquired a leader at all (its candidates died mid-A_0).
    explained = sum(
        1
        for v in stuck
        if nodes[v].leader in killed_set or nodes[v].leader is None
    )
    colors = np.array([nd.color for nd in nodes])
    return {
        "killed": len(killed),
        "stuck": len(stuck),
        "stuck_explained": (explained / len(stuck)) if stuck else 1.0,
        "proper": not check_proper_coloring(dep, colors),
    }
