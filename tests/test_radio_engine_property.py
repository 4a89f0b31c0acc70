"""Property-based differential test of the radio engine.

The engine's transmitter-centric collision resolution (sparse scatter
into persistent arrays with surgical resets) is an optimization; the
*specification* is three sentences from Sect. 2.  This test replays
random topologies and random transmission patterns through both the
engine and a brute-force oracle implementing the specification
literally, and demands identical deliveries and an identical level-2
``rx``/``collision`` event log.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_graph
from repro.radio import ColorMessage, ProtocolNode, RadioSimulator, TraceRecorder


class ScriptedNode(ProtocolNode):
    """Transmits exactly in the slots it is told to."""

    __slots__ = ("tx_slots", "received")

    def __init__(self, vid: int, tx_slots: set[int]) -> None:
        super().__init__(vid)
        self.tx_slots = tx_slots
        self.received: list[tuple[int, int]] = []  # (slot, sender)

    def step(self, slot, rng):
        if slot in self.tx_slots:
            return ColorMessage(sender=self.vid, color=0)
        return None

    def deliver(self, slot, msg):
        self.received.append((slot, msg.sender))


def oracle_deliveries(graph, wake, tx_plan, horizon):
    """Literal Sect. 2 semantics: node u receives in slot t iff u is awake,
    u is not transmitting, and exactly one neighbor of u transmits; with
    two or more it collides.  Returns, per node, its receptions as
    ``(slot, sender)`` and its collisions as ``(slot, sender count)``."""
    out = {v: [] for v in graph.nodes}
    collided = {v: [] for v in graph.nodes}
    for t in range(horizon):
        transmitting = {
            v for v in graph.nodes if wake[v] <= t and t in tx_plan[v]
        }
        for u in graph.nodes:
            if wake[u] > t or u in transmitting:
                continue
            senders = [v for v in graph.neighbors(u) if v in transmitting]
            if len(senders) == 1:
                out[u].append((t, senders[0]))
            elif senders:
                collided[u].append((t, len(senders)))
    return out, collided


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    p_edge=st.floats(0.1, 0.9),
    graph_seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_engine_matches_bruteforce_oracle(n, p_edge, graph_seed, data):
    horizon = 12
    g = nx.gnp_random_graph(n, p_edge, seed=graph_seed)
    dep = from_graph(g)
    wake = [data.draw(st.integers(0, 4), label=f"wake[{v}]") for v in range(n)]
    tx_plan = {
        v: set(
            data.draw(
                st.lists(st.integers(0, horizon - 1), max_size=8, unique=True),
                label=f"tx[{v}]",
            )
        )
        for v in range(n)
    }
    expected, collided = oracle_deliveries(dep.graph, wake, tx_plan, horizon)
    for level in (1, 2):
        nodes = [ScriptedNode(v, tx_plan[v]) for v in range(n)]
        sim = RadioSimulator(
            dep, nodes, np.array(wake, dtype=np.int64), np.random.default_rng(0),
            trace=TraceRecorder(n, level=level),
        )
        for _ in range(horizon):
            sim.step()
        for v in range(n):
            assert nodes[v].received == expected[v], f"level {level}: node {v} diverged"
    # The level-2 run's event log, against the oracle's rows.
    logged_rx = {v: [] for v in range(n)}
    logged_collisions = {v: [] for v in range(n)}
    for e in sim.trace.events:
        if e.kind == "rx":
            logged_rx[e.node].append((e.slot, e.data["msg"].sender))
        elif e.kind == "collision":
            logged_collisions[e.node].append((e.slot, e.data["senders"]))
    assert logged_rx == expected
    assert logged_collisions == collided


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 10),
    p_edge=st.floats(0.2, 0.9),
    seed=st.integers(0, 10**6),
)
def test_trace_counters_consistent(n, p_edge, seed):
    """tx/rx/collision counters are internally consistent with the rule:
    every touched listener either received or collided."""
    g = nx.gnp_random_graph(n, p_edge, seed=seed)
    dep = from_graph(g)
    rng = np.random.default_rng(seed)
    tx_plan = {v: set(rng.integers(0, 20, size=6).tolist()) for v in range(n)}
    nodes = [ScriptedNode(v, tx_plan[v]) for v in range(n)]
    sim = RadioSimulator(dep, nodes, np.zeros(n, dtype=np.int64), rng)
    for _ in range(20):
        sim.step()
    tr = sim.trace
    assert tr.tx_count.sum() == sum(
        len([t for t in tx_plan[v] if t < 20]) for v in range(n)
    )
    for v in range(n):
        assert tr.rx_count[v] == len(nodes[v].received)
        assert tr.rx_count[v] + tr.collision_count[v] <= 20
