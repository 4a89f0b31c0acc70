"""Event-driven classic stepping: identity with per-slot stepping.

On the classic route the engine steps a node only at the slots its
``next_step_slot`` names (wake, after each step, after each delivery
that did not report ``False``), in roster order.  A skipped ``step``
would have returned ``None``, drawn nothing and changed nothing, so the
schedule must leave every observable unchanged.  Block-stepped, it
takes the steps of a span ahead of the span's deliveries and takes back
those a state-changing delivery overtook.  The per-slot reference is
the same population with ``next_step_slot`` removed from the class,
which sends the engine down the step-every-awake-node loop at any
block size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveResetNode
from repro.core import ColoringNode, Parameters
from repro.core.states import Phase
from repro.core.protocol import build_simulator
from repro.experiments.e16_leader_failure import MortalNode, run_with_leader_failures
from repro.graphs import random_udg
from repro.wakeup import uniform_random

from .test_radio_engine_blocks import _assert_identical


def _run(dep, params, wake, node_cls, *, seed, loss_prob=0.0, channels=1,
         trace_level=1, max_slots, check_every=16, stop=True, block=1):
    sim, nodes = build_simulator(
        dep, params, wake, seed=seed, node_cls=node_cls, trace_level=trace_level,
        loss_prob=loss_prob, channels=channels,
    )
    stop_when = (lambda s: s.trace.decided >= dep.n) if stop else None
    res = sim.run(max_slots, stop_when=stop_when, check_every=check_every, block=block)
    return sim, nodes, res


def _per_slot(fn, *args, **kwargs):
    """``fn`` run with the classic route stepping every awake node."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(ColoringNode, "next_step_slot")
        mp.delattr(MortalNode, "next_step_slot")
        return fn(*args, **kwargs)


@settings(max_examples=30, deadline=None)
@given(
    node_cls=st.sampled_from([ColoringNode, NaiveResetNode]),
    n=st.integers(3, 14),
    degree=st.floats(2.0, 7.0),
    graph_seed=st.integers(0, 10**6),
    wake_seed=st.integers(0, 10**6),
    sim_seed=st.integers(0, 10**6),
    wake_window=st.sampled_from([0, 25, 120]),
    loss_prob=st.sampled_from([0.0, 0.15]),
    channels=st.sampled_from([1, 2]),
    trace_level=st.sampled_from([0, 1, 2]),
    check_every=st.sampled_from([1, 4, 16]),
    stop=st.booleans(),
    block=st.sampled_from([1, 2, 7, 64, 10**6]),
)
def test_event_driven_equals_per_slot_property(
    node_cls, n, degree, graph_seed, wake_seed, sim_seed, wake_window,
    loss_prob, channels, trace_level, check_every, stop, block,
):
    """Random world and wake schedule: event-driven == per-slot, stepped
    slot by slot or in spans."""
    dep = random_udg(n, expected_degree=degree, seed=graph_seed)
    # Small kappas and constants: a run of a few hundred slots goes
    # through every state, with resets, collisions and served requests.
    params = Parameters.practical(n, max(2, dep.max_degree), 2, 3, scale=0.25)
    if wake_window == 0:
        wake = np.zeros(n, dtype=np.int64)
    else:
        wake = uniform_random(n, window=wake_window, seed=wake_seed)
    args = (dep, params, wake, node_cls)
    kwargs = dict(seed=sim_seed, loss_prob=loss_prob, channels=channels,
                  trace_level=trace_level, max_slots=600,
                  check_every=check_every, stop=stop, block=block)
    events = _run(*args, **kwargs)
    slots = _per_slot(_run, *args, **kwargs)
    assert events[0]._due is not None and slots[0]._due is None
    _assert_identical(slots, events)
    assert slots[0].rng.draws == events[0].rng.draws
    assert slots[0].rng.calls == events[0].rng.calls


def test_take_back_keeps_a_schedule_a_delivery_replaced(monkeypatch):
    """In the slot a run is cut after, a delivery moves a node into ``R``
    (clearing its transmit schedule) after that node already took a step
    later in the span.  Taking that step back must leave the cleared
    schedule: writing the old one back would skip the first draw in
    ``R`` and move the run off the per-slot trajectory."""
    replaced = []
    unstep = ColoringNode.unstep

    def watched(node, before, after):
        if node.schedule() != after:
            replaced.append((node.vid, node.state.phase))
        unstep(node, before, after)

    monkeypatch.setattr(ColoringNode, "unstep", watched)
    dep = random_udg(6, expected_degree=4.0, seed=0)
    params = Parameters.practical(6, max(2, dep.max_degree), 2, 3, scale=0.25)
    wake = np.zeros(6, dtype=np.int64)
    args = (dep, params, wake, ColoringNode)
    kwargs = dict(seed=1, max_slots=2000, check_every=1)
    spans = _run(*args, block=4096, **kwargs)
    assert replaced == [(0, Phase.REQUEST)]
    _assert_identical(_run(*args, block=1, **kwargs), spans)
    assert spans[2].stopped_early


def test_leader_failures_identical():
    """E16 kills leaders between steps (a dead ``MortalNode`` steps to
    ``None``): the event-driven schedule keeps the per-slot outcome."""
    dep = random_udg(16, expected_degree=5.0, seed=2, connected=True)
    kwargs = dict(kill_fraction=0.6, kill_at_factor=1.5, seed=3, horizon_factor=8)
    events = run_with_leader_failures(dep, **kwargs)
    slots = _per_slot(run_with_leader_failures, dep, **kwargs)
    assert events[0] == slots[0] and events[1] == slots[1]
    assert events[1], "no leader was killed"
    assert np.array_equal(events[2], slots[2])
    nodes_e, nodes_s = events[4], slots[4]
    for a, b in zip(nodes_e, nodes_s):
        assert (a.color, a.tc, a.leader, a.resets) == (b.color, b.tc, b.leader, b.resets)
        assert a.states_visited == b.states_visited
    trace_e, trace_s = nodes_e[0].trace, nodes_s[0].trace
    assert trace_e.events == trace_s.events
    assert trace_e.channel_metrics.totals() == trace_s.channel_metrics.totals()


def test_dead_leaders_are_not_stepped(monkeypatch):
    """A killed ``MortalNode`` has no step left: on an E16 quick cell's
    input, the event-driven route never steps the 7 killed leaders after
    the kill (per-slot stepping makes 608,541 calls, 515,130 of them to
    dead leaders).  E16 runs in spans, which take the steps past a cut
    again: 97,169 calls, against 93,418 when it stepped slot by slot."""
    calls = []
    step = MortalNode.step

    def counted(node, slot, rng):
        calls.append((node.vid, slot))
        return step(node, slot, rng)

    monkeypatch.setattr(MortalNode, "step", counted)
    dep = random_udg(40, expected_degree=8, seed=0, connected=True)
    stuck, killed, decided, params, _ = run_with_leader_failures(
        dep, kill_fraction=0.6, kill_at_factor=1.5, seed=0xE16
    )
    assert len(calls) == 97_169
    assert sorted(killed) == [5, 10, 13, 19, 21, 22, 31]
    kill_slot = int(1.5 * params.threshold)
    assert not [(v, s) for v, s in calls if v in killed and s >= kill_slot]
    assert stuck == [0, 4, 8, 12, 15, 26, 28, 30, 32]
    assert int(decided.sum()) == 31
