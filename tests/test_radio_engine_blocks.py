"""Block-stepped fast path: identity with per-slot stepping.

The block-stepped mode (``run(..., block=B)`` on the vectorized engine
path) promises *byte-identical trajectories* at any block size: the
segment draws ``rng.random((m, n))`` consume the PCG64 stream exactly
like ``m`` sequential per-slot draws, and all-passive spans advance the
stream via :meth:`~repro._util.RngMeter.skip` instead of generating.
These tests check that promise the direct way — run the same seeded
world both ways and demand equality of every observable: slot counts,
early-stop behaviour, all six channel-metric columns slot-for-slot,
per-node trace counters, the event list of the trace level, and final
colors.

The conformance matrix (``repro conform --matrix``) pins specific
scenarios; the Hypothesis property here walks random deployments, wake
schedules, seeds, loss rates, channel counts, trace levels, stop
granularities, and block sizes (including ``block=1`` and ``block`` far
beyond the run length).  Level 0 is the level every benchmark run
uses, and the only one whose deliveries all go through the bulk path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BernoulliColoringNode, Parameters, run_coloring
from repro.core.protocol import build_simulator
from repro.graphs import random_udg
from repro.radio import CounterMessage
from repro.wakeup import uniform_random

BLOCK_SIZES = (1, 2, 3, 7, 17, 64, 1_000_000)


def _world(n, degree, graph_seed, wake_seed, wake_window):
    dep = random_udg(n, expected_degree=degree, seed=graph_seed)
    params = Parameters.practical(n, max(2, dep.max_degree), 5, 18)
    if wake_window == 0:
        wake = np.zeros(n, dtype=np.int64)
    else:
        wake = uniform_random(n, window=wake_window, seed=wake_seed)
    return dep, params, wake


def _run(dep, params, wake, *, seed, block, loss_prob=0.0, channels=1,
         max_slots=400, check_every=16, stop=False, trace_level=2):
    sim, nodes = build_simulator(
        dep,
        params,
        wake,
        seed=seed,
        node_cls=BernoulliColoringNode,
        trace_level=trace_level,
        loss_prob=loss_prob,
        channels=channels,
    )
    stop_when = (lambda s: s.trace.decided >= dep.n) if stop else None
    res = sim.run(max_slots, stop_when=stop_when, check_every=check_every,
                  block=block)
    return sim, nodes, res


def _assert_identical(a, b):
    sim_a, nodes_a, res_a = a
    sim_b, nodes_b, res_b = b
    assert res_a.slots == res_b.slots
    assert res_a.stopped_early == res_b.stopped_early
    cols_a = sim_a.trace.channel_metrics.as_arrays()
    cols_b = sim_b.trace.channel_metrics.as_arrays()
    assert set(cols_a) == set(cols_b)
    for name in cols_a:
        assert np.array_equal(cols_a[name], cols_b[name]), f"column {name}"
    for attr in ("tx_count", "rx_count", "collision_count", "wake_slot",
                 "decide_slot", "decide_color"):
        assert np.array_equal(getattr(sim_a.trace, attr), getattr(sim_b.trace, attr))
    assert sim_a.trace.decided == sim_b.trace.decided
    assert sim_a.trace.events == sim_b.trace.events
    assert [n.color for n in nodes_a] == [n.color for n in nodes_b]
    assert sim_a.core.loss_draws == sim_b.core.loss_draws
    assert getattr(sim_a.phy, "channel_draws", 0) == getattr(sim_b.phy, "channel_draws", 0)
    if not res_a.stopped_early:
        # After an early stop a blocked run's generator may sit past the
        # stop: uniforms were drawn for the rest of the segment (DESIGN
        # §5.10(c)).
        assert sim_a.rng.draws == sim_b.rng.draws


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 14),
    degree=st.floats(3.0, 7.0),
    graph_seed=st.integers(0, 10**6),
    wake_seed=st.integers(0, 10**6),
    sim_seed=st.integers(0, 10**6),
    wake_window=st.sampled_from([0, 25, 120]),
    block=st.sampled_from(BLOCK_SIZES),
    loss_prob=st.sampled_from([0.0, 0.15]),
    channels=st.sampled_from([1, 2]),
    trace_level=st.sampled_from([0, 1, 2]),
    check_every=st.sampled_from([1, 4, 16]),
    stop=st.booleans(),
)
def test_blocked_equals_per_slot_property(
    n, degree, graph_seed, wake_seed, sim_seed, wake_window, block,
    loss_prob, channels, trace_level, check_every, stop,
):
    """Random world, random stepping knobs: blocked == per-slot."""
    dep, params, wake = _world(n, degree, graph_seed, wake_seed, wake_window)
    kwargs = dict(seed=sim_seed, loss_prob=loss_prob, channels=channels,
                  trace_level=trace_level, max_slots=350,
                  check_every=check_every, stop=stop)
    _assert_identical(
        _run(dep, params, wake, block=1, **kwargs),
        _run(dep, params, wake, block=block, **kwargs),
    )


@pytest.mark.parametrize("block", [2, 64, 1_000_000])
def test_blocked_full_coloring_run(block):
    """run_coloring(block=...) reproduces the per-slot run to the end:
    same colors, same exact stop slot, same metric totals."""
    dep = random_udg(24, expected_degree=6, seed=3, connected=True)
    base = run_coloring(dep, seed=7, node_cls=BernoulliColoringNode)
    blocked = run_coloring(dep, seed=7, node_cls=BernoulliColoringNode, block=block)
    assert blocked.completed and blocked.proper
    assert np.array_equal(base.colors, blocked.colors)
    assert base.slots == blocked.slots
    assert (
        base.trace.channel_metrics.totals() == blocked.trace.channel_metrics.totals()
    )


def test_blocked_multichannel_identical():
    """Block stepping composes with the multichannel PHY (the PHY's hop
    stream is drawn per fire slot only, so skipping empty spans must not
    disturb it)."""
    dep, params, wake = _world(12, 5.0, 11, 12, 40)
    kwargs = dict(seed=5, channels=2, max_slots=600, check_every=1, stop=True)
    _assert_identical(
        _run(dep, params, wake, block=1, **kwargs),
        _run(dep, params, wake, block=29, **kwargs),
    )


def test_blocked_stop_is_localized_to_check_boundary():
    """Early stop inside a bulk-advanced empty run lands on exactly the
    check_every boundary the per-slot loop would have stopped at, for
    every granularity."""
    dep, params, wake = _world(10, 4.0, 21, 22, 30)
    for check_every in (1, 5, 16, 100):
        per_slot = _run(dep, params, wake, seed=9, block=1, max_slots=30_000,
                        check_every=check_every, stop=True)
        blocked = _run(dep, params, wake, seed=9, block=512, max_slots=30_000,
                       check_every=check_every, stop=True)
        assert per_slot[2].slots == blocked[2].slots, f"check_every={check_every}"
        assert per_slot[2].stopped_early and blocked[2].stopped_early


def test_blocked_metrics_are_slot_exact_without_stop():
    """Fixed horizon, no stop predicate: the bulk empty-run appends must
    produce one metrics row per slot, not aggregates."""
    dep, params, wake = _world(8, 4.0, 31, 32, 50)
    sim, _, res = _run(dep, params, wake, seed=4, block=128, max_slots=300)
    assert res.slots == 300
    assert len(sim.trace.channel_metrics) == 300
    # Every slot's protocol_draws is exactly n on the vectorized path,
    # whether the slot was simulated individually or inside a bulk span.
    draws = sim.trace.channel_metrics.as_arrays()["protocol_draws"]
    assert np.array_equal(draws, np.full(300, dep.n))


def test_run_rejects_invalid_block():
    dep, params, wake = _world(6, 3.0, 41, 42, 0)
    sim, _, _ = _run(dep, params, wake, seed=1, block=1, max_slots=1)
    with pytest.raises(ValueError, match="block"):
        sim.run(10, block=0)


def test_classic_path_accepts_block():
    """block > 1 on the classic (non-vectorized) path falls back to the
    per-slot base implementation — same results, no crash."""
    dep = random_udg(12, expected_degree=5, seed=51, connected=True)
    base = run_coloring(dep, seed=13)
    blocked = run_coloring(dep, seed=13, block=64)
    assert np.array_equal(base.colors, blocked.colors)
    assert base.slots == blocked.slots


def test_fire_run_work_is_pinned(monkeypatch):
    """Exact work counters of one small contended run to completion
    (``block=4096``, level 0).  Fire runs resolve and deliver every fire
    slot drawn under one state in one call, build only the messages a
    filtered delivery needs, and re-read only the nodes a delivery
    changed; a drift in any count is a change in how much work the fast
    path does."""
    from repro.radio.channel import ChannelCore, CollisionPhy
    from repro.radio.engine import RadioSimulator

    calls = dict.fromkeys(
        ("node.deliver", "_refresh", "emit", "phy.resolve", "core.deliver"), 0
    )

    def count(owner, name, label):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(BernoulliColoringNode, "deliver", "node.deliver")
    count(RadioSimulator, "_refresh", "_refresh")
    count(BernoulliColoringNode, "emit", "emit")
    count(CollisionPhy, "resolve", "phy.resolve")
    count(ChannelCore, "deliver", "core.deliver")
    dep = random_udg(40, expected_degree=9, seed=3)
    params = Parameters.practical(dep.n, max(2, dep.max_degree), 5, 18, scale=2)
    res = run_coloring(dep, params, seed=5, node_cls=BernoulliColoringNode,
                       block=4096, trace_level=0)
    assert res.completed and res.slots == 49229
    tx = res.trace.channel_metrics.tx
    assert len(tx) - tx.count(0) == 19859  # fire slots
    assert calls == {
        "node.deliver": 10437,
        "_refresh": 371,
        "emit": 2019,
        "phy.resolve": 508,
        "core.deliver": 508,
    }


class _OversizeNode(BernoulliColoringNode):
    """From slot 200 on, every third node's messages exceed the bound
    ``enforce_message_bits`` sets (``emit`` stays pure: slot and vid
    decide)."""

    __slots__ = ()

    def emit(self, slot):
        msg = super().emit(slot)
        if slot >= 200 and self.vid % 3 == 0:
            return CounterMessage(sender=self.vid, color=0, counter=1 << 200)
        return msg


def test_message_bits_checked_at_the_same_transmission_at_any_block():
    """A blocked run checks message sizes exactly on the transmissions of
    the slots it processes, never on one drawn past a cut, so the first
    violation is the per-slot run's."""
    dep, params, wake = _world(12, 5.0, 7, 8, 0)
    errors = []
    for block in (1, 64, 4096):
        sim, _ = build_simulator(dep, params, wake, seed=3, node_cls=_OversizeNode,
                                 trace_level=0, enforce_message_bits=True)
        with pytest.raises(RuntimeError, match="-bit message") as err:
            sim.run(5000, block=block)
        errors.append(str(err.value))
    assert errors == [errors[0]] * 3
