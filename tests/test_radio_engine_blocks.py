"""Block-stepped execution: identity at every block size.

Both event-driven engine routes run one span loop (``step_block``;
``step()`` is a span of one slot), which promises *byte-identical
trajectories* at any block size: the segment draws ``rng.random((m,
n))`` consume the PCG64 stream exactly like ``m`` sequential per-slot
draws, and all-passive spans advance the stream via
:meth:`~repro._util.RngMeter.skip` instead of generating.  These tests
run the same seeded world at ``block=1`` and at other block sizes and
demand equality of every observable: slot counts, early-stop
behaviour, all six channel-metric columns slot-for-slot, per-node trace
counters, the event list of the trace level, and final colors.  The
references sharing no span code are the per-slot loop's: the
conformance lockstep (``tests/test_conform.py``, ``repro conform``),
which runs both routes against ``StepShimNode`` / ``PerSlotNode``
populations, and the ``next_step_slot``-less population of
``tests/test_radio_engine_events.py``.

The conformance wall (``repro conform``) pins specific scenarios at
trace level 2; the Hypothesis property here walks random deployments,
wake schedules, seeds, loss rates, channel counts, trace levels, stop
granularities, and block sizes (including ``block=1`` and ``block`` far
beyond the run length).  Every run, of any length at any trace level,
is delivered by the one ``ChannelCore.deliver`` (``sync-contended`` and
``async-lossy-2ch`` run at level 0, ``e1-sweep`` at the default level
1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import RngMeter
from repro.core import BernoulliColoringNode, ColoringNode, Parameters, run_coloring
from repro.core.protocol import build_simulator
from repro.graphs import random_udg, ring_deployment
from repro.radio import CounterMessage, TraceRecorder
from repro.radio.channel import ChannelCore, CollisionPhy, MultiChannelPhy
from repro.radio.engine import _DRAW_BYTES, _DRAW_CHUNK, RadioSimulator
from repro.wakeup import synchronous, uniform_random

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
    base = run_coloring(dep, seed=7, node_cls=BernoulliColoringNode, block=1)
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


def test_stepping_on_past_a_stop_keeps_the_trajectory():
    """A blocked run that stops inside a segment leaves the generator
    past the segment's rows; stepping on is served those rows first, so
    it goes on exactly like the per-slot run stepped on the same way."""
    dep, params, wake = _world(10, 4.0, 21, 22, 30)
    runs = []
    for block in (1, 512):
        sim, nodes, res = _run(dep, params, wake, seed=9, block=block,
                               max_slots=30_000, check_every=16, stop=True)
        assert res.stopped_early
        sim.run(res.slots + 300, block=block)
        runs.append((sim, nodes, res))
    _assert_identical(*runs)
    assert runs[0][0].rng.draws == runs[1][0].rng.draws


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
    """block > 1 on the classic route steps the ``ColoringNode``s in
    spans (``run_coloring``'s default) and reproduces the per-slot run:
    same colors, same stop slot, same metric totals."""
    dep = random_udg(12, expected_degree=5, seed=51, connected=True)
    base = run_coloring(dep, seed=13, block=1)
    for blocked in (run_coloring(dep, seed=13, block=64), run_coloring(dep, seed=13)):
        assert np.array_equal(base.colors, blocked.colors)
        assert base.slots == blocked.slots
        assert (
            base.trace.channel_metrics.totals() == blocked.trace.channel_metrics.totals()
        )


def _work_inputs(shape):
    """A small input built like the ``bench/`` workload ``shape``, run to
    completion in about a second: the deployment and the ``run_coloring``
    keywords, ``block`` aside."""
    fast = dict(seed=5, node_cls=BernoulliColoringNode, trace_level=0)
    if shape == "sync-contended":
        dep = random_udg(40, expected_degree=9, seed=3)
        params = Parameters.practical(dep.n, max(2, dep.max_degree), 5, 18, scale=2)
        return dep, dict(params=params, **fast)
    if shape == "async-lossy-2ch":
        dep = random_udg(24, expected_degree=8, seed=3)
        params = Parameters.practical(dep.n, max(2, dep.max_degree), 5, 18, scale=4)
        wake = uniform_random(dep.n, window=20 * dep.n, seed=7)
        lossy = dict(wake_slots=wake, channels=2, loss_prob=0.2)
        return dep, dict(params=params, **lossy, **fast)
    dep = random_udg(30, expected_degree=9, seed=3, connected=True)
    params = Parameters.for_deployment(dep, scale=2)
    return dep, dict(params=params, seed=5, node_cls=ColoringNode, trace_level=1)


#: Exact work counts per ``block`` of one run to completion of each
#: input: slots, fire slots (slots with a transmission), bulk empty
#: spans, stream skips and calls on the protocol stream, and the
#: Python-level calls of each layer.  A blocked run resolves and
#: delivers every fire slot taken under one state in one call; its
#: ``block=1`` twin takes spans of one slot (an empty slot is a bulk
#: record of one slot, and an all-passive one a stream skip) and must
#: end in the same place.  On the classic ``e1-sweep`` input the blocked
#: run steps more often than its twin: steps taken past a cut are taken
#: back and taken again.
WORK_PINS = {
    "sync-contended": {
        4096: dict(slots=49229, fire_slots=19859, channel_empty=6, skip=1,
                   rng_calls=436, step=0, deliver=10437, refresh=371, emit=2019,
                   resolve=508, core_deliver=508),
        1: dict(slots=49229, fire_slots=19859, channel_empty=29370, skip=3453,
                rng_calls=49229, step=0, deliver=10437, refresh=371, emit=2019,
                resolve=19859, core_deliver=19859),
    },
    "async-lossy-2ch": {
        4096: dict(slots=44346, fire_slots=13012, channel_empty=41, skip=94,
                   rng_calls=396, step=0, deliver=3405, refresh=204, emit=1564,
                   resolve=423, core_deliver=423),
        1: dict(slots=44346, fire_slots=13012, channel_empty=31334, skip=4121,
                rng_calls=44346, step=0, deliver=3405, refresh=204, emit=1564,
                resolve=13012, core_deliver=13012),
    },
    "e1-sweep": {
        4096: dict(slots=11361, fire_slots=6734, channel_empty=45, skip=0,
                   rng_calls=11585, step=16025, deliver=6352, refresh=0, emit=0,
                   resolve=202, core_deliver=202),
        1: dict(slots=11361, fire_slots=6734, channel_empty=4602, skip=0,
                rng_calls=11585, step=11608, deliver=6352, refresh=0, emit=0,
                resolve=6734, core_deliver=6734),
    },
}


@pytest.mark.parametrize("shape", sorted(WORK_PINS))
def test_work_is_pinned(monkeypatch, shape):
    """Exact, host-independent work counters of small runs to completion
    shaped like the ``bench/`` workloads.  A drift in any count is a
    change in how much work the engine does: a change that means it
    re-pins the count and says why."""
    calls = {}

    def count(owner, name, label):
        fn = getattr(owner, name)
        calls[label] = 0

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(TraceRecorder, "channel_empty", "channel_empty")
    count(RngMeter, "skip", "skip")
    count(ColoringNode, "step", "step")
    count(ColoringNode, "deliver", "deliver")
    count(RadioSimulator, "_refresh", "refresh")
    count(BernoulliColoringNode, "emit", "emit")
    count(CollisionPhy, "resolve", "resolve")
    count(MultiChannelPhy, "resolve", "resolve")
    count(ChannelCore, "deliver", "core_deliver")
    sims = []
    run = RadioSimulator.run

    def captured(sim, *args, **kwargs):
        sims.append(sim)
        return run(sim, *args, **kwargs)

    monkeypatch.setattr(RadioSimulator, "run", captured)
    dep, kwargs = _work_inputs(shape)
    work, results = {}, {}
    for block in WORK_PINS[shape]:
        calls.update(dict.fromkeys(calls, 0))
        sims.clear()
        res = run_coloring(dep, block=block, **kwargs)
        assert res.completed and res.proper
        tx = res.trace.channel_metrics.tx
        work[block] = dict(
            slots=res.slots,
            fire_slots=len(tx) - tx.count(0),
            rng_calls=sims[0].rng.calls,
            **calls,
        )
        results[block] = res
    assert work == WORK_PINS[shape]
    twin = results[1]
    for res in results.values():
        assert res.slots == twin.slots
        assert np.array_equal(res.colors, twin.colors)
        assert res.trace.channel_metrics.totals() == twin.trace.channel_metrics.totals()


class _OversizeNode(ColoringNode):
    """From slot 200 on, every third node's messages exceed the bound
    ``enforce_message_bits`` sets (``emit`` stays pure: slot and vid
    decide)."""

    __slots__ = ()

    def emit(self, slot):
        msg = super().emit(slot)
        if slot >= 200 and self.vid % 3 == 0:
            return CounterMessage(sender=self.vid, color=0, counter=1 << 200)
        return msg


class _OversizeBernoulliNode(_OversizeNode, BernoulliColoringNode):
    __slots__ = ()


def test_message_bits_checked_at_the_same_transmission_at_any_block():
    """A blocked run checks message sizes exactly on the transmissions of
    the slots it processes, never on one drawn (or stepped) past a cut,
    so the first violation is the per-slot run's, on both routes."""
    dep, params, wake = _world(12, 5.0, 7, 8, 0)
    for node_cls in (_OversizeBernoulliNode, _OversizeNode):
        errors = []
        for block in (1, 64, 4096):
            sim, _ = build_simulator(dep, params, wake, seed=3, node_cls=node_cls,
                                     trace_level=0, enforce_message_bits=True)
            with pytest.raises(RuntimeError, match="-bit message") as err:
                sim.run(5000, block=block)
            errors.append(str(err.value))
        assert errors == [errors[0]] * 3, node_cls.__name__



#: Delivery-path scenarios: (n, expected degree, graph seed, wake window
#: per node (0: synchronous), practical scale, loss, channels).
DELIVERY_SCENARIOS = {
    "contended": (32, 10.0, 5, 0, 1.0, 0.0, 1),
    "lossy": (28, 8.0, 6, 0, 1.0, 0.2, 1),
    "lossy-2ch-async": (28, 8.0, 7, 20, 2.0, 0.2, 2),
}


@pytest.mark.parametrize("node_cls", [BernoulliColoringNode, ColoringNode],
                         ids=["batched", "classic"])
@pytest.mark.parametrize("scenario", sorted(DELIVERY_SCENARIOS))
def test_bulk_delivery_equals_row_walk(monkeypatch, scenario, node_cls):
    """One ``ChannelCore.deliver`` takes every run at every trace level
    (level 2 once took a separate row walk, hence the name): level 2
    only adds the event log.  The same seeds at levels 0, 1 and 2 give
    the same run — slots, colors, every channel-metric column and the
    per-node tx/rx/collision counts — on both routes, with loss coins,
    two channels and, at every level, fire runs cut by a state-changing
    delivery."""
    n, degree, graph_seed, window, scale, loss, channels = DELIVERY_SCENARIOS[scenario]
    dep = random_udg(n, expected_degree=degree, seed=graph_seed)
    params = Parameters.practical(n, max(2, dep.max_degree), 5, 18, scale=scale)
    wake = uniform_random(n, window=window * n, seed=graph_seed) if window else synchronous(n)
    cut_runs: list[bool] = []  # one entry per delivery: was it cut?
    deliver = ChannelCore.deliver

    def spy(core, t, candidates):
        end = deliver(core, t, candidates)
        cut_runs.append(end < candidates.run.t1)
        return end

    monkeypatch.setattr(ChannelCore, "deliver", spy)
    results = {}
    for level in (0, 1, 2):
        cut_runs.clear()
        results[level] = run_coloring(dep, params, wake, seed=11, node_cls=node_cls,
                                      trace_level=level, loss_prob=loss,
                                      channels=channels)
        assert any(cut_runs), f"level {level}: no delivery was cut"
    logged = results[2]
    assert logged.completed
    logged_cols = logged.trace.channel_metrics.as_arrays()
    assert (logged_cols["lost"].sum() > 0) == (loss > 0)
    for level in (0, 1):
        res = results[level]
        assert res.slots == logged.slots
        assert np.array_equal(res.colors, logged.colors)
        cols = res.trace.channel_metrics.as_arrays()
        assert set(cols) == set(logged_cols)
        for name in cols:
            assert np.array_equal(cols[name], logged_cols[name]), f"level {level}: {name}"
        for attr in ("tx_count", "rx_count", "collision_count"):
            assert np.array_equal(getattr(res.trace, attr), getattr(logged.trace, attr)), attr


def test_segment_buffer_is_capped_in_bytes():
    """The segment buffer holds ``_DRAW_CHUNK`` rows up to n = 2048 and
    at most ``_DRAW_BYTES`` beyond (a 128-row buffer would be 20 MB at
    n = 20,000)."""
    for n, rows in ((1600, _DRAW_CHUNK), (20_000, 13)):
        dep = ring_deployment(n)
        sim, _ = build_simulator(dep, Parameters.practical(n, 2, 2, 3), seed=1,
                                 node_cls=BernoulliColoringNode, trace_level=0)
        assert sim._draw_buf.shape == (rows, n)
        assert sim._draw_buf.nbytes <= _DRAW_BYTES
