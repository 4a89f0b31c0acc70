"""Per-slot channel metrics and RNG metering.

The metrics are the conformance harness's cheap, always-on layer: six
integers per slot, appended by the engine on both execution paths.
These tests pin their accounting identities — totals equal the trace's
per-node counters, draw counts match the paths' documented consumption
patterns, injected losses are counted, and the slot index is enforced.
"""

import numpy as np
import pytest

from repro._util import RngMeter
from repro.core import BernoulliColoringNode, Parameters
from repro.graphs import random_udg, ring_deployment
from repro.radio import RadioSimulator, TraceRecorder
from repro.radio.trace import ChannelMetrics

from .conftest import BeaconNode, ListenerNode


def _run(n=24, degree=6.0, seed=7, loss_prob=0.0, vectorized=None, max_slots=400):
    dep = random_udg(n, expected_degree=degree, seed=seed)
    params = Parameters.for_deployment(dep)
    trace = TraceRecorder(n)
    nodes = [BernoulliColoringNode(v, params, trace) for v in range(n)]
    sim = RadioSimulator(
        dep,
        nodes,
        np.zeros(n, dtype=np.int64),
        rng=np.random.default_rng(seed + 1),
        trace=trace,
        loss_prob=loss_prob,
        vectorized=vectorized,
    )
    sim.run(max_slots)
    return sim, trace


class TestRngMeter:
    def test_counts_scalars_and_vectors(self):
        meter = RngMeter(np.random.default_rng(0))
        meter.random()
        assert meter.draws == 1
        meter.random(10)
        assert meter.draws == 11
        meter.integers(0, 5, size=(2, 3))
        assert meter.draws == 17
        meter.geometric(0.5)
        assert meter.draws == 18
        assert meter.calls == 4

    def test_same_stream_as_wrapped_generator(self):
        a = np.random.default_rng(42)
        b = RngMeter(np.random.default_rng(42))
        assert a.random() == b.random()
        assert np.array_equal(a.random(5), b.random(5))
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_spawn_is_unmetered_and_matches(self):
        a = np.random.default_rng(9)
        b = RngMeter(np.random.default_rng(9))
        child_a = a.spawn(1)[0]
        child_b = b.spawn(1)[0]
        assert b.draws == 0
        assert child_a.random() == child_b.random()


class TestChannelMetricsObject:
    def test_append_and_shapes(self):
        m = ChannelMetrics()
        m.append(3, 2, 1, 0, 30, 2)
        m.append(0, 0, 0, 0, 30, 0)
        assert len(m) == 2
        arrays = m.as_arrays()
        assert set(arrays) == set(ChannelMetrics.FIELDS)
        assert arrays["tx"].tolist() == [3, 0]
        assert m.totals()["protocol_draws"] == 60
        assert m.row(0)["collisions"] == 1
        assert m.row(-1)["tx"] == 0

    def test_recorder_enforces_slot_index(self):
        trace = TraceRecorder(4)
        trace.channels(0, [1], [0], [0], [0], [4], [0])
        with pytest.raises(ValueError):
            trace.channels(2, [0], [0], [0], [0], [0], [0])


class TestEngineMetricsAccounting:
    def test_totals_match_trace_counters_classic(self):
        sim, trace = _run(vectorized=False)
        totals = trace.channel_metrics.totals()
        assert len(trace.channel_metrics) == sim.slot
        assert totals["tx"] == int(trace.tx_count.sum())
        assert totals["rx"] == int(trace.rx_count.sum())
        assert totals["collisions"] == int(trace.collision_count.sum())
        assert totals["lost"] == 0
        assert totals["loss_draws"] == 0

    def test_totals_match_trace_counters_vectorized(self):
        sim, trace = _run(vectorized=True)
        totals = trace.channel_metrics.totals()
        assert totals["tx"] == int(trace.tx_count.sum())
        assert totals["rx"] == int(trace.rx_count.sum())
        assert totals["collisions"] == int(trace.collision_count.sum())

    def test_vectorized_protocol_draws_is_n_per_slot(self):
        """The fast path's documented pattern: one random(n) per slot,
        unconditionally."""
        n = 20
        sim, trace = _run(n=n, vectorized=True)
        draws = trace.channel_metrics.as_arrays()["protocol_draws"]
        assert np.all(draws == n)

    def test_lossy_run_counts_losses_and_draws(self):
        sim, trace = _run(loss_prob=0.3, vectorized=True)
        totals = trace.channel_metrics.totals()
        assert totals["lost"] > 0
        # One loss draw per otherwise-successful reception, delivered or not.
        assert totals["loss_draws"] == totals["rx"] + totals["lost"]

    def test_loss_does_not_perturb_protocol_stream(self):
        _, clean = _run(loss_prob=0.0, vectorized=True, max_slots=200)
        _, lossy = _run(loss_prob=0.3, vectorized=True, max_slots=200)
        a = clean.channel_metrics.as_arrays()
        b = lossy.channel_metrics.as_arrays()
        assert np.array_equal(a["tx"], b["tx"])
        assert np.array_equal(a["protocol_draws"], b["protocol_draws"])
        # Deliveries shrink under loss; the shortfall is exactly `lost`.
        assert np.array_equal(a["rx"], b["rx"] + b["lost"])

    def test_metrics_on_compat_only_population(self):
        """Nodes without the batched interface still get metered."""
        dep = ring_deployment(6)
        nodes = [BeaconNode(0, p=0.5)] + [ListenerNode(v) for v in range(1, 6)]
        trace = TraceRecorder(6)
        sim = RadioSimulator(
            dep, nodes, np.zeros(6, dtype=np.int64),
            rng=np.random.default_rng(1), trace=trace,
        )
        assert not sim.vectorized
        sim.run(50)
        totals = trace.channel_metrics.totals()
        assert len(trace.channel_metrics) == 50
        assert totals["tx"] == nodes[0].sent
        assert totals["rx"] == len(nodes[1].received) + len(nodes[5].received)
        # Each slot draws exactly one uniform (the single beacon's coin).
        assert totals["protocol_draws"] == 50


class TestVectorizedOverride:
    def test_force_classic_on_batched_population(self):
        sim, _ = _run(vectorized=False)
        assert not sim.vectorized

    def test_demand_vectorized_on_compat_population_raises(self):
        dep = ring_deployment(4)
        nodes = [ListenerNode(v) for v in range(4)]
        with pytest.raises(ValueError):
            RadioSimulator(
                dep, nodes, np.zeros(4, dtype=np.int64),
                rng=np.random.default_rng(0), vectorized=True,
            )

    def test_auto_detect_unchanged(self):
        sim, _ = _run(vectorized=None)
        assert sim.vectorized

    def test_forced_paths_agree_on_final_counters(self):
        _, ta = _run(vectorized=False, max_slots=300)
        _, tb = _run(vectorized=True, max_slots=300)
        # Not a lockstep claim (the paths consume RNG differently); both
        # must simply be self-consistent and complete their accounting.
        assert len(ta.channel_metrics) == len(tb.channel_metrics) == 300
        assert ta.channel_metrics.totals()["tx"] == int(ta.tx_count.sum())
        assert tb.channel_metrics.totals()["tx"] == int(tb.tx_count.sum())
