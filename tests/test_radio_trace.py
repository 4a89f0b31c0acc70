"""Tests for the trace recorder."""

import numpy as np

from repro._util import RngMeter
from repro.radio import ChannelCore, ColorMessage, TraceRecorder
from repro.radio.channel import Candidates, FireRun

from .conftest import ListenerNode


def _deliver(trace, listener, count):
    """Deliver slot 0, in which node 0 sends, through the channel core to
    eligible listeners with the given overlap counts (a count of 1
    decodes node 0's message)."""
    one = np.zeros(1, dtype=np.int64)
    run = FireRun(0, 1, one, one, [0], msgs=[ColorMessage(sender=0, color=0)], logged=1)
    count = np.array(count, dtype=np.int64)
    rows = Candidates(run, np.zeros_like(count), np.array(listener, dtype=np.int64),
                      count, np.where(count == 1, 0, -1), np.ones(count.size, dtype=bool))
    nodes = [ListenerNode(v) for v in range(trace.n)]
    ChannelCore(nodes, trace, RngMeter(np.random.default_rng(0))).deliver(0, rows)


class TestCounters:
    def test_tx_rx_counts(self):
        tr = TraceRecorder(3, level=0)
        tr.tx(0, 1, None)
        tr.tx(1, 1, None)
        _deliver(tr, listener=[2], count=[1])
        assert tr.tx_count.tolist() == [0, 2, 0]
        assert tr.rx_count.tolist() == [0, 0, 1]
        assert tr.events == []  # level 0 stores no events

    def test_collision_count(self):
        tr = TraceRecorder(2, level=2)
        _deliver(tr, listener=[1], count=[3])
        assert tr.collision_count.tolist() == [0, 1]
        assert tr.events[0].data["senders"] == 3


class TestDecisionTimes:
    def test_basic(self):
        tr = TraceRecorder(3)
        tr.wake(2, 0)
        tr.wake(0, 1)
        tr.decide(10, 0, color=4)
        assert tr.decision_times().tolist() == [8, -1, -1]
        assert tr.decide_color[0] == 4

    def test_summary_counts_decided(self):
        tr = TraceRecorder(2)
        tr.wake(0, 0)
        tr.wake(0, 1)
        tr.decide(7, 0, 1)
        s = tr.summary()
        assert s["decided"] == 1
        assert s["t_max"] == 7

    def test_summary_empty(self):
        s = TraceRecorder(3).summary()
        assert s["decided"] == 0 and s["t_max"] == -1


class TestEvents:
    def test_state_events_at_level1(self):
        tr = TraceRecorder(2, level=1)
        tr.state(3, 1, "A_0")
        evs = tr.events_of_kind("state")
        assert len(evs) == 1 and evs[0].data["state"] == "A_0"

    def test_tx_events_only_at_level2(self):
        tr1 = TraceRecorder(2, level=1)
        tr1.tx(0, 0, "m")
        assert tr1.events_of_kind("tx") == []
        tr2 = TraceRecorder(2, level=2)
        tr2.tx(0, 0, "m")
        assert len(tr2.events_of_kind("tx")) == 1
