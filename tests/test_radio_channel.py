"""Tests for the shared channel-resolution core and PHY models.

Three layers:

- **core semantics**: :class:`ChannelCore` validation, loss-stream
  isolation, and the delivery law applied to candidate rows;
- **PHY models**: :class:`CollisionPhy` as the extracted default and
  :class:`MultiChannelPhy` (per-channel resolution, side-stream
  isolation, the protocol-controlled ``pick_channel`` hook);
- **refactor parity** (the pinned matrix): six cells of the 24-cell
  conformance matrix were run against the *pre-refactor* engine and
  their slot counts and per-path channel totals recorded as literals.
  The composed core must reproduce them byte-identically — golden pins
  must not move.
"""

import numpy as np
import pytest

from repro import run_coloring
from repro.conform import SCENARIO_MATRIX, run_scenario
from repro.graphs import path_deployment, random_udg, star_deployment
from repro.radio import (
    ChannelCore,
    CollisionPhy,
    MultiChannelPhy,
    RadioSimulator,
)
from repro.radio.trace import TraceRecorder

from .conftest import BeaconNode, ListenerNode


def beacon_world(dep, p, seed, phy=None, loss_prob=0.0, beacons=None):
    """A no-feedback world: beacons fire i.i.d., listeners only listen."""
    beacons = set(range(dep.n)) if beacons is None else set(beacons)
    nodes = [
        BeaconNode(v, p=p) if v in beacons else ListenerNode(v) for v in range(dep.n)
    ]
    sim = RadioSimulator(
        dep,
        nodes,
        np.zeros(dep.n, dtype=np.int64),
        np.random.default_rng(seed),
        loss_prob=loss_prob,
        phy=phy,
    )
    return sim, nodes


class TestChannelCore:
    def test_loss_prob_validated(self):
        trace = TraceRecorder(2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="loss_prob"):
            ChannelCore([None, None], trace, rng, loss_prob=1.0)

    def test_no_loss_stream_without_loss(self):
        sim, _ = beacon_world(path_deployment(2), p=1.0, seed=1)
        for _ in range(10):
            sim.step()
        assert sim.core.loss_draws == 0


class TestCollisionPhy:
    def test_candidates_ascending_and_correct(self):
        dep = star_deployment(3)  # hub 0, leaves 1..3
        sim, nodes = beacon_world(dep, p=1.0, seed=2, beacons={1, 2, 3})
        assert isinstance(sim.phy, CollisionPhy)  # the extracted default
        assert sim.phy.name == "collision"
        sim.step()
        # Hub saw 3 transmissions -> collision; leaves heard nothing (the
        # hub listens) -> not touched.
        assert nodes[0].received == []
        assert sim.trace.collision_count[0] == 1
        row = sim.trace.channel_metrics.row(0)
        assert row["tx"] == 3 and row["collisions"] == 1 and row["rx"] == 0


class TestMultiChannelPhy:
    def test_channels_validated(self):
        with pytest.raises(ValueError, match="channels"):
            MultiChannelPhy(0)

    def test_single_channel_matches_collision_phy(self):
        """k = 1 leaves only one channel to hop to: trajectory must be
        identical to the default PHY (hop draws are side-stream only)."""
        dep = random_udg(18, expected_degree=5, seed=3, connected=True)
        a, _ = beacon_world(dep, p=0.3, seed=30, phy=None)
        b, _ = beacon_world(dep, p=0.3, seed=30, phy=MultiChannelPhy(1))
        for _ in range(300):
            a.step()
            b.step()
        ma = a.trace.channel_metrics.as_arrays()
        mb = b.trace.channel_metrics.as_arrays()
        for name in ("tx", "rx", "collisions", "protocol_draws"):
            assert np.array_equal(ma[name], mb[name]), name
        # ... but the multichannel side did consume hop draws.
        assert b.phy.channel_draws > 0

    def test_hop_draws_never_perturb_protocol_stream(self):
        dep = random_udg(18, expected_degree=5, seed=4, connected=True)
        a, _ = beacon_world(dep, p=0.3, seed=40, phy=None)
        b, _ = beacon_world(dep, p=0.3, seed=40, phy=MultiChannelPhy(4))
        for _ in range(300):
            a.step()
            b.step()
        ma = a.trace.channel_metrics.as_arrays()
        mb = b.trace.channel_metrics.as_arrays()
        # Beacons have no feedback, so the transmission pattern and the
        # protocol draw counts are independent of the PHY entirely.
        assert np.array_equal(ma["tx"], mb["tx"])
        assert np.array_equal(ma["protocol_draws"], mb["protocol_draws"])
        # More channels -> fewer same-channel meetings -> fewer rx+collisions.
        assert mb["rx"].sum() + mb["collisions"].sum() < (
            ma["rx"].sum() + ma["collisions"].sum()
        )

    def test_hop_stream_is_lazy(self):
        """Slots without transmissions must not consume hop draws (this
        keeps hop-stream consumption identical across lockstep paths)."""
        dep = path_deployment(3)
        sim, _ = beacon_world(dep, p=0.0, seed=5, phy=MultiChannelPhy(3))
        for _ in range(50):
            sim.step()
        assert sim.phy.channel_draws == 0

    def test_pick_channel_hook(self):
        """Nodes reporting a channel id steer resolution: a sender and
        listener pinned to the same channel always connect; pinned to
        different channels, never."""

        class PinnedBeacon(BeaconNode):
            def __init__(self, vid, channel):
                super().__init__(vid, p=1.0)
                self.channel = channel

            def pick_channel(self, slot):
                return self.channel

        class PinnedListener(ListenerNode):
            def __init__(self, vid, channel):
                super().__init__(vid)
                self.channel = channel

            def pick_channel(self, slot):
                return self.channel

        dep = path_deployment(2)
        for lis_chan, expect_rx in ((1, 10), (0, 0)):
            nodes = [PinnedBeacon(0, 1), PinnedListener(1, lis_chan)]
            sim = RadioSimulator(
                dep,
                nodes,
                np.zeros(2, dtype=np.int64),
                np.random.default_rng(6),
                phy=MultiChannelPhy(2),
            )
            for _ in range(10):
                sim.step()
            assert len(nodes[1].received) == expect_rx

    def test_reported_channel_out_of_range_raises(self):
        class BadBeacon(BeaconNode):
            def pick_channel(self, slot):
                return 7

        dep = path_deployment(2)
        nodes = [BadBeacon(0, p=1.0), ListenerNode(1)]
        sim = RadioSimulator(
            dep,
            nodes,
            np.zeros(2, dtype=np.int64),
            np.random.default_rng(7),
            phy=MultiChannelPhy(2),
        )
        with pytest.raises(ValueError, match="channel"):
            sim.step()

    def test_full_protocol_on_two_channels(self):
        # Halving the meeting rate halves what each listening window
        # observes, so the protocol constants are scaled with the channel
        # count to keep the verification guarantees (the E17 question is
        # exactly how much scaling the protocol needs per channel).
        from repro.core.params import Parameters

        dep = random_udg(20, expected_degree=5, seed=8, connected=True)
        params = Parameters.for_deployment(dep, scale=2.0)
        res = run_coloring(dep, params, seed=81, channels=2)
        assert res.completed and res.proper


class TestPinnedMatrixParity:
    """Satellite: six cells of the 24-cell conformance matrix, run against
    the pre-refactor engine, pinned as literals.  Slot counts and both
    paths' channel totals must stay byte-identical under the extracted
    core (golden pins must not move)."""

    # (matrix index, slots, classic totals, vectorized totals); the paths
    # differ only in protocol_draws (one batched random(n) per slot on
    # the vectorized side; the shimmed classic side draws via the shared
    # uniform source, outside the metered stream).
    PINS = [
        (0, 1658,
         {"tx": 3051, "rx": 5346, "collisions": 572, "lost": 0,
          "protocol_draws": 0, "loss_draws": 0},
         {"tx": 3051, "rx": 5346, "collisions": 572, "lost": 0,
          "protocol_draws": 33160, "loss_draws": 0}),
        (5, 5226,
         {"tx": 4954, "rx": 14809, "collisions": 1786, "lost": 1628,
          "protocol_draws": 0, "loss_draws": 16437},
         {"tx": 4954, "rx": 14809, "collisions": 1786, "lost": 1628,
          "protocol_draws": 104520, "loss_draws": 16437}),
        (9, 5500,
         {"tx": 4139, "rx": 17459, "collisions": 1660, "lost": 1929,
          "protocol_draws": 0, "loss_draws": 19388},
         {"tx": 4139, "rx": 17459, "collisions": 1660, "lost": 1929,
          "protocol_draws": 121000, "loss_draws": 19388}),
        (14, 2801,
         {"tx": 4269, "rx": 10887, "collisions": 1652, "lost": 0,
          "protocol_draws": 0, "loss_draws": 0},
         {"tx": 4269, "rx": 10887, "collisions": 1652, "lost": 0,
          "protocol_draws": 67224, "loss_draws": 0}),
        (19, 4125,
         {"tx": 4264, "rx": 15804, "collisions": 1969, "lost": 1746,
          "protocol_draws": 0, "loss_draws": 17550},
         {"tx": 4264, "rx": 15804, "collisions": 1969, "lost": 1746,
          "protocol_draws": 107250, "loss_draws": 17550}),
        (23, 6905,
         {"tx": 4674, "rx": 23517, "collisions": 2839, "lost": 2581,
          "protocol_draws": 0, "loss_draws": 26098},
         {"tx": 4674, "rx": 23517, "collisions": 2839, "lost": 2581,
          "protocol_draws": 179530, "loss_draws": 26098}),
    ]

    @pytest.mark.parametrize(
        "index,slots,classic,vectorized",
        PINS,
        ids=[SCENARIO_MATRIX[p[0]].label() for p in PINS],
    )
    def test_cell_unchanged(self, index, slots, classic, vectorized):
        report = run_scenario(SCENARIO_MATRIX[index])
        assert report.ok, report.describe()
        assert report.completed
        assert report.slots == slots
        assert report.reference_totals == classic
        assert report.route_totals == vectorized
