"""Golden regression tests: pinned end-to-end outcomes for fixed seeds.

Every simulation is deterministic given a seed, so whole-run outcomes
can be pinned exactly.  If any of these change, either (a) a protocol /
engine behaviour changed — which, for a *reproduction*, must be a
conscious, documented decision — or (b) RNG consumption order changed,
which silently invalidates previously recorded experiment numbers.
Update the constants only together with a note in EXPERIMENTS.md.
"""

import hashlib

import numpy as np
import pytest

from repro import run_coloring
from repro.analysis import verify_run
from repro.core import run_mis
from repro.graphs import random_udg, ring_deployment


class TestGoldenColoring:
    def test_udg_summary_pinned(self):
        dep = random_udg(40, expected_degree=8, seed=1, connected=True)
        res = run_coloring(dep, seed=11)
        s = res.summary()
        assert s["completed"] and s["proper"]
        # Literals recorded from the run at release 1.0.0; any drift means
        # protocol/engine behaviour or RNG consumption order changed.
        # `slots` re-pinned 6032 -> 6017 when run_coloring switched to the
        # exact-completion stop (see EXPERIMENTS.md "Exact stop slots"):
        # the trajectory is unchanged (T_max and all other literals held),
        # the old value merely overshot to the next periodic check.
        assert s["n"] == 40
        assert s["colors"] == 10
        assert s["max_color"] == 42
        assert s["leaders"] == 9
        assert s["slots"] == 6017
        assert s["T_max"] == 6016
        assert s["slots"] == s["T_max"] + 1  # synchronous wake-up: exact stop
        # Full reproducibility: the exact same run again.
        res2 = run_coloring(dep, seed=11)
        assert np.array_equal(res.colors, res2.colors)
        assert res.slots == res2.slots
        assert np.array_equal(res.trace.tx_count, res2.trace.tx_count)

    def test_udg_channel_metrics_pinned(self):
        """Per-stream RNG draw counts, pinned exactly.

        Draw-count drift is the silent failure mode behind the PR 1
        loss-RNG coupling bug: a change that consumes one extra variate
        shifts every later decision while leaving the code "working".
        The per-slot channel metrics make consumption observable; these
        literals pin it.  Update only together with the trajectory pins
        above and a note in EXPERIMENTS.md.
        """
        dep = random_udg(40, expected_degree=8, seed=1, connected=True)
        totals = run_coloring(dep, seed=11).trace.channel_metrics.totals()
        assert totals == {
            "tx": 8407,
            "rx": 36161,
            "collisions": 3396,
            "lost": 0,
            "protocol_draws": 8554,
            "loss_draws": 0,
        }

    def test_udg_lossy_channel_metrics_pinned(self):
        """The lossy variant: the loss stream is a spawned child, so the
        protocol stream's draw count may only change because the
        *trajectory* changes (receptions lost -> different behaviour),
        never because loss draws leak into it.  One loss draw per
        otherwise-successful reception: loss_draws == rx + lost."""
        dep = random_udg(40, expected_degree=8, seed=1, connected=True)
        totals = run_coloring(dep, seed=11, loss_prob=0.1).trace.channel_metrics.totals()
        assert totals == {
            "tx": 8246,
            "rx": 31573,
            "collisions": 3500,
            "lost": 3537,
            "protocol_draws": 8390,
            "loss_draws": 35110,
        }
        assert totals["loss_draws"] == totals["rx"] + totals["lost"]

    def test_unaligned_lossy_run_pinned(self):
        """The unaligned simulator's whole-run outcome, loss included.

        Pins the full spawn discipline of the refactored channel core on
        the unaligned path: the loss child is the first spawn off the
        protocol stream, the offsets child the second (drawn only
        because offsets are omitted here), and each otherwise-successful
        reception costs exactly one loss draw — so loss_draws ==
        rx + lost even though the two-buffer overlap lets a message lost
        in its first slot still be decoded in its second."""
        dep = random_udg(30, expected_degree=7, seed=2, connected=True)
        res = run_coloring(dep, seed=21, unaligned=True, loss_prob=0.1)
        s = res.summary()
        assert s["completed"] and s["proper"]
        assert s["colors"] == 11
        assert s["slots"] == 5421
        assert s["T_max"] == 5420
        totals = res.trace.channel_metrics.totals()
        assert totals == {
            "tx": 7284,
            "rx": 23724,
            "collisions": 11463,
            "lost": 2596,
            "protocol_draws": 7395,
            "loss_draws": 26320,
        }
        assert totals["loss_draws"] == totals["rx"] + totals["lost"]

    def test_multichannel_run_pinned(self):
        """The full protocol on a 2-channel hopping PHY, pinned.

        The hop stream is a side stream metered on the PHY object, not a
        ChannelMetrics column, so loss_draws stays 0 here; constants are
        scaled with the channel count (the meeting rate drops as 1/k)."""
        from repro.core import Parameters

        dep = random_udg(30, expected_degree=7, seed=2, connected=True)
        params = Parameters.for_deployment(dep, scale=2.0)
        res = run_coloring(dep, params=params, seed=81, channels=2)
        s = res.summary()
        assert s["completed"] and s["proper"]
        assert s["colors"] == 10
        assert s["slots"] == 9132
        totals = res.trace.channel_metrics.totals()
        assert totals == {
            "tx": 12883,
            "rx": 25243,
            "collisions": 1481,
            "lost": 0,
            "protocol_draws": 12989,
            "loss_draws": 0,
        }

    def test_vectorized_blocked_run_pinned(self):
        """The vectorized fast path's whole-run outcome, pinned — and the
        block-stepped mode must reproduce it *exactly* at any block size.

        The vectorized path consumes the protocol stream differently
        from the classic path (one ``random(n)`` per slot instead of
        per-node geometric skips), so it gets its own literals; the
        blocked run is required to be byte-identical to them, which pins
        the segment-draw / stream-skip equivalence end to end
        (protocol_draws == slots * n exactly)."""
        from repro.core import BernoulliColoringNode

        dep = random_udg(40, expected_degree=8, seed=1, connected=True)
        base = run_coloring(dep, seed=11, node_cls=BernoulliColoringNode, block=1)
        s = base.summary()
        assert s["completed"] and s["proper"]
        assert s["colors"] == 11
        assert s["leaders"] == 10
        assert s["slots"] == 7837
        totals = base.trace.channel_metrics.totals()
        assert totals == {
            "tx": 12801,
            "rx": 51208,
            "collisions": 6146,
            "lost": 0,
            "protocol_draws": 313480,
            "loss_draws": 0,
        }
        assert totals["protocol_draws"] == s["slots"] * 40
        for block in (64, 1_000_000):
            blocked = run_coloring(
                dep, seed=11, node_cls=BernoulliColoringNode, block=block
            )
            assert blocked.slots == base.slots
            assert np.array_equal(blocked.colors, base.colors)
            assert blocked.trace.channel_metrics.totals() == totals

    @pytest.mark.slow
    def test_blocked_10k_run_pinned(self):
        """Golden pin for one n = 10,000 dense blocked run (nightly).

        Pins the blocked engine's whole-run outcome at real scale, where
        a drifted stream position would corrupt runs the small-n tests
        never see: a spread wake schedule (479 of 10,000 nodes wake
        inside the horizon), a 20,000-slot horizon, and exact lattice
        accounting (protocol_draws == slots * n).  ~35 s; runs in the
        nightly `make test-slow` job, deselected from tier-1.
        """
        from repro.core import BernoulliColoringNode
        from repro.wakeup import uniform_random

        dep = random_udg(10_000, expected_degree=12, seed=1)
        wake = uniform_random(10_000, window=400_000, seed=2)
        res = run_coloring(
            dep,
            wake_slots=wake,
            seed=3,
            node_cls=BernoulliColoringNode,
            block=4096,
            max_slots=20_000,
        )
        assert res.slots == 20_000
        totals = res.trace.channel_metrics.totals()
        assert totals == {
            "tx": 15016,
            "rx": 6184,
            "collisions": 6,
            "lost": 0,
            "protocol_draws": 200_000_000,
            "loss_draws": 0,
        }
        assert totals["protocol_draws"] == res.slots * 10_000
        digest = hashlib.sha256(
            np.ascontiguousarray(res.colors, dtype=np.int64).tobytes()
        ).hexdigest()
        assert digest == (
            "444a3db2d6935b4ebb7f23baf7948f2e0dd0ce41dc392dc2086255c109e82290"
        )
        assert int((res.colors >= 0).sum()) == 57
        # Theorem 2 and the leader structure hold on the decided part;
        # the run is capped, so only the undecided count keeps it from ok.
        report = verify_run(res)
        assert report.proper_violations == []
        assert report.temporal_violations == []
        assert report.leader_problems == []
        assert len(report.undecided) == 10_000 - 57

    @pytest.mark.slow
    def test_graph_free_100k_run_pinned(self, monkeypatch):
        """Golden pin for one n = 100,000 run that never builds a
        networkx graph (nightly).

        ``Deployment.graph`` raises throughout: the UDG's adjacency comes
        from the k-d tree's pair array, exact kappa from its CSR rows
        (about 9 s here), a capped batched run (1,962 nodes decide, 51 of
        them non-leaders) and ``verify_run`` from the same arrays.  The
        constants run at practical scale 0.25 so that decisions fall
        inside the 16,000-slot horizon; ~25 s, in the nightly
        `make test-slow` job, deselected from tier-1.
        """
        from repro import Parameters
        from repro.core import BernoulliColoringNode
        from repro.graphs import Deployment
        from repro.wakeup import uniform_random

        def no_graph(dep):
            raise AssertionError("the run path built Deployment.graph")

        monkeypatch.setattr(Deployment, "graph", property(no_graph))
        dep = random_udg(100_000, expected_degree=12, seed=1)
        params = Parameters.for_deployment(dep, scale=0.25)
        assert (dep.m, dep.max_degree, params.kappa1, params.kappa2) == (546_674, 29, 5, 12)
        wake = uniform_random(100_000, window=400_000, seed=2)
        res = run_coloring(
            dep,
            params,
            wake,
            seed=3,
            node_cls=BernoulliColoringNode,
            block=4096,
            max_slots=16_000,
            trace_level=0,
        )
        assert res.slots == 16_000
        totals = res.trace.channel_metrics.totals()
        assert totals == {
            "tx": 756224,
            "rx": 223309,
            "collisions": 1008,
            "lost": 0,
            "protocol_draws": 1_600_000_000,
            "loss_draws": 0,
        }
        digest = hashlib.sha256(
            np.ascontiguousarray(res.colors, dtype=np.int64).tobytes()
        ).hexdigest()
        assert digest == (
            "cc03e7da69d390028a5f737f6619e8c926b5a68849538f54fa92472415f1fe56"
        )
        summary = res.summary()
        assert (summary["leaders"], summary["colors"], summary["max_color"]) == (1911, 3, 26)
        report = verify_run(res)
        assert report.proper_violations == []
        assert report.temporal_violations == []
        assert report.leader_problems == []
        assert len(report.undecided) == 100_000 - 1962

    def test_ring_colors_pinned(self):
        res = run_coloring(ring_deployment(10), seed=3)
        res2 = run_coloring(ring_deployment(10), seed=3)
        assert np.array_equal(res.colors, res2.colors)
        assert res.proper and res.completed

    def test_mis_pinned(self):
        dep = random_udg(30, expected_degree=7, seed=2, connected=True)
        a = run_mis(dep, seed=5)
        b = run_mis(dep, seed=5)
        assert np.array_equal(a.in_mis, b.in_mis)
        assert a.slots == b.slots

    def test_cross_component_independence(self):
        """Seeding discipline: the channel RNG is global, so two identical
        half-networks in one deployment do NOT evolve identically — but
        the whole run is still reproducible."""
        import networkx as nx

        from repro.graphs import from_graph

        g = nx.union(nx.cycle_graph(6), nx.cycle_graph(6), rename=("a", "b"))
        dep = from_graph(g)
        res = run_coloring(dep, seed=9)
        res2 = run_coloring(dep, seed=9)
        assert np.array_equal(res.colors, res2.colors)
