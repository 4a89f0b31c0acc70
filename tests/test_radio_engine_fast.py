"""Tests for the engine's vectorized fast path and exact stop slots.

The fast path (batched Bernoulli draws over :class:`BernoulliColoringNode`
populations) consumes the RNG in a different order than the per-node
step path, so equivalence is checked the way the paper's own claims are:
the coloring must be proper, complete, and verified on every seed, and
its decision-time distribution must sit in the same band as the
step-path's — a distributional differential, mirroring how the optimized
node is tested against the executable-spec reference.
"""

import numpy as np
import pytest

from repro.analysis import verify_run
from repro.core import BernoulliColoringNode, Parameters, run_coloring
from repro.core.protocol import build_simulator
from repro.graphs import path_deployment, random_udg

SEEDS = [3, 11, 29]


def make_dep(seed, n=40, degree=8.0):
    return random_udg(n, expected_degree=degree, seed=seed, connected=True)


class TestBuildCsr:
    def test_matches_neighbor_lists(self):
        dep = make_dep(2)
        indptr, indices = dep.csr
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for v in range(dep.n):
            got = sorted(indices[indptr[v] : indptr[v + 1]].tolist())
            assert got == sorted(int(u) for u in dep.neighbors[v])

    def test_path(self):
        indptr, indices = path_deployment(3).csr
        assert indptr.tolist() == [0, 1, 3, 4]
        assert indices[0] == 1 and indices[3] == 1


class TestFastPathDetection:
    def test_vectorized_flag(self):
        dep = make_dep(1, n=20)
        params = Parameters.for_deployment(dep)
        classic, _ = build_simulator(dep, params, seed=2)
        fast, _ = build_simulator(dep, params, seed=2, node_cls=BernoulliColoringNode)
        assert not classic.vectorized
        assert fast.vectorized

    def test_mixed_population_stays_classic(self):
        # One node without the fast interface disables batching for all.
        dep = path_deployment(3)
        params = Parameters.for_deployment(dep)
        nodes = [
            BernoulliColoringNode(0, params),
            BernoulliColoringNode(1, params),
        ]
        from repro.core.node import ColoringNode

        nodes.append(ColoringNode(2, params))
        from repro.radio.engine import RadioSimulator

        sim = RadioSimulator(
            dep, nodes, np.zeros(3, dtype=np.int64), np.random.default_rng(0)
        )
        assert not sim.vectorized


class TestFastPathCorrectness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_proper_complete_verified(self, seed):
        dep = make_dep(seed)
        res = run_coloring(dep, seed=seed ^ 0xFA57, node_cls=BernoulliColoringNode)
        assert res.completed and res.proper
        assert verify_run(res).ok

    def test_same_seed_determinism(self):
        dep = make_dep(7)
        a = run_coloring(dep, seed=70, node_cls=BernoulliColoringNode)
        b = run_coloring(dep, seed=70, node_cls=BernoulliColoringNode)
        assert np.array_equal(a.colors, b.colors)
        assert a.slots == b.slots
        assert np.array_equal(a.trace.tx_count, b.trace.tx_count)

    def test_asynchronous_wakeup(self):
        dep = make_dep(13, n=30, degree=7.0)
        ws = np.arange(dep.n, dtype=np.int64) * 5
        res = run_coloring(
            dep, wake_slots=ws, seed=131, node_cls=BernoulliColoringNode
        )
        assert res.completed and res.proper

    def test_under_loss(self):
        dep = make_dep(17, n=30, degree=7.0)
        res = run_coloring(
            dep, seed=171, loss_prob=0.2, node_cls=BernoulliColoringNode
        )
        assert res.completed and res.proper


class TestFastVsClassicDifferential:
    def test_decision_time_band(self):
        """Batched Bernoulli draws and geometric skips realize the same
        per-slot transmission law, so mean decision times across a seed
        set must sit in the same band (ratio well inside [1/3, 3])."""
        fast_means, classic_means = [], []
        for seed in SEEDS:
            dep = make_dep(seed)
            f = run_coloring(dep, seed=seed, node_cls=BernoulliColoringNode)
            c = run_coloring(dep, seed=seed)
            assert f.completed and c.completed
            ft, ct = f.decision_times(), c.decision_times()
            fast_means.append(float(ft[ft >= 0].mean()))
            classic_means.append(float(ct[ct >= 0].mean()))
        ratio = float(np.mean(fast_means) / np.mean(classic_means))
        assert 1 / 3 < ratio < 3, (fast_means, classic_means)

    def test_color_counts_same_band(self):
        for seed in SEEDS:
            dep = make_dep(seed)
            f = run_coloring(dep, seed=seed, node_cls=BernoulliColoringNode)
            c = run_coloring(dep, seed=seed)
            bound = c.params.kappa2 * c.params.delta
            assert f.max_color <= bound
            assert abs(f.num_colors - c.num_colors) <= max(3, c.num_colors)


class TestExactStopSlot:
    @pytest.mark.parametrize("node_cls", [None, BernoulliColoringNode])
    def test_slots_equals_last_decision_plus_one(self, node_cls):
        """Under synchronous wake-up the run must stop at -- and report --
        the slot right after the last decision, not the next multiple of
        the old check_every=16 stride."""
        dep = make_dep(23, n=30, degree=7.0)
        kwargs = {} if node_cls is None else {"node_cls": node_cls}
        res = run_coloring(dep, seed=231, **kwargs)
        assert res.completed
        assert res.slots == int(res.trace.decide_slot.max()) + 1

    def test_summary_consistency(self):
        # Synchronous wake-up: decision times are decide slots, so
        # slots == T_max + 1 exactly.
        dep = make_dep(31, n=25, degree=6.0)
        s = run_coloring(dep, seed=311).summary()
        assert s["slots"] == s["T_max"] + 1

    def test_check_every_validated(self):
        dep = path_deployment(2)
        params = Parameters.for_deployment(dep)
        sim, _ = build_simulator(dep, params, seed=1)
        with pytest.raises(ValueError, match="check_every"):
            sim.run(10, stop_when=lambda s: False, check_every=0)
