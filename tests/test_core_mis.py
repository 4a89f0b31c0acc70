"""Tests for standalone leader election (MIS from scratch)."""

import numpy as np
import pytest

from repro.core import MisResult, Parameters, run_mis
from repro.graphs import clique_deployment, path_deployment, random_udg, ring_deployment
from repro.radio import TraceRecorder
from repro.wakeup import sequential


def _mis_result(dep, leaders):
    """A hand-built result electing ``leaders`` on ``dep``."""
    in_mis = np.zeros(dep.n, dtype=bool)
    in_mis[leaders] = True
    return MisResult(
        deployment=dep,
        params=Parameters.practical(dep.n, 2, 1, 2),
        in_mis=in_mis,
        covered=in_mis.copy(),
        slots=0,
        completed=False,
        trace=TraceRecorder(dep.n),
    )


class TestRunMis:
    @pytest.mark.parametrize("seed", range(3))
    def test_independent_and_maximal(self, seed):
        dep = random_udg(50, expected_degree=9, seed=seed, connected=True)
        res = run_mis(dep, seed=seed + 40)
        assert res.completed
        assert res.independent
        assert res.maximal

    def test_clique_one_leader(self):
        res = run_mis(clique_deployment(6), seed=3)
        assert res.completed and res.in_mis.sum() == 1

    def test_isolated_nodes_all_leaders(self):
        import networkx as nx

        from repro.graphs import from_graph

        res = run_mis(from_graph(nx.empty_graph(4)), seed=1)
        assert res.completed and res.in_mis.all()

    def test_stops_before_full_coloring(self):
        # Leader election should finish well before the full protocol
        # (it skips all the intra-cluster verification states).
        from repro.core import run_coloring

        dep = random_udg(50, expected_degree=9, seed=5, connected=True)
        mis = run_mis(dep, seed=50)
        full = run_coloring(dep, seed=50)
        assert mis.completed
        assert mis.slots < full.slots

    def test_asynchronous_wakeup(self):
        dep = ring_deployment(12)
        ws = sequential(dep.n, gap=30, seed=2)
        res = run_mis(dep, wake_slots=ws, seed=6)
        assert res.completed and res.independent and res.maximal

    def test_election_times_nonnegative(self):
        dep = random_udg(40, expected_degree=8, seed=7, connected=True)
        res = run_mis(dep, seed=70)
        times = res.election_times()
        assert (times >= 0).all()

    def test_election_times_exact_under_asynchronous_wakeup(self):
        # Cover slots come from the trace, not from the stop predicate
        # (which runs every few slots and only after the last wake-up).
        dep = ring_deployment(12)
        ws = sequential(dep.n, gap=30, seed=2)
        res = run_mis(dep, wake_slots=ws, seed=6)
        assert res.completed
        leaders = res.in_mis
        times = res.election_times()
        assert np.array_equal(times[leaders], res.trace.decision_times()[leaders])
        assert (times >= 0).all()
        # The run stops right after the slot its last node is covered in.
        last = int((times + res.trace.wake_slot).max())
        assert last == 344
        assert res.slots == last + 1
        capped = run_mis(dep, wake_slots=ws, seed=6, max_slots=100)
        assert not capped.covered.all()
        assert (capped.election_times()[~capped.covered] == -1).all()

    def test_adjacent_leaders_not_independent(self):
        res = _mis_result(path_deployment(3), [0, 1])
        assert res.independent is False
        assert res.maximal is True

    def test_uncovered_node_not_maximal(self):
        res = _mis_result(path_deployment(3), [0])
        assert res.maximal is False
        assert res.independent is True

    def test_slot_cap(self):
        dep = path_deployment(5)
        res = run_mis(dep, seed=1, max_slots=5)
        assert not res.completed

    def test_empty_rejected(self):
        import networkx as nx

        from repro.graphs import from_graph

        with pytest.raises(ValueError):
            run_mis(from_graph(nx.empty_graph(0)))

    def test_mis_size_at_most_luby_ballpark(self):
        # Both compute an MIS of the same graph: sizes are graph
        # properties within the MIS-size range, so they should be close.
        from repro.baselines import luby_mis

        dep = random_udg(60, expected_degree=10, seed=9, connected=True)
        ours = run_mis(dep, seed=90)
        luby, _ = luby_mis(dep, seed=91)
        assert ours.completed
        assert 0.4 <= ours.in_mis.sum() / max(luby.sum(), 1) <= 2.5
