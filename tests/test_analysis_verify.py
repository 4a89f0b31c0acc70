"""Tests for run verification (Theorem 2 temporal independence etc.)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_coloring
from repro.analysis import (
    check_completeness,
    check_independence_over_time,
    check_leader_set,
    check_proper_coloring,
    verify_run,
)
from repro.graphs import path_deployment, random_udg, ring_deployment
from repro.radio import TraceRecorder


class TestCheckProperColoring:
    def test_detects_violation(self):
        dep = path_deployment(3)
        assert check_proper_coloring(dep, np.array([1, 1, 0])) == [(0, 1, 1)]

    def test_ignores_undecided(self):
        dep = path_deployment(3)
        assert check_proper_coloring(dep, np.array([-1, -1, 0])) == []

    def test_clean(self):
        dep = path_deployment(3)
        assert check_proper_coloring(dep, np.array([0, 1, 0])) == []


class TestCompleteness:
    def test_reports_undecided(self):
        assert check_completeness(np.array([0, -1, 2, -1])) == [1, 3]

    def test_complete(self):
        assert check_completeness(np.array([0, 1])) == []


class TestTemporalIndependence:
    def make_trace(self, events):
        tr = TraceRecorder(4, level=1)
        for slot, node, color in events:
            tr.decide(slot, node, color)
        return tr

    def test_clean_sequence(self):
        dep = path_deployment(3)
        tr = self.make_trace([(1, 0, 0), (5, 1, 1), (9, 2, 0)])
        assert check_independence_over_time(dep, tr) == []

    def test_detects_adjacent_same_color(self):
        dep = path_deployment(3)
        tr = self.make_trace([(1, 0, 0), (5, 1, 0)])
        assert check_independence_over_time(dep, tr) == [(5, 1, 0, 0)]

    def test_same_slot_violation_counted(self):
        dep = path_deployment(2)
        tr = self.make_trace([(3, 0, 2), (3, 1, 2)])
        assert len(check_independence_over_time(dep, tr)) == 1

    def test_nonadjacent_same_color_fine(self):
        dep = path_deployment(3)
        tr = self.make_trace([(1, 0, 1), (2, 2, 1)])
        assert check_independence_over_time(dep, tr) == []


    def test_level0_run_is_checked(self):
        """``trace_level=0`` records no decide events, so the check reads
        the always-on decide arrays: a planted adjacent same-color pair is
        reported, stamped at the later of the two decisions."""
        dep = random_udg(30, expected_degree=6, seed=5, connected=True)
        res = run_coloring(dep, seed=3, trace_level=0)
        tr = res.trace
        assert tr.events == []
        assert verify_run(res).temporal_violations == []
        u, v = min(dep.graph.edges, key=lambda e: tr.decide_slot[e[0]] - tr.decide_slot[e[1]])
        assert tr.decide_slot[u] < tr.decide_slot[v]
        tr.decide_color[v] = tr.decide_color[u]
        report = verify_run(res)
        assert report.temporal_violations == [
            (int(tr.decide_slot[v]), v, u, int(tr.decide_color[u]))
        ]
        assert "1 temporal violations" in report.describe()


class TestLeaderSet:
    def test_adjacent_leaders_flagged(self):
        dep = path_deployment(2)
        assert check_leader_set(dep, np.array([0, 0]))

    def test_nonmaximal_flagged(self):
        dep = path_deployment(3)
        problems = check_leader_set(dep, np.array([0, 5, 7]))
        assert any("no leader neighbor" in p for p in problems)

    def test_maximality_is_coverage(self):
        """Every node not in the leader set needs a leader neighbor,
        undecided ones included (MIS coverage)."""
        dep = path_deployment(3)
        assert check_leader_set(dep, np.array([0, -1, -1])) == [
            "non-leader 2 has no leader neighbor"
        ]

    def test_maximality_optional(self):
        dep = path_deployment(3)
        assert (
            check_leader_set(dep, np.array([0, 5, 7]), require_maximal=False) == []
        )

    def test_good_leader_set(self):
        dep = ring_deployment(4)
        assert check_leader_set(dep, np.array([0, 1, 0, 1])) == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 25),
    degree=st.floats(1.5, 8.0),
    seed=st.integers(0, 10**6),
    top=st.integers(0, 3),
)
def test_array_checks_match_edge_walk(n, degree, seed, top):
    """The array checks over ``dep.csr`` equal a plain walk over the
    networkx edges, each edge as ``u < v`` in ascending order, on random
    deployments and colorings (undecided nodes included)."""
    dep = random_udg(n, expected_degree=degree, seed=seed)
    colors = np.random.default_rng(seed).integers(-1, top + 1, size=n)
    pairs = sorted((min(u, v), max(u, v)) for u, v in dep.graph.edges)
    assert check_proper_coloring(dep, colors) == [
        (u, v, int(colors[u]))
        for u, v in pairs
        if colors[u] >= 0 and colors[u] == colors[v]
    ]
    adjacent = [
        f"adjacent leaders {u} and {v}" for u, v in pairs if colors[u] == colors[v] == 0
    ]
    uncovered = [
        f"non-leader {v} has no leader neighbor"
        for v in range(n)
        if colors[v] != 0 and not any(colors[u] == 0 for u in dep.neighbors[v])
    ]
    assert check_leader_set(dep, colors, require_maximal=False) == adjacent
    assert check_leader_set(dep, colors) == adjacent + uncovered


class TestVerifyRun:
    def test_successful_run_verifies(self):
        dep = random_udg(40, expected_degree=8, seed=2, connected=True)
        res = run_coloring(dep, seed=43)
        report = verify_run(res)
        assert report.ok, report.describe()
        assert "OK" in report.describe()

    def test_level0_planted_pairs_reported_in_edge_order(self):
        """At ``trace_level=0`` the coloring and leader checks read the
        result's arrays: a planted adjacent same-color pair and a planted
        adjacent leader pair are reported exactly as a walk over every
        edge finds them, ``u < v``, in ascending ``(u, v)`` order."""
        dep = random_udg(30, expected_degree=6, seed=5, connected=True)
        res = run_coloring(dep, seed=3, trace_level=0)
        assert res.trace.events == [] and verify_run(res).ok and res.proper
        colors = res.colors
        a, b = next(
            (u, v) for u, v in dep.graph.edges if colors[u] > 0 and colors[v] > 0
        )
        colors[b] = colors[a]
        leader = int(np.flatnonzero(colors == 0)[0])
        w = next(int(x) for x in dep.neighbors[leader] if x not in (a, b))
        colors[w] = 0
        pairs = sorted((min(u, v), max(u, v)) for u, v in dep.graph.edges)
        same = [(u, v, int(colors[u])) for u, v in pairs if colors[u] == colors[v]]
        assert (min(a, b), max(a, b), int(colors[a])) in same
        assert (min(leader, w), max(leader, w), 0) in same
        report = verify_run(res)
        assert not res.proper
        assert report.proper_violations == same
        assert report.leader_problems == [
            f"adjacent leaders {u} and {v}" for u, v, c in same if c == 0
        ]
        assert "leader-structure problems" in report.describe()

    def test_capped_run_reports_undecided(self):
        dep = random_udg(30, expected_degree=7, seed=2, connected=True)
        res = run_coloring(dep, seed=42, max_slots=50)
        report = verify_run(res)
        assert not report.ok
        assert report.undecided
        assert "undecided" in report.describe()
        assert any("slot cap" in n for n in report.notes)
