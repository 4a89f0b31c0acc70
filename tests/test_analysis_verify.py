"""Tests for run verification (Theorem 2 temporal independence etc.)."""

import numpy as np

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

    def test_maximality_optional(self):
        dep = path_deployment(3)
        assert (
            check_leader_set(dep, np.array([0, 5, 7]), require_maximal=False) == []
        )

    def test_good_leader_set(self):
        dep = ring_deployment(4)
        assert check_leader_set(dep, np.array([0, 1, 0, 1])) == []


class TestVerifyRun:
    def test_successful_run_verifies(self):
        dep = random_udg(40, expected_degree=8, seed=2, connected=True)
        res = run_coloring(dep, seed=43)
        report = verify_run(res)
        assert report.ok, report.describe()
        assert "OK" in report.describe()

    def test_capped_run_reports_undecided(self):
        dep = random_udg(30, expected_degree=7, seed=2, connected=True)
        res = run_coloring(dep, seed=42, max_slots=50)
        report = verify_run(res)
        assert not report.ok
        assert report.undecided
        assert "undecided" in report.describe()
        assert any("slot cap" in n for n in report.notes)
