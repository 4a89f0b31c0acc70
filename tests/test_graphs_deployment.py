"""Tests for the Deployment container."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Parameters, run_coloring
from repro.analysis import verify_run
from repro.core import BernoulliColoringNode, ColoringNode
from repro.graphs import (
    Deployment,
    from_graph,
    quasi_udg,
    random_udg,
    ring_deployment,
    star_deployment,
)


def _two_hop_by_sets(dep):
    """``N_v^2`` by definition, one Python set per node: ``v``, its
    neighbors and theirs, read from the networkx graph."""
    out = []
    for v in range(dep.n):
        acc = {v, *dep.graph.neighbors(v)}
        for u in dep.graph.neighbors(v):
            acc.update(dep.graph.neighbors(u))
        out.append(sorted(acc))
    return out


class TestConstruction:
    def test_requires_zero_indexed_labels(self):
        g = nx.Graph([(1, 2)])
        with pytest.raises(ValueError, match="0..n-1"):
            Deployment(graph=g)

    def test_from_graph_relabels(self):
        g = nx.Graph([("a", "b"), ("b", "c")])
        dep = from_graph(g)
        assert set(dep.graph.nodes) == {0, 1, 2}

    def test_positions_row_mismatch_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError, match="rows"):
            Deployment(graph=g, positions=np.zeros((2, 2)))


class TestBasicFacts:
    def test_counts(self):
        dep = ring_deployment(6)
        assert dep.n == 6
        assert dep.m == 6

    def test_degree_includes_self(self):
        # Paper footnote 1: delta_v counts v itself.
        dep = ring_deployment(6)
        assert dep.degree(0) == 3
        assert dep.max_degree == 3

    def test_max_degree_empty_graph(self):
        dep = Deployment(graph=nx.Graph())
        assert dep.max_degree == 0


class TestNeighborhoods:
    def test_neighbors_sorted_open(self):
        dep = ring_deployment(5)
        assert dep.neighbors[0].tolist() == [1, 4]

    def test_closed_neighborhood_includes_self(self):
        dep = ring_deployment(5)
        assert dep.closed_neighborhood(0).tolist() == [0, 1, 4]

    def test_two_hop_on_ring(self):
        dep = ring_deployment(7)
        assert dep.two_hop[0].tolist() == [0, 1, 2, 5, 6]

    def test_two_hop_small_ring_saturates(self):
        dep = ring_deployment(4)
        assert dep.two_hop[0].tolist() == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["udg", "quasi", "ring", "star"]), st.integers(3, 70), st.integers(0, 10**6))
    def test_two_hop_matches_set_definition(self, kind, n, seed):
        if kind == "udg":
            dep = random_udg(n, expected_degree=2 + seed % 12, seed=seed)
        elif kind == "quasi":
            dep = quasi_udg(n, 1.0, 1.6, side=float(np.sqrt(n * np.pi / 6)), seed=seed)
        elif kind == "ring":
            dep = ring_deployment(n)
        else:
            dep = star_deployment(n)
        assert [h.tolist() for h in dep.two_hop] == _two_hop_by_sets(dep)
        # One read-only int64 index array, shared by every node's view.
        indptr, indices = dep.two_hop_csr
        assert indices.dtype == np.int64 and not indices.flags.writeable
        assert all(np.shares_memory(h, indices) for h in dep.two_hop)


class TestConvenience:
    def test_connectivity(self):
        assert ring_deployment(5).is_connected()
        g = nx.Graph()
        g.add_nodes_from(range(4))
        assert not Deployment(graph=g).is_connected()

    def test_describe_mentions_kind(self):
        assert "ring" in ring_deployment(5).describe()


class TestGraphFree:
    """The run path reads only the CSR arrays: with ``Deployment.graph``
    raising, a connected UDG is sampled (seed 3 resamples once, so
    ``is_connected`` runs on a disconnected draw too), parametrized with
    exact kappa, run on both routes, verified and summarized."""

    @pytest.mark.parametrize("node_cls", [BernoulliColoringNode, ColoringNode])
    def test_run_never_builds_the_graph(self, monkeypatch, node_cls):
        def no_graph(dep):
            raise AssertionError("the run path built Deployment.graph")

        monkeypatch.setattr(Deployment, "graph", property(no_graph))
        dep = random_udg(40, expected_degree=8, seed=3, connected=True)
        params = Parameters.for_deployment(dep, scale=2.0)
        result = run_coloring(dep, params, seed=7, node_cls=node_cls)
        report = verify_run(result)
        assert result.completed and report.ok, report.describe()
        summary = result.summary()
        assert summary["n"] == 40 and summary["completed"] and summary["proper"]
        assert "connected=True" in dep.describe()
