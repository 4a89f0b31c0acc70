"""Tests for kappa_1 / kappa_2 and exact MIS computation."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    UDG_KAPPA1,
    UDG_KAPPA2,
    clique_deployment,
    kappa1,
    kappa2,
    kappas,
    max_independent_set_size,
    mis_greedy_size,
    quasi_udg,
    random_udg,
    ring_deployment,
    star_deployment,
)
from repro.graphs.independence import _mis_size_at_least


class TestExactMis:
    def test_empty(self):
        assert max_independent_set_size(nx.Graph()) == 0

    def test_clique(self):
        assert max_independent_set_size(nx.complete_graph(8)) == 1

    def test_independent_set(self):
        g = nx.Graph()
        g.add_nodes_from(range(6))
        assert max_independent_set_size(g) == 6

    def test_cycle(self):
        # MIS of C_n is floor(n/2).
        for n in (4, 5, 6, 7, 9):
            assert max_independent_set_size(nx.cycle_graph(n)) == n // 2

    def test_petersen(self):
        assert max_independent_set_size(nx.petersen_graph()) == 4

    def test_subset_restriction(self):
        g = nx.cycle_graph(8)
        assert max_independent_set_size(g, nodes=[0, 1, 2]) == 2

    def test_incumbent_never_lost(self):
        # The search once returned a leaf's size below a better
        # incumbent: this graph's MIS of 3 came out as 2.
        assert max_independent_set_size(nx.gnp_random_graph(8, 0.6, seed=6)) == 3

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 16), st.floats(0.05, 0.95), st.integers(0, 10**6), st.integers(0, 16))
    def test_matches_networkx_bruteforce(self, n, p, seed, floor):
        g = nx.gnp_random_graph(n, p, seed=seed)
        best = _bruteforce_mis(g, list(g.nodes))
        assert max_independent_set_size(g) == best
        # A starting incumbent (kappa's running maximum) may only ever
        # raise the result to itself.
        assert _mis_size_at_least(g, sorted(g.nodes), floor) == max(floor, best)


def _bruteforce_mis(g, nodes):
    """MIS size of the subgraph induced by ``nodes``: the largest clique
    of its complement, over every maximal clique."""
    return max(map(len, nx.find_cliques(nx.complement(g.subgraph(nodes)))), default=0)


class TestGreedyMis:
    def test_lower_bounds_exact(self):
        for seed in range(5):
            g = nx.gnp_random_graph(20, 0.3, seed=seed)
            assert mis_greedy_size(g) <= max_independent_set_size(g)

    def test_at_least_one_on_nonempty(self):
        assert mis_greedy_size(nx.complete_graph(5)) == 1


class TestKappas:
    def test_ring(self):
        dep = ring_deployment(9)
        assert kappa1(dep) == 2
        assert kappa2(dep) == 3  # N_v^2 is a path of 5 nodes -> MIS 3

    def test_clique(self):
        dep = clique_deployment(6)
        assert kappas(dep) == (1, 1)

    def test_star(self):
        dep = star_deployment(7)
        # All 7 leaves are mutually independent and within hub's 1-hop.
        assert kappa1(dep) == 7
        assert kappa2(dep) == 7

    def test_udg_model_bounds(self):
        # Sect. 2: UDGs satisfy kappa_1 <= 5, kappa_2 <= 18.
        for seed in range(4):
            dep = random_udg(80, expected_degree=10, seed=seed)
            k1, k2 = kappas(dep)
            assert k1 <= UDG_KAPPA1
            assert k2 <= UDG_KAPPA2

    def test_dense_udg_pin(self):
        # 2-hop neighborhoods of about a hundred nodes: the search finishes
        # in well under a second only if the clique-cover bound prunes.
        assert kappas(random_udg(1000, expected_degree=24, seed=1)) == (5, 13)

    def test_greedy_mode_runs(self):
        dep = random_udg(60, expected_degree=8, seed=1)
        k1g = kappa1(dep, exact=False)
        assert 1 <= k1g <= kappa1(dep, exact=True)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(3.0, 10.0),
        st.integers(0, 10**6),
        st.booleans(),
    )
    def test_match_bruteforce_per_neighborhood(self, n, degree, seed, quasi):
        if quasi:
            dep = quasi_udg(n, 1.0, 1.6, side=float(np.sqrt(n * np.pi / degree)), seed=seed)
        else:
            dep = random_udg(n, expected_degree=degree, seed=seed)
        k1 = max(_bruteforce_mis(dep.graph, dep.closed_neighborhood(v).tolist()) for v in range(n))
        k2 = max(_bruteforce_mis(dep.graph, dep.two_hop[v].tolist()) for v in range(n))
        assert kappas(dep) == (k1, k2)


class TestFig1Example:
    """Paper Fig. 1: a BIG that is not UDG-like can still have small kappas."""

    def test_hand_built_big(self):
        # A hub with 4 mutually-independent neighbors, each extended by a
        # pendant path: kappa_1 at the hub is 4.
        g = nx.Graph()
        g.add_edges_from([(0, 1), (0, 2), (0, 3), (0, 4)])
        g.add_edges_from([(1, 5), (2, 6), (3, 7), (4, 8)])
        from repro.graphs import from_graph

        dep = from_graph(g)
        assert max_independent_set_size(dep.graph, dep.closed_neighborhood(0).tolist()) == 4
        assert kappa2(dep) >= 4
