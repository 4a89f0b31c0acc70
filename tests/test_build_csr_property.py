"""Property tests for the deployment's CSR adjacency.

:attr:`repro.graphs.deployment.Deployment.csr` is the load-bearing data
structure of the engine and of verification: every PHY bind and every
edge check indexes through ``(indptr, indices)``.  Hypothesis generates
arbitrary deployments — empty, single-node, isolated nodes, dense
cliques — and checks the CSR invariants and the exact round-trip back
to per-node neighbor lists.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_graph


@st.composite
def deployments(draw):
    """Arbitrary undirected graphs on 0..n-1 wrapped as deployments.

    Sizes 0..12; edge sets range from empty (all nodes isolated) to the
    complete graph, so sparsity is not an implicit assumption.
    """
    n = draw(st.integers(min_value=0, max_value=12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        if all_pairs
        else st.just([])
    )
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return from_graph(g)


@given(deployments())
@settings(max_examples=60, deadline=None)
def test_csr_invariants(dep):
    indptr, indices = dep.csr
    assert indptr.dtype == np.int64
    assert indices.dtype == np.int64
    assert len(indptr) == dep.n + 1
    assert indptr[0] == 0
    assert indptr[-1] == len(indices)
    assert np.all(np.diff(indptr) >= 0)  # monotone non-decreasing
    if len(indices):
        assert indices.min() >= 0
        assert indices.max() < dep.n


@given(deployments())
@settings(max_examples=60, deadline=None)
def test_csr_round_trips_neighbor_lists(dep):
    indptr, indices = dep.csr
    for v in range(dep.n):
        sl = indices[indptr[v] : indptr[v + 1]]
        expected = sorted(dep.graph.neighbors(v))
        assert sl.tolist() == expected
        assert v not in sl  # no self-loops in the radio model
    # Total CSR size is exactly the directed edge count.
    assert len(indices) == 2 * dep.graph.number_of_edges()


def test_zero_node_deployment():
    dep = from_graph(nx.Graph())
    indptr, indices = dep.csr
    assert indptr.tolist() == [0]
    assert len(indices) == 0


def test_isolated_nodes_only():
    g = nx.Graph()
    g.add_nodes_from(range(5))
    dep = from_graph(g)
    indptr, indices = dep.csr
    assert indptr.tolist() == [0] * 6
    assert len(indices) == 0


def test_dense_clique():
    dep = from_graph(nx.complete_graph(7))
    indptr, indices = dep.csr
    assert np.all(np.diff(indptr) == 6)
    for v in range(7):
        assert sorted(indices[indptr[v] : indptr[v + 1]]) == [
            u for u in range(7) if u != v
        ]
