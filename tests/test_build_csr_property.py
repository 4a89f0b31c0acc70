"""Property tests for the deployment's CSR adjacency.

:attr:`repro.graphs.deployment.Deployment.csr` is the load-bearing data
structure of the engine and of verification: every PHY bind and every
edge check indexes through ``(indptr, indices)``.  Hypothesis generates
arbitrary deployments — empty, single-node, isolated nodes, dense
cliques — and checks the CSR invariants and the exact round-trip back
to per-node neighbor lists.

The k-d-tree generators (:func:`~repro.graphs.udg.udg_from_points`,
:func:`~repro.graphs.torus.torus_udg`) build the CSR straight from the
tree's pair array and the networkx graph only on first access; over
Hypothesis point sets (no points, one point, coincident points,
isolated nodes, connected or not) every array-derived fact must equal
what networkx computes from that lazily built graph, and the graph's
edge order must be the one of the tree's pair *set* inserted into a
fresh graph, which edge-order-dependent draws (``quasi_udg``) follow.
"""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.graphs import from_graph, torus_udg
from repro.graphs.deployment import csr_from_pairs
from repro.graphs.udg import udg_from_points


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


# ----------------------------------------------------------------------
# The k-d-tree array build against the lazily built networkx graph
# ----------------------------------------------------------------------

SIDE = 6.0
#: Integer coordinates make coincident points and exact-radius pairs
#: common; floats cover the general case.  Both stay inside the torus box.
_coord = st.one_of(
    st.integers(0, int(SIDE) - 1).map(float),
    st.floats(0.0, SIDE, exclude_max=True, allow_nan=False),
)
_points = st.integers(0, 24).flatmap(
    lambda n: st.lists(st.tuples(_coord, _coord), min_size=n, max_size=n)
).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2))
_radius = st.sampled_from([0.5, 1.0, 1.5, 2.5])


def _array_facts(dep):
    """Everything the run path reads, taken before ``.graph`` exists."""
    assert dep._graph is None
    indptr, indices = dep.csr
    return {
        "rows": [indices[indptr[v] : indptr[v + 1]].tolist() for v in range(dep.n)],
        "neighbors": [a.tolist() for a in dep.neighbors],
        "m": dep.m,
        "max_degree": dep.max_degree,
        "degrees": [dep.degree(v) for v in range(dep.n)],
        "connected": dep.is_connected(),
        "read_only": not (indptr.flags.writeable or indices.flags.writeable),
        "dtypes": (indptr.dtype, indices.dtype),
    }


def _graph_facts(g):
    n = g.number_of_nodes()
    rows = [sorted(g.neighbors(v)) for v in range(n)]
    return {
        "rows": rows,
        "neighbors": rows,
        "m": g.number_of_edges(),
        "max_degree": 1 + max(d for _, d in g.degree) if n else 0,
        "degrees": [g.degree[v] + 1 for v in range(n)],
        "connected": n == 0 or nx.is_connected(g),
        "read_only": True,
        "dtypes": (np.dtype(np.int64), np.dtype(np.int64)),
    }


def _pair_set_graph(pts, radius, boxsize=None):
    """The graph as the generators built it before the array build: the
    k-d tree's pair set inserted into a fresh graph over ``range(n)``."""
    g = nx.Graph()
    g.add_nodes_from(range(len(pts)))
    if len(pts) > 1:
        g.add_edges_from(cKDTree(pts, boxsize=boxsize).query_pairs(r=radius))
    return g


def _check(dep, pts, radius, boxsize=None):
    facts = _array_facts(dep)
    assert facts == _graph_facts(dep.graph)
    assert list(dep.graph.nodes) == list(range(len(pts)))
    assert list(dep.graph.edges) == list(_pair_set_graph(pts, radius, boxsize).edges)


class _FixedPoints:
    """Stands in for the torus generator's RNG: its one ``uniform`` draw
    returns the given points."""

    def __init__(self, pts):
        self.pts = pts

    def uniform(self, low, high, size):
        assert size == self.pts.shape
        return self.pts


@given(_points, _radius)
@example(np.empty((0, 2)), 1.0)
@example(np.array([[1.0, 1.0]]), 1.0)
@example(np.array([[2.0, 2.0]] * 4 + [[5.0, 5.0]]), 1.0)
@settings(max_examples=80, deadline=None)
def test_udg_arrays_match_lazy_graph(pts, radius):
    _check(udg_from_points(pts, radius), pts, radius)


@given(_points, _radius)
@example(np.empty((0, 2)), 1.0)
@example(np.array([[0.5, 0.5]]), 1.0)
@example(np.array([[0.0, 0.0], [5.9, 5.9], [0.0, 0.0], [3.0, 3.0]]), 1.0)
@settings(max_examples=80, deadline=None)
def test_torus_arrays_match_lazy_graph(pts, radius):
    with mock.patch("repro.graphs.torus.spawn_generator", lambda seed: _FixedPoints(pts)):
        dep = torus_udg(len(pts), radius, side=SIDE)
    _check(dep, pts, radius, boxsize=SIDE)


@pytest.mark.parametrize(
    "pairs, n, match",
    [
        ([[0, 0]], 2, "self-loops"),
        ([[0, 2]], 2, "0..1"),
        ([[-1, 1]], 2, "0..1"),
        ([[0, 1], [1, 0]], 2, "twice"),
    ],
)
def test_bad_pairs_rejected(pairs, n, match):
    with pytest.raises(ValueError, match=match):
        csr_from_pairs(np.array(pairs), n)
