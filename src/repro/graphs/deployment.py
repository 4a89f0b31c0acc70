"""The :class:`Deployment` container consumed by the simulator and harness.

A deployment is a static network snapshot over nodes ``0..n-1``: its
adjacency, optional planar/metric positions, and a ``kind`` tag recording
which generator produced it.  The adjacency is held as CSR arrays
``(indptr, indices)`` — node ``v``'s neighbors, ascending, are
``indices[indptr[v]:indptr[v+1]]`` — and every fact the simulator,
parameter layer and verifier read (``n``, ``m``, degrees, neighbor rows,
2-hop rows, connectivity) comes from them, so a run never touches
networkx; per the HPC guides, the per-slot path works on plain ``numpy``
arrays.  The networkx graph is a view, built on first access of
:attr:`Deployment.graph` (the generators that post-process a UDG, E8,
TDMA and the BFS/greedy wake schedules read it).
"""

from __future__ import annotations

from itertools import chain
from typing import Any

import networkx as nx
import numpy as np
from scipy import sparse

__all__ = ["Deployment", "csr_from_pairs"]


def csr_from_pairs(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the undirected graph on ``0..n-1``
    whose edges are the rows of the ``(m, 2)`` array ``pairs``: row
    ``v``'s entries, ``indices[indptr[v]:indptr[v+1]]``, are ``v``'s
    neighbors in ascending order.  Both arrays are int64 and read-only.

    One int64 key sort over both directions of every pair orders the
    rows, and a ``bincount`` of the sources gives their lengths.  Raises
    ``ValueError`` on a self-loop (a node would jam its own receptions
    and count twice in its degree — meaningless under the radio model),
    an endpoint outside ``0..n-1``, or a pair given twice.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    if np.any(u == v):
        raise ValueError("Deployment graphs must not contain self-loops")
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    src = np.concatenate((u, v))
    keys = src * n + np.concatenate((v, u))
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("an edge is listed twice")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = keys % n if n else keys
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _rows(indptr: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
    """Per-row views into ``indices``."""
    ptr = indptr.tolist()
    return [indices[a:b] for a, b in zip(ptr, ptr[1:])]


class Deployment:
    """A static radio-network topology.

    Parameters
    ----------
    graph:
        Undirected :class:`networkx.Graph` whose nodes are exactly
        ``0..n-1``.  Edges are communication links (Sect. 2: ``u`` and
        ``v`` can communicate iff ``(u, v) in E``).  Its edges become the
        deployment's CSR arrays; :meth:`from_pairs` builds a deployment
        from an edge-pair array without a graph.
    positions:
        Optional ``(n, d)`` array of node coordinates (UDG/UBG geometry).
    kind:
        Generator tag, e.g. ``"udg"``, ``"quasi_udg"``; purely descriptive.
    meta:
        Free-form generator parameters (radius, area side, ...).
    """

    def __init__(
        self,
        graph: nx.Graph,
        positions: np.ndarray | None = None,
        kind: str = "graph",
        meta: dict[str, Any] | None = None,
    ) -> None:
        n = graph.number_of_nodes()
        if set(graph.nodes) != set(range(n)):
            raise ValueError(
                "Deployment graphs must be labeled 0..n-1; relabel with "
                "networkx.convert_node_labels_to_integers first"
            )
        edges = np.fromiter(
            chain.from_iterable(graph.edges),
            dtype=np.int64,
            count=2 * graph.number_of_edges(),
        )
        self._init(n, edges, positions, kind, meta)
        self._graph: nx.Graph | None = graph
        self._pairs: np.ndarray | None = None

    @classmethod
    def from_pairs(
        cls,
        n: int,
        pairs: np.ndarray,
        positions: np.ndarray | None = None,
        kind: str = "graph",
        meta: dict[str, Any] | None = None,
    ) -> Deployment:
        """The deployment on ``0..n-1`` whose edges are the rows of the
        ``(m, 2)`` array ``pairs`` (each unordered pair once), built
        without networkx.

        :attr:`graph` is then built on first access by inserting the
        pairs as a Python *set* of ``(u, v)`` tuples, in that set's
        iteration order, into a fresh :class:`networkx.Graph` over
        ``range(n)``.  For ``cKDTree.query_pairs(output_type="ndarray")``
        that set is the one ``query_pairs`` returns by default, so the
        graph's ``edges`` order — which the gray-zone sampling of
        :func:`~repro.graphs.big.quasi_udg` and other edge-order-dependent
        draws follow — is the one the k-d tree's pair set gives.
        """
        dep = cls.__new__(cls)
        dep._init(n, pairs, positions, kind, meta)
        dep._graph = None
        dep._pairs = pairs
        return dep

    def _init(
        self,
        n: int,
        pairs: np.ndarray,
        positions: np.ndarray | None,
        kind: str,
        meta: dict[str, Any] | None,
    ) -> None:
        self._n = n
        self._csr = csr_from_pairs(pairs, n)
        if positions is not None:
            positions = np.asarray(positions, dtype=float)
            if positions.shape[0] != n:
                raise ValueError(f"positions has {positions.shape[0]} rows for {n} nodes")
        self.positions = positions
        self.kind = kind
        self.meta: dict[str, Any] = {} if meta is None else meta
        # Caches built lazily from the CSR arrays.
        self._neighbors: list[np.ndarray] | None = None
        self._two_hop: list[np.ndarray] | None = None
        self._two_hop_csr: tuple[np.ndarray, np.ndarray] | None = None

    def __repr__(self) -> str:
        return f"Deployment(kind={self.kind!r}, n={self.n}, m={self.m})"

    @property
    def graph(self) -> nx.Graph:
        """The topology as a :class:`networkx.Graph`, built on first
        access for a deployment made by :meth:`from_pairs` (see there for
        its edge order) and cached.  Nothing on the run path reads it;
        mutating it does not change the deployment's CSR arrays."""
        if self._graph is None:
            g = nx.Graph()
            g.add_nodes_from(range(self._n))
            g.add_edges_from(set(map(tuple, np.asarray(self._pairs).tolist())))
            self._graph, self._pairs = g, None
        return self._graph

    # ------------------------------------------------------------------
    # Basic facts
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._csr[1]) // 2

    @property
    def max_degree(self) -> int:
        """Paper's ``Delta``: max over nodes of ``|N_v|`` *including v itself*
        (footnote 1 of the paper: "the degree of a node also includes the
        node itself")."""
        if self._n == 0:
            return 0
        return 1 + int(np.diff(self._csr[0]).max())

    def degree(self, v: int) -> int:
        """``delta_v = |N_v|`` including ``v`` itself."""
        indptr = self._csr[0]
        return int(indptr[v + 1] - indptr[v]) + 1

    # ------------------------------------------------------------------
    # Adjacency for the simulator
    # ------------------------------------------------------------------
    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor adjacency as CSR-style ``(indptr, indices)`` arrays:
        node ``v``'s neighbors are ``indices[indptr[v]:indptr[v+1]]``,
        ascending.

        The deployment's one primary adjacency, built with it.  Every PHY
        bind — and, in particular, every simulator of a seed sweep over
        one shared deployment — shares this one structure.  Both arrays
        are read-only.
        """
        return self._csr

    @property
    def neighbors(self) -> list[np.ndarray]:
        """Per-node sorted neighbor arrays (excluding the node itself),
        cached: read-only views into :attr:`csr`'s ``indices``."""
        if self._neighbors is None:
            self._neighbors = _rows(*self._csr)
        return self._neighbors

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once, as arrays ``u < v`` in ascending ``(u, v)``
        order (the CSR rows are sorted)."""
        indptr, indices = self._csr
        first = np.repeat(np.arange(self._n), np.diff(indptr))
        once = first < indices
        return first[once], indices[once]

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """``N_v`` — neighbors plus ``v`` itself, sorted."""
        return np.sort(np.append(self.neighbors[v], v))

    @property
    def two_hop_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2-hop closed neighborhoods ``N_v^2`` (distance <= 2,
        including ``v``) as CSR-style ``(indptr, indices)`` arrays, cached:
        row ``v`` is ``N_v^2`` in ascending order.

        Built from one sparse product, the pattern of ``(A + I)^2`` over
        :attr:`csr`.  Both arrays are read-only: :attr:`two_hop` hands out
        views into ``indices``.
        """
        if self._two_hop_csr is None:
            n = self.n
            indptr, indices = self.csr
            closed = sparse.csr_matrix(
                (np.ones(len(indices), dtype=bool), indices, indptr), shape=(n, n)
            ) + sparse.identity(n, dtype=bool, format="csr")
            reach = closed @ closed
            reach.sort_indices()
            ptr = reach.indptr.astype(np.int64)
            ids = reach.indices.astype(np.int64)
            ptr.flags.writeable = ids.flags.writeable = False
            self._two_hop_csr = ptr, ids
        return self._two_hop_csr

    @property
    def two_hop(self) -> list[np.ndarray]:
        """Per-node 2-hop closed neighborhoods ``N_v^2`` (distance <= 2,
        including ``v``), sorted, cached: read-only views into
        :attr:`two_hop_csr`'s ``indices``."""
        if self._two_hop is None:
            self._two_hop = _rows(*self.two_hop_csr)
        return self._two_hop

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the communication graph is connected (empty graphs are
        vacuously connected): a breadth-first search from node 0 over
        :attr:`csr`, one frontier per step."""
        n = self._n
        if n == 0:
            return True
        indptr, indices = self._csr
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        reached = 1
        while frontier.size:
            start = indptr[frontier]
            degree = indptr[frontier + 1] - start
            # The positions of the frontier's rows in ``indices``: a
            # running count, shifted per row onto the row's start.
            shift = start - (degree.cumsum() - degree)
            nbrs = indices[np.arange(degree.sum()) + shift.repeat(degree)]
            frontier = np.unique(nbrs[~seen[nbrs]])
            seen[frontier] = True
            reached += frontier.size
        return reached == n

    def subgraph_view(self, nodes: list[int]) -> nx.Graph:
        """Read-only induced subgraph of :attr:`graph`."""
        return self.graph.subgraph(nodes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.kind}(n={self.n}, m={self.m}, "
            f"Delta={self.max_degree}, connected={self.is_connected()})"
        )
