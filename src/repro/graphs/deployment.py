"""The :class:`Deployment` container consumed by the simulator and harness.

A deployment is a static network snapshot: an undirected graph over nodes
``0..n-1``, optional planar/metric positions, and a ``kind`` tag recording
which generator produced it.  It caches the representations the hot
simulation loop needs (per-node neighbor arrays) so that the radio engine
never touches networkx during a run — per the HPC guides, the per-slot
path works on plain ``numpy`` arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import networkx as nx
import numpy as np

__all__ = ["Deployment", "csr_arrays"]


def csr_arrays(lists: Sequence[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-node index lists into CSR-style ``(indptr, indices)``
    arrays: row ``v``'s entries are ``indices[indptr[v]:indptr[v+1]]``.

    The one source of truth for list-of-arrays -> CSR construction:
    :attr:`Deployment.csr` applies it to a deployment's neighbor arrays,
    and :mod:`repro.radio.batch` to its two-hop adjacency."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        indptr[1:] = np.cumsum([len(a) for a in lists])
    indices = (
        np.concatenate(lists) if n and indptr[-1] else np.empty(0, dtype=np.int64)
    )
    return indptr, indices.astype(np.int64, copy=False)


@dataclass
class Deployment:
    """A static radio-network topology.

    Parameters
    ----------
    graph:
        Undirected :class:`networkx.Graph` whose nodes are exactly
        ``0..n-1``.  Edges are communication links (Sect. 2: ``u`` and
        ``v`` can communicate iff ``(u, v) in E``).
    positions:
        Optional ``(n, d)`` array of node coordinates (UDG/UBG geometry).
    kind:
        Generator tag, e.g. ``"udg"``, ``"quasi_udg"``; purely descriptive.
    meta:
        Free-form generator parameters (radius, area side, ...).
    """

    graph: nx.Graph
    positions: np.ndarray | None = None
    kind: str = "graph"
    meta: dict[str, Any] = field(default_factory=dict)

    # Caches built lazily; never part of equality/repr.
    _neighbors: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _two_hop: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _csr: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = self.graph.number_of_nodes()
        if set(self.graph.nodes) != set(range(n)):
            raise ValueError(
                "Deployment graphs must be labeled 0..n-1; relabel with "
                "networkx.convert_node_labels_to_integers first"
            )
        if any(True for _ in nx.selfloop_edges(self.graph)):
            # A self-loop would make a node its own neighbor: it would jam
            # its own receptions and double-count in degree — meaningless
            # under the radio model's semantics.
            raise ValueError("Deployment graphs must not contain self-loops")
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=float)
            if self.positions.shape[0] != n:
                raise ValueError(
                    f"positions has {self.positions.shape[0]} rows for {n} nodes"
                )

    # ------------------------------------------------------------------
    # Basic facts
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.number_of_nodes()

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.graph.number_of_edges()

    @property
    def max_degree(self) -> int:
        """Paper's ``Delta``: max over nodes of ``|N_v|`` *including v itself*
        (footnote 1 of the paper: "the degree of a node also includes the
        node itself")."""
        if self.n == 0:
            return 0
        return 1 + max(d for _, d in self.graph.degree)

    def degree(self, v: int) -> int:
        """``delta_v = |N_v|`` including ``v`` itself."""
        return self.graph.degree[v] + 1

    # ------------------------------------------------------------------
    # Cached adjacency for the simulator
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> list[np.ndarray]:
        """Per-node sorted neighbor arrays (excluding the node itself)."""
        if self._neighbors is None:
            self._neighbors = [
                np.fromiter(sorted(self.graph.neighbors(v)), dtype=np.int64)
                for v in range(self.n)
            ]
        return self._neighbors

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor adjacency as CSR-style ``(indptr, indices)`` arrays,
        cached on the deployment: node ``v``'s neighbors are
        ``indices[indptr[v]:indptr[v+1]]``.

        Every PHY bind — and, in particular, every simulator of a seed
        sweep over one shared deployment — shares this one structure
        instead of re-flattening the neighbor lists per simulator.  The
        arrays are read-only for all consumers.
        """
        if self._csr is None:
            self._csr = csr_arrays(self.neighbors, self.n)
        return self._csr

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """``N_v`` — neighbors plus ``v`` itself, sorted."""
        return np.sort(np.append(self.neighbors[v], v))

    @property
    def two_hop(self) -> list[np.ndarray]:
        """Per-node 2-hop closed neighborhoods ``N_v^2`` (distance <= 2,
        including ``v``), cached."""
        if self._two_hop is None:
            out: list[np.ndarray] = []
            nbrs = self.neighbors
            for v in range(self.n):
                acc = {v, *nbrs[v].tolist()}
                for u in nbrs[v]:
                    acc.update(nbrs[u].tolist())
                out.append(np.fromiter(sorted(acc), dtype=np.int64))
            self._two_hop = out
        return self._two_hop

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the communication graph is connected (empty graphs are
        vacuously connected)."""
        return self.n == 0 or nx.is_connected(self.graph)

    def subgraph_view(self, nodes: list[int]) -> nx.Graph:
        """Read-only induced subgraph (used by independence computations)."""
        return self.graph.subgraph(nodes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.kind}(n={self.n}, m={self.m}, "
            f"Delta={self.max_degree}, connected={self.is_connected()})"
        )
