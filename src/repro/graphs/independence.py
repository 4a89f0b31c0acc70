"""Independence numbers of local neighborhoods: ``kappa_1`` and ``kappa_2``.

Sect. 2 defines a BIG by two measures: ``kappa_1`` (``kappa_2``) is the
size of the largest independent set inside the 1-hop (2-hop) neighborhood
of any node.  The harness needs these exactly — they parameterize the
algorithm (sending probabilities ``1/(kappa_2 * Delta)``, color spacing
``kappa_2 + 1``) and the E5 bench checks the model bounds
(``kappa_1 <= 5`` / ``kappa_2 <= 18`` on UDGs, ``kappa_2 <= 4^rho`` on
UBGs).

Exact maximum-independent-set is NP-hard in general, but local
neighborhoods of wireless graphs are dense, so their MIS is tiny and a
bitset branch-and-bound terminates almost immediately: we encode each
induced subgraph into Python-int bitmasks and recurse with a popcount
upper bound.  A greedy min-degree heuristic provides both the initial
lower bound and a cheap standalone estimator.  ``kappa_1``/``kappa_2``
run one search per neighborhood with the running maximum as the
incumbent, so most neighborhoods are pruned at once.
"""

from __future__ import annotations

from collections.abc import Iterable

import networkx as nx
import numpy as np

from repro.graphs.deployment import Deployment

__all__ = [
    "UDG_KAPPA1",
    "UDG_KAPPA2",
    "kappa1",
    "kappa2",
    "kappas",
    "max_independent_set_size",
    "mis_greedy_size",
]

#: Model constants for unit disk graphs quoted in Sect. 2 of the paper.
UDG_KAPPA1 = 5
UDG_KAPPA2 = 18


def _bit_adjacency(graph: nx.Graph, nodes: list[int]) -> list[int]:
    """Adjacency bitmasks of the subgraph induced by ``nodes``."""
    index = {v: i for i, v in enumerate(nodes)}
    masks = [0] * len(nodes)
    for v in nodes:
        i = index[v]
        m = 0
        for u in graph.neighbors(v):
            j = index.get(u)
            if j is not None:
                m |= 1 << j
        masks[i] = m
    return masks


def _greedy_mis_mask(masks: list[int], candidates: int) -> int:
    """Greedy MIS (min residual degree first) over a candidate bitmask;
    returns the chosen set as a bitmask."""
    chosen = 0
    cand = candidates
    while cand:
        best_v, best_deg = -1, None
        c = cand
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            deg = (masks[v] & cand).bit_count()
            if best_deg is None or deg < best_deg:
                best_v, best_deg = v, deg
        chosen |= 1 << best_v
        cand &= ~(masks[best_v] | (1 << best_v))
    return chosen


def _mis_size_bb(masks: list[int], candidates: int, best: int, size: int) -> int:
    """Branch-and-bound MIS size.  ``size`` is the partial-solution size,
    ``best`` the incumbent; prunes when even taking every candidate cannot
    beat the incumbent."""
    if candidates == 0:
        return max(best, size)
    if size + candidates.bit_count() <= best:
        return best
    # Pivot on the max-degree candidate: either it is excluded, or it is in
    # the MIS and its whole closed neighborhood leaves the candidate set.
    c = candidates
    pivot, pivot_deg = -1, -1
    while c:
        low = c & -c
        v = low.bit_length() - 1
        c ^= low
        deg = (masks[v] & candidates).bit_count()
        if deg > pivot_deg:
            pivot, pivot_deg = v, deg
    if pivot_deg == 0:
        # Remaining candidates are mutually independent: take them all.
        return max(best, size + candidates.bit_count())
    bit = 1 << pivot
    # Include the pivot first (tends to find good incumbents early).
    best = _mis_size_bb(masks, candidates & ~(masks[pivot] | bit), best, size + 1)
    best = _mis_size_bb(masks, candidates & ~bit, best, size)
    return best


def max_independent_set_size(graph: nx.Graph, nodes: list[int] | None = None) -> int:
    """Exact size of a maximum independent set of ``graph`` (or of the
    subgraph induced by ``nodes``).

    Intended for *local neighborhoods*: dense subgraphs with small MIS.
    On such inputs the branch-and-bound explores only a handful of nodes;
    on large sparse graphs it may take exponential time — use
    :func:`mis_greedy_size` there.
    """
    node_list = sorted(graph.nodes) if nodes is None else sorted(set(nodes))
    if not node_list:
        return 0
    return _mis_size_at_least(graph, node_list, 0)


def _mis_size_at_least(graph: nx.Graph, nodes: list[int], floor: int) -> int:
    """``max(floor, MIS size of the subgraph induced by nodes)``: the
    branch-and-bound starts from the better of ``floor`` and the greedy
    set, so it only searches for sets larger than both."""
    masks = _bit_adjacency(graph, nodes)
    all_mask = (1 << len(nodes)) - 1
    incumbent = max(floor, _greedy_mis_mask(masks, all_mask).bit_count())
    return _mis_size_bb(masks, all_mask, incumbent, 0)


def mis_greedy_size(graph: nx.Graph, nodes: list[int] | None = None) -> int:
    """Greedy (min-degree) independent-set size — a lower bound on the MIS,
    cheap enough for whole-graph use."""
    node_list = sorted(graph.nodes) if nodes is None else sorted(set(nodes))
    if not node_list:
        return 0
    masks = _bit_adjacency(graph, node_list)
    return _greedy_mis_mask(masks, (1 << len(node_list)) - 1).bit_count()


def _max_mis(dep: Deployment, hoods: Iterable[np.ndarray], exact: bool) -> int:
    """Max MIS size over the (sorted) neighborhoods ``hoods``.  The running
    maximum is the exact search's incumbent, and a neighborhood with no
    more nodes than it cannot raise it, so it is skipped."""
    best = 0
    for hood in hoods:
        if len(hood) <= best:
            continue
        nodes = hood.tolist()
        if exact:
            best = _mis_size_at_least(dep.graph, nodes, best)
        else:
            best = max(best, mis_greedy_size(dep.graph, nodes))
    return best


def kappa1(dep: Deployment, *, exact: bool = True) -> int:
    """``kappa_1``: max MIS size over all closed 1-hop neighborhoods."""
    return _max_mis(dep, (dep.closed_neighborhood(v) for v in range(dep.n)), exact)


def kappa2(dep: Deployment, *, exact: bool = True) -> int:
    """``kappa_2``: max MIS size over all 2-hop neighborhoods ``N_v^2``."""
    return _max_mis(dep, dep.two_hop, exact)


def kappas(dep: Deployment, *, exact: bool = True) -> tuple[int, int]:
    """``(kappa_1, kappa_2)`` in one call."""
    return kappa1(dep, exact=exact), kappa2(dep, exact=exact)
