"""Independence numbers of local neighborhoods: ``kappa_1`` and ``kappa_2``.

Sect. 2 defines a BIG by two measures: ``kappa_1`` (``kappa_2``) is the
size of the largest independent set inside the 1-hop (2-hop) neighborhood
of any node.  The harness needs these exactly — they parameterize the
algorithm (sending probabilities ``1/(kappa_2 * Delta)``, color spacing
``kappa_2 + 1``) and the E5 bench checks the model bounds
(``kappa_1 <= 5`` / ``kappa_2 <= 18`` on UDGs, ``kappa_2 <= 4^rho`` on
UBGs).

Exact maximum-independent-set is NP-hard in general, but local
neighborhoods of wireless graphs are dense, so their MIS is tiny.  Each
neighborhood's induced subgraph is encoded as Python-int bitmasks, read
from the deployment's CSR rows (:attr:`Deployment.csr
<repro.graphs.deployment.Deployment.csr>`, and :attr:`~repro.graphs.
deployment.Deployment.two_hop_csr` for the 2-hop neighborhoods), and a
branch-and-bound searches it with the greedy clique-cover bound — the
coloring bound of the MCQ/BBMC maximum-clique searches, applied to the
complement: an independent set meets each clique at most once, so a
candidate set split into ``k`` cliques can add at most ``k`` nodes.
``kappa_1``/``kappa_2`` run one search per neighborhood with the running
maximum as the only incumbent, so most neighborhoods are pruned at their
root; ``kappas`` starts ``kappa_2``'s running maximum at ``kappa_1``
(``N_v`` is inside ``N_v^2``, so ``kappa_2 >= kappa_1``).  A greedy
min-degree heuristic is the cheap standalone estimator
(:func:`mis_greedy_size`, ``exact=False``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

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


def _bit_adjacency(
    rows: Mapping[int, Iterable[int]] | Sequence[Iterable[int]], nodes: list[int]
) -> list[int]:
    """Adjacency bitmasks of the subgraph induced by ``nodes``: bit ``j``
    of entry ``i`` is set when ``nodes[j]`` is in ``rows[nodes[i]]`` (a
    node's neighbors, from CSR rows or a networkx adjacency)."""
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    get = bit.get
    masks = []
    for v in nodes:
        m = 0
        for u in rows[v]:
            m |= get(u, 0)
        masks.append(m)
    return masks


def _csr_rows(csr: tuple[np.ndarray, np.ndarray]) -> list[list[int]]:
    """The rows of a CSR ``(indptr, indices)`` pair as Python lists."""
    indptr, indices = csr
    ptr, ids = indptr.tolist(), indices.tolist()
    return [ids[a:b] for a, b in zip(ptr, ptr[1:])]


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
    """Branch-and-bound MIS size: ``max(best, size + MIS of candidates)``.

    ``size`` is the partial solution's size and ``best`` the incumbent.
    The candidates are split into cliques of the graph, greedily: the
    lowest remaining candidate opens clique ``k`` and the next lowest
    candidate adjacent to every member so far joins it.  An independent
    set takes at most one node per clique, so a node of clique ``k``
    together with every node before it can add at most ``k``.  The
    search branches from the last node back: it stops once
    ``size + k <= best``, otherwise takes the node (recursing on the
    candidates outside its closed neighborhood) and then drops it.
    """
    order: list[tuple[int, int]] = []
    rest = candidates
    k = 0
    while rest:
        k += 1
        clique = rest
        while clique:
            low = clique & -clique
            rest ^= low
            clique &= masks[low.bit_length() - 1]
            if size + k > best:
                order.append((low, k))
    for low, k in reversed(order):
        if size + k <= best:
            break
        sub = candidates & ~(masks[low.bit_length() - 1] | low)
        if sub:
            best = _mis_size_bb(masks, sub, best, size + 1)
        elif size >= best:
            best = size + 1
        candidates ^= low
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
    return _mis_size_at_least(graph, node_list, 0)


def _mis_size_at_least(graph: nx.Graph, nodes: list[int], floor: int) -> int:
    """``max(floor, MIS size of the subgraph induced by nodes)``: the
    branch-and-bound starts from ``floor`` as its incumbent, so it only
    searches for sets larger than it."""
    masks = _bit_adjacency(graph.adj, nodes)
    return _mis_size_bb(masks, (1 << len(nodes)) - 1, floor, 0)


def mis_greedy_size(graph: nx.Graph, nodes: list[int] | None = None) -> int:
    """Greedy (min-degree) independent-set size — a lower bound on the MIS,
    cheap enough for whole-graph use."""
    node_list = sorted(graph.nodes) if nodes is None else sorted(set(nodes))
    masks = _bit_adjacency(graph.adj, node_list)
    return _greedy_mis_mask(masks, (1 << len(node_list)) - 1).bit_count()


def _max_mis(rows: list[list[int]], hoods: Iterable[list[int]], exact: bool, best: int = 0) -> int:
    """``max(best, max MIS size over the neighborhoods hoods)``, with
    ``rows`` each node's neighbors.  The running maximum is the exact
    search's incumbent, and a neighborhood with no more nodes than it
    cannot raise it, so it is skipped."""
    for hood in hoods:
        if len(hood) <= best:
            continue
        masks = _bit_adjacency(rows, hood)
        candidates = (1 << len(hood)) - 1
        if exact:
            best = _mis_size_bb(masks, candidates, best, 0)
        else:
            best = max(best, _greedy_mis_mask(masks, candidates).bit_count())
    return best


def _kappa1(rows: list[list[int]], exact: bool) -> int:
    return _max_mis(rows, (sorted([v, *nbrs]) for v, nbrs in enumerate(rows)), exact)


def kappa1(dep: Deployment, *, exact: bool = True) -> int:
    """``kappa_1``: max MIS size over all closed 1-hop neighborhoods."""
    return _kappa1(_csr_rows(dep.csr), exact)


def kappa2(dep: Deployment, *, exact: bool = True) -> int:
    """``kappa_2``: max MIS size over all 2-hop neighborhoods ``N_v^2``."""
    return _max_mis(_csr_rows(dep.csr), _csr_rows(dep.two_hop_csr), exact)


def kappas(dep: Deployment, *, exact: bool = True) -> tuple[int, int]:
    """``(kappa_1, kappa_2)`` in one call.  ``kappa_2``'s running maximum
    starts at ``kappa_1``, since ``N_v`` is inside ``N_v^2``."""
    rows = _csr_rows(dep.csr)
    k1 = _kappa1(rows, exact)
    return k1, _max_mis(rows, _csr_rows(dep.two_hop_csr), exact, k1)
