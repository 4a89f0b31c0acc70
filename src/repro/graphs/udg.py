"""Unit disk graph generators.

The UDG is the paper's canonical wireless model (Sect. 2): nodes live in
the Euclidean plane and are adjacent iff their distance is at most the
communication radius.  Corollary 2 instantiates the main theorem on UDGs
(``kappa_1 <= 5``, ``kappa_2 <= 18``), and the paper's simulation remark
("nodes uniformly distributed at random") refers to :func:`random_udg`.

Edge construction uses a :class:`scipy.spatial.cKDTree` ball query, so
generating dense deployments with thousands of nodes stays fast.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from repro._util import spawn_generator
from repro.graphs.deployment import Deployment

__all__ = ["random_udg", "grid_udg", "clustered_udg", "udg_from_points"]


def udg_from_points(
    points: np.ndarray, radius: float, kind: str = "udg", **meta: object
) -> Deployment:
    """Build the UDG over explicit ``(n, 2)`` coordinates.

    Two nodes are adjacent iff their Euclidean distance is ``<= radius``.
    The k-d tree's pair array becomes the deployment's CSR arrays
    directly; no networkx graph is built.  :attr:`Deployment.graph`
    rebuilds the tree's pair *set* on first access: edge insertion order
    feeds the gray-zone sampling loop in ``quasi_udg`` via
    ``Graph.edges`` iteration, so changing it would silently re-roll
    every pinned quasi-UDG scenario.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    return Deployment.from_pairs(
        pts.shape[0],
        cKDTree(pts).query_pairs(r=radius, output_type="ndarray"),
        positions=pts,
        kind=kind,
        meta={"radius": radius, **meta},
    )


def random_udg(
    n: int,
    radius: float = 1.0,
    side: float | None = None,
    *,
    expected_degree: float | None = None,
    seed: int | None = None,
    connected: bool = False,
    max_tries: int = 50,
) -> Deployment:
    """Uniform random UDG: ``n`` points in a ``side x side`` square.

    Exactly one of ``side`` / ``expected_degree`` may be given; with
    ``expected_degree`` the square is sized so that the *expected* closed
    neighborhood size (ignoring boundary effects) is the requested value:
    ``E[delta_v] ~ 1 + (n-1) * pi r^2 / side^2``.

    Parameters
    ----------
    connected:
        If true, re-sample (up to ``max_tries`` times) until the graph is
        connected; raises ``RuntimeError`` if that never happens.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if side is not None and expected_degree is not None:
        raise ValueError("give either side or expected_degree, not both")
    if expected_degree is not None:
        if expected_degree <= 1:
            raise ValueError("expected_degree counts the node itself; must be > 1")
        area = (n - 1) * math.pi * radius**2 / (expected_degree - 1) if n > 1 else 1.0
        side = math.sqrt(max(area, radius**2))
    if side is None:
        side = math.sqrt(max(n, 1) / 4.0)  # sensible default density

    rng = spawn_generator(seed)
    for _ in range(max_tries):
        pts = rng.uniform(0.0, side, size=(n, 2))
        dep = udg_from_points(
            pts, radius, kind="udg", side=side, seed=seed
        )
        if not connected or dep.is_connected():
            return dep
    raise RuntimeError(
        f"could not sample a connected UDG with n={n}, side={side:.3g}, "
        f"radius={radius} in {max_tries} tries; increase density"
    )


def grid_udg(
    rows: int,
    cols: int,
    spacing: float = 0.9,
    radius: float = 1.0,
    *,
    jitter: float = 0.0,
    seed: int | None = None,
) -> Deployment:
    """Regular grid deployment (optionally jittered).

    With ``spacing < radius`` the 4-neighborhood is connected; with
    ``spacing < radius / sqrt(2)`` diagonals connect too.  Deterministic
    when ``jitter == 0``, which makes it a good fixture for unit tests.
    """
    xs, ys = np.meshgrid(np.arange(cols), np.arange(rows))
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float) * spacing
    if jitter > 0:
        rng = spawn_generator(seed)
        pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    return udg_from_points(
        pts, radius, kind="grid_udg", rows=rows, cols=cols, spacing=spacing
    )


def clustered_udg(
    n_clusters: int,
    nodes_per_cluster: int,
    *,
    cluster_radius: float = 0.8,
    side: float = 12.0,
    radius: float = 1.0,
    background: int = 0,
    seed: int | None = None,
) -> Deployment:
    """Non-uniform deployment: dense Gaussian clusters plus a sparse
    uniform background.

    This is the workload for the locality experiment (E4 / Theorem 4):
    nodes in sparse regions should receive low colors while only the dense
    clusters use high colors.  Cluster centers are spread uniformly in the
    square; background nodes fill the space between clusters.
    """
    rng = spawn_generator(seed)
    centers = rng.uniform(cluster_radius, side - cluster_radius, size=(n_clusters, 2))
    chunks = [
        np.clip(
            centers[i] + rng.normal(scale=cluster_radius / 2, size=(nodes_per_cluster, 2)),
            0.0,
            side,
        )
        for i in range(n_clusters)
    ]
    if background > 0:
        chunks.append(rng.uniform(0.0, side, size=(background, 2)))
    pts = np.vstack(chunks) if chunks else np.empty((0, 2))
    dep = udg_from_points(
        pts,
        radius,
        kind="clustered_udg",
        n_clusters=n_clusters,
        nodes_per_cluster=nodes_per_cluster,
        background=background,
        side=side,
    )
    return dep
