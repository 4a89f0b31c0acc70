"""Torus (wrap-around) unit disk graphs: boundary-free deployments.

Scaling experiments on square UDGs conflate density with boundary
effects — nodes near the edge have systematically fewer neighbors, so
the realized ``Delta`` drifts below the target as ``n`` grows.  On the
flat torus every node sees the same expected neighborhood, which makes
the E2-style sweeps cleaner.  (The torus is not a disk graph of the
plane, but it is still a BIG with the same local structure, which is
all the algorithm's analysis uses.)
"""

from __future__ import annotations

import math

from scipy.spatial import cKDTree

from repro._util import spawn_generator
from repro.graphs.deployment import Deployment

__all__ = ["torus_udg"]


def torus_udg(
    n: int,
    radius: float = 1.0,
    side: float | None = None,
    *,
    expected_degree: float | None = None,
    seed: int | None = None,
) -> Deployment:
    """Uniform random UDG on the flat torus ``[0, side)²``.

    Distance is the wrap-around (toroidal) metric; ``expected_degree``
    sizes the torus so that ``E[delta_v] = 1 + (n-1)·pi r²/side²``
    *exactly* (no boundary correction needed).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if side is not None and expected_degree is not None:
        raise ValueError("give either side or expected_degree, not both")
    if expected_degree is not None:
        if expected_degree <= 1:
            raise ValueError("expected_degree counts the node itself; must be > 1")
        area = (n - 1) * math.pi * radius**2 / (expected_degree - 1) if n > 1 else 1.0
        side = math.sqrt(max(area, (2 * radius) ** 2 + 1e-9))
    if side is None:
        side = math.sqrt(max(n, 1) / 4.0)
    if side <= 2 * radius:
        raise ValueError(
            f"torus side ({side:.3g}) must exceed twice the radius "
            f"({2 * radius:.3g}) or wrap-around distances degenerate"
        )
    rng = spawn_generator(seed)
    pts = rng.uniform(0.0, side, size=(n, 2))
    # KD-tree with box wrap-around (scipy supports periodic boxes).
    return Deployment.from_pairs(
        n,
        cKDTree(pts, boxsize=side).query_pairs(r=radius, output_type="ndarray"),
        positions=pts,
        kind="torus_udg",
        meta={"radius": radius, "side": side, "seed": seed},
    )
