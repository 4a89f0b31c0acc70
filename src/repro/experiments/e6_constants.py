"""E6 — The constants ablation (Sect. 4's simulation remark).

Paper claim: *"Simulation results show that in networks whose nodes are
uniformly distributed at random significantly smaller values suffice.
In fact, the constants are sufficiently small to yield a practically
efficient coloring algorithm."*

This is the experiment behind that sentence: we sweep the scale of the
practical constants (gamma = 2*kappa2*scale, with alpha/beta/sigma tied
as in ``Parameters.practical``) and measure the empirical failure rate
and running time, plus the theoretical constants as the reference point
(tiny instances only — their runtime explodes by design).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis import verify_run
from repro.core import BernoulliColoringNode, Parameters, run_coloring
from repro.experiments.parallel import shared_build
from repro.experiments.runner import Table, sweep_seeds
from repro.graphs import random_udg

__all__ = ["run"]


def _row(res) -> dict:
    """Per-run table row from a ColoringResult (shared by both paths)."""
    times = res.decision_times().astype(float)
    return {
        "ok": verify_run(res).ok,
        "t_max": float(times.max()),
        "t_mean": float(times[times >= 0].mean()) if (times >= 0).any() else -1.0,
        "gamma": res.params.gamma,
        "threshold": res.params.threshold,
    }


def _one(scale: float, seed: int, n: int, degree: float) -> dict:
    dep = random_udg(n, expected_degree=degree, seed=seed, connected=True)
    params = Parameters.for_deployment(dep, scale=scale)
    return _row(run_coloring(dep, params=params, seed=seed ^ 0xAB1A))


def _build_scenario(scale: float, n: int, degree: float) -> tuple:
    """Shared (deployment, params) pair for one scale in replica mode."""
    dep = random_udg(n, expected_degree=degree, seed=int(scale * 100), connected=True)
    return dep, Parameters.for_deployment(dep, scale=scale)


def _one_shared(scale: float, seed: int, n: int, degree: float) -> dict:
    """Per-seed kernel on the scale's *shared* deployment (replica mode);
    the scenario memo keeps workers from rebuilding it per seed."""
    dep, params = shared_build(
        ("e6", scale, n, degree), partial(_build_scenario, scale, n, degree)
    )
    return _row(
        run_coloring(
            dep,
            params=params,
            seed=seed ^ 0xAB1A,
            node_cls=BernoulliColoringNode,
            block=4096,
        )
    )


def run(
    *,
    quick: bool = True,
    seeds: int = 6,
    workers: int | None = None,
    replicas: int = 0,
) -> Table:
    """Run the experiment; see the module docstring for the claim.

    ``replicas > 0`` runs ``replicas`` protocol seeds per scale on **one
    shared deployment per scale** (built once per process through
    :func:`~repro.experiments.parallel.shared_build`) instead of
    resampling the graph per seed — the failure-rate estimate is then
    over protocol randomness only, the paper's R-trials-per-instance
    reading of the claim.  Replica runs use the block-stepped fast path
    (:class:`~repro.core.vector_node.BernoulliColoringNode`,
    ``block=4096``) and the per-seed path's seed derivation.
    """
    table = Table("E6 constants ablation (Sect. 4 simulation remark)")
    n, degree = (40, 8.0) if quick else (80, 12.0)
    scales = [0.25, 0.5, 1.0, 1.5] if quick else [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    kernel = _one_shared if replicas > 0 else _one
    for scale in scales:
        rows = sweep_seeds(
            partial(kernel, scale, n=n, degree=degree),
            seeds=replicas if replicas > 0 else seeds,
            master_seed=int(scale * 100),
            workers=workers,
        )
        table.add(
            regime=f"practical x{scale}",
            gamma=float(np.mean([r["gamma"] for r in rows])),
            success_rate=float(np.mean([r["ok"] for r in rows])),
            t_max=float(np.max([r["t_max"] for r in rows])),
            t_mean=float(np.mean([r["t_mean"] for r in rows])),
        )
    # Theoretical constants: one tiny instance as the reference point.
    dep = random_udg(12, expected_degree=5.0, seed=1, connected=True)
    params = Parameters.for_deployment(dep, regime="theoretical")
    res = run_coloring(dep, params=params, seed=99)
    times = res.decision_times().astype(float)
    table.add(
        regime="theoretical (n=12)",
        gamma=params.gamma,
        success_rate=float(verify_run(res).ok),
        t_max=float(times.max()),
        t_mean=float(times[times >= 0].mean()),
    )
    table.note(
        "paper: success rate climbs to ~1 well below the theoretical "
        "constants (gamma in the tens vs hundreds), at a small fraction of "
        "the theoretical running time — 'significantly smaller values suffice'"
    )
    if replicas > 0:
        table.note(
            f"replicas={replicas}: one shared deployment per scale "
            "(protocol-seed randomness only)"
        )
    return table
