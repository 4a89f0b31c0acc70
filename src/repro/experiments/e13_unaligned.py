"""E13 (extension) — Non-aligned slots (Sect. 2 robustness claim).

Paper claim: *"all analytical results carry over to the practical
non-aligned case with an additional small constant factor, since each
time slot can overlap with at most two time-slots of a neighbor."*

We run the identical protocol on the aligned engine and on the
unaligned engine (uniform random phase offsets) over the same
deployments and seeds and report success rates, decision times, and the
empirical slowdown factor — the "small constant" itself.  Reception
rates drop (one transmission now contends with up to two neighbor
slots), so times stretch; correctness must not.

A third mode stacks independent per-reception loss on top of the
unaligned channel (the shared :class:`~repro.radio.channel.ChannelCore`
injects it identically on both engines), checking that the two
degradations compose: the paired slowdown stays a small constant rather
than compounding superlinearly.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis import verify_run
from repro.core import BernoulliColoringNode, run_coloring
from repro.experiments.parallel import shared_build
from repro.experiments.runner import Table, sweep_seeds
from repro.graphs import Deployment, random_udg

__all__ = ["run"]

#: graph seed for the shared deployment in ``replicas`` mode (also the
#: master seed of every mode's seed list: paired comparison)
_SHARED_GRAPH_SEED = 17


def _row(res) -> dict:
    """Per-run table row from a ColoringResult (shared by both paths)."""
    times = res.decision_times().astype(float)
    decided = times[times >= 0]
    tr = res.trace
    return {
        "ok": verify_run(res).ok,
        "t_max": float(decided.max()) if decided.size else float("nan"),
        "t_mean": float(decided.mean()) if decided.size else float("nan"),
        "rx_per_tx": float(tr.rx_count.sum() / max(1, tr.tx_count.sum())),
    }


def _one(
    unaligned: bool, loss_prob: float, seed: int, n: int, degree: float
) -> dict:
    dep = random_udg(n, expected_degree=degree, seed=seed, connected=True)
    return _row(
        run_coloring(dep, seed=seed ^ 0xE13, unaligned=unaligned, loss_prob=loss_prob)
    )


def _build_scenario(n: int, degree: float) -> Deployment:
    """Shared deployment for ``replicas`` mode."""
    return random_udg(
        n, expected_degree=degree, seed=_SHARED_GRAPH_SEED, connected=True
    )


def _one_shared(
    unaligned: bool, loss_prob: float, seed: int, n: int, degree: float
) -> dict:
    """Per-seed kernel on the *shared* deployment (``replicas`` mode); the
    scenario memo keeps workers from rebuilding the graph per seed.  The
    aligned mode runs on the block-stepped fast path; the unaligned
    modes only exist on the compatibility engine."""
    dep = shared_build(
        ("e13", n, degree, _SHARED_GRAPH_SEED), partial(_build_scenario, n, degree)
    )
    fast = {} if unaligned else {"node_cls": BernoulliColoringNode, "block": 4096}
    return _row(
        run_coloring(
            dep, seed=seed ^ 0xE13, unaligned=unaligned, loss_prob=loss_prob, **fast
        )
    )


def run(
    *,
    quick: bool = True,
    seeds: int = 4,
    workers: int | None = None,
    replicas: int = 0,
) -> Table:
    """Run the experiment; see the module docstring for the claim.

    ``replicas > 0`` runs ``replicas`` paired trials per mode on **one
    shared deployment** (built once per process through
    :func:`~repro.experiments.parallel.shared_build`) with the same seed
    set for every mode, so the paired slowdown ratios still compare like
    with like.
    """
    table = Table("E13 aligned vs non-aligned slots (Sect. 2 robustness claim)")
    n, degree = (40, 8.0) if quick else (80, 12.0)
    results = {}
    modes = (
        ("aligned", False, 0.0),
        ("unaligned", True, 0.0),
        ("unaligned+loss", True, 0.05),
    )
    kernel = _one_shared if replicas > 0 else _one
    for mode, unaligned, loss_prob in modes:
        rows = sweep_seeds(
            partial(kernel, unaligned, loss_prob, n=n, degree=degree),
            seeds=replicas if replicas > 0 else seeds,
            master_seed=_SHARED_GRAPH_SEED,  # same seeds for every mode
            workers=workers,
        )
        results[mode] = rows
        table.add(
            engine=mode,
            success_rate=float(np.mean([r["ok"] for r in rows])),
            t_max=float(np.max([r["t_max"] for r in rows])),
            t_mean=float(np.mean([r["t_mean"] for r in rows])),
            rx_per_tx=float(np.mean([r["rx_per_tx"] for r in rows])),
        )
    for mode in ("unaligned", "unaligned+loss"):
        paired = [
            u["t_mean"] / a["t_mean"]
            for a, u in zip(results["aligned"], results[mode])
            if a["t_mean"] > 0
        ]
        table.add(
            engine=f"slowdown ({mode})",
            success_rate=float("nan"),
            t_max=float("nan"),
            t_mean=float(np.mean(paired)),
            rx_per_tx=float(
                np.mean(
                    [
                        u["rx_per_tx"] / a["rx_per_tx"]
                        for a, u in zip(results["aligned"], results[mode])
                    ]
                )
            ),
        )
    table.note(
        "paper: correctness unaffected; times stretch by a small constant "
        "(each transmission contends with <= 2 slots per neighbor, so "
        "reception rates roughly halve in dense contention and the paired "
        "t_mean ratio stays a small constant); stacking 5% loss on the "
        "unaligned channel degrades gracefully rather than compounding"
    )
    if replicas > 0:
        table.note(
            f"replicas={replicas}: all modes share one deployment and seed set"
        )
    return table
