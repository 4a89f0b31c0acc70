"""Paired comparison of two runs on the same deployment.

Ablations (aligned vs unaligned engines, global vs local parameters,
clean vs lossy channels) need *paired* statistics — same deployment,
same seeds — rather than independent aggregates, because deployment
variance dwarfs treatment effects at small seed counts.
:func:`compare_runs` lines two results up and reports per-node time
ratios, color-structure agreement, and channel-usage deltas.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compare_runs"]


def compare_runs(a, b, *, label_a: str = "a", label_b: str = "b") -> dict[str, object]:
    """Compare two ColoringResult-like objects over the same deployment.

    Returns a flat dict of paired statistics; raises if the runs are not
    over the same graph.
    """
    if a.deployment.n != b.deployment.n or not all(
        np.array_equal(x, y) for x, y in zip(a.deployment.csr, b.deployment.csr)
    ):
        raise ValueError("results are not over the same deployment")
    ta = a.decision_times().astype(float)
    tb = b.decision_times().astype(float)
    both = (ta >= 0) & (tb >= 0)
    ratios = tb[both] / np.maximum(ta[both], 1.0)
    same_leaders = int((a.leaders & b.leaders).sum())
    out = {
        "n": a.deployment.n,
        f"ok_{label_a}": bool(a.completed and a.proper),
        f"ok_{label_b}": bool(b.completed and b.proper),
        "paired_nodes": int(both.sum()),
        "time_ratio_mean": float(ratios.mean()) if ratios.size else float("nan"),
        "time_ratio_p95": float(np.percentile(ratios, 95)) if ratios.size else float("nan"),
        f"leaders_{label_a}": int(a.leaders.sum()),
        f"leaders_{label_b}": int(b.leaders.sum()),
        "common_leaders": same_leaders,
        "identical_colorings": bool(np.array_equal(a.colors, b.colors)),
        "tx_ratio": float(
            b.trace.tx_count.sum() / max(1, a.trace.tx_count.sum())
        ),
    }
    return out
