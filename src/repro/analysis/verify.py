"""Machine verification of the paper's correctness claims on real runs.

*Correctness* (Theorem 2): no two adjacent nodes ever hold the same
color — because color classes only ever grow, an adjacent pair with
equal colors becomes a violation at the later of its two decisions;
:func:`check_independence_over_time` reads the trace's always-on
decide arrays, so it checks every run, ``trace_level=0`` included, and
reports every violation with its slot.

*Completeness* (Theorem 5): no node is left without a color.

*Leader structure* (basis of Lemmas 2-5): ``C_0`` is an independent set,
and — once the run completed — a *maximal* one: every non-leader heard
(and therefore has) a leader neighbor.

Every check is an array operation over the deployment's CSR adjacency,
each edge taken once as ``u < v``
(:meth:`~repro.graphs.deployment.Deployment.edge_arrays`), and reports
its violations in ascending ``(u, v)`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.deployment import Deployment
from repro.radio.trace import TraceRecorder

__all__ = [
    "VerificationReport",
    "check_proper_coloring",
    "check_completeness",
    "check_independence_over_time",
    "check_leader_set",
    "verify_run",
]


def check_proper_coloring(
    dep: Deployment, colors: np.ndarray
) -> list[tuple[int, int, int]]:
    """Return all violating edges ``(u, v, color)`` among decided nodes."""
    colors = np.asarray(colors)
    u, v = dep.edge_arrays()
    cu = colors[u]
    bad = (cu >= 0) & (cu == colors[v])
    return list(zip(u[bad].tolist(), v[bad].tolist(), cu[bad].tolist()))


def check_completeness(colors: np.ndarray) -> list[int]:
    """Return the nodes that never decided."""
    return np.flatnonzero(np.asarray(colors) < 0).tolist()


def check_independence_over_time(
    dep: Deployment, trace: TraceRecorder
) -> list[tuple[int, int, int, int]]:
    """Theorem 2, checked on the trace's always-on ``decide_slot`` /
    ``decide_color`` arrays: every edge whose endpoints decided the same
    color is reported once as ``(slot, u, v, color)``, stamped at the
    later decision ``slot`` (that of ``u``; ``v`` decided earlier, or in
    the same slot — simultaneous decisions are violations too, as in
    the theorem's proof).  Sorted by slot, then ``u``, then ``v``."""
    a, b = dep.edge_arrays()
    slot, color = trace.decide_slot, trace.decide_color
    bad = (slot[a] >= 0) & (slot[b] >= 0) & (color[a] == color[b])
    a, b = a[bad], b[bad]
    u = np.where(slot[b] > slot[a], b, a)  # the later decider
    v = a + b - u
    order = np.lexsort((v, u, slot[u]))
    return [
        (int(slot[x]), int(x), int(y), int(color[x]))
        for x, y in zip(u[order].tolist(), v[order].tolist())
    ]


def check_leader_set(
    dep: Deployment, colors: np.ndarray, *, require_maximal: bool = True
) -> list[str]:
    """Check that the leaders (color 0) form an independent — and, for
    completed runs, maximal — set: with ``require_maximal`` every node
    whose color is not 0 must have a leader neighbor (MIS coverage; on a
    completed run every node has decided).  Returns human-readable
    problems."""
    leader = np.asarray(colors) == 0
    u, v = dep.edge_arrays()
    both = leader[u] & leader[v]
    problems = [
        f"adjacent leaders {a} and {b}"
        for a, b in zip(u[both].tolist(), v[both].tolist())
    ]
    if require_maximal:
        covered = np.zeros(dep.n, dtype=bool)
        covered[u[leader[v]]] = True
        covered[v[leader[u]]] = True
        problems += [
            f"non-leader {x} has no leader neighbor"
            for x in np.flatnonzero(~leader & ~covered).tolist()
        ]
    return problems


@dataclass
class VerificationReport:
    """Aggregated verdict over one run."""

    proper_violations: list[tuple[int, int, int]]
    undecided: list[int]
    temporal_violations: list[tuple[int, int, int, int]]
    leader_problems: list[str]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.proper_violations
            or self.undecided
            or self.temporal_violations
            or self.leader_problems
        )

    def describe(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return "OK: proper, complete, temporally independent, leaders maximal-independent"
        parts = []
        if self.proper_violations:
            parts.append(f"{len(self.proper_violations)} proper-coloring violations")
        if self.undecided:
            parts.append(f"{len(self.undecided)} undecided nodes")
        if self.temporal_violations:
            parts.append(f"{len(self.temporal_violations)} temporal violations")
        if self.leader_problems:
            parts.append(f"{len(self.leader_problems)} leader-structure problems")
        return "FAIL: " + ", ".join(parts)


def verify_run(result) -> VerificationReport:
    """Full verification of a :class:`~repro.core.protocol.ColoringResult`
    (or any object exposing ``deployment``, ``colors``, ``trace``,
    ``completed``)."""
    dep = result.deployment
    colors = result.colors
    report = VerificationReport(
        proper_violations=check_proper_coloring(dep, colors),
        undecided=check_completeness(colors),
        temporal_violations=check_independence_over_time(dep, result.trace),
        leader_problems=(
            check_leader_set(dep, colors, require_maximal=result.completed)
            if (np.asarray(colors) == 0).any()
            else []
        ),
    )
    if not result.completed:
        report.notes.append("run hit the slot cap before completing")
    return report
