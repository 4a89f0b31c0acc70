"""Leader election as a standalone primitive: MIS from scratch.

The first stage of the coloring algorithm — the ``A_0``/``C_0``
competition — is by itself a *maximal independent set* algorithm in the
unstructured radio network model, the problem of the companion paper
[21] (Moscibroda & Wattenhofer, PODC 2005, O(log^2 n) in this model).
:func:`run_mis` runs the protocol only until every node either joined
``C_0`` or associated with a leader, and returns the elected set — a
useful primitive on its own (clustering, dominating sets; cf. [13]) and
the natural comparison object for Luby's MIS in the idealized model
(:func:`repro.baselines.luby.luby_mis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import Parameters
from repro.core.protocol import run_coloring
from repro.core.strategy import _covered
from repro.graphs.deployment import Deployment
from repro.radio.trace import TraceRecorder

__all__ = ["MisResult", "run_mis"]


@dataclass
class MisResult:
    """Outcome of leader election."""

    deployment: Deployment
    params: Parameters
    in_mis: np.ndarray  #: boolean mask of elected leaders (C_0)
    covered: np.ndarray  #: leaders plus nodes that associated with one
    slots: int
    completed: bool  #: every node covered before the slot cap
    trace: TraceRecorder

    @property
    def independent(self) -> bool:
        """Leaders are pairwise non-adjacent."""
        from repro.analysis.verify import check_leader_set

        return not check_leader_set(self.deployment, self._colors(), require_maximal=False)

    @property
    def maximal(self) -> bool:
        """Every non-leader has a leader neighbor (only meaningful for
        completed runs)."""
        from repro.analysis.verify import check_leader_set

        problems = check_leader_set(self.deployment, self._colors())
        return not any(p.startswith("non-leader") for p in problems)

    def _colors(self) -> np.ndarray:
        """Leaders as color 0, every other node as color 1."""
        return np.where(self.in_mis, 0, 1)

    def election_times(self) -> np.ndarray:
        """Per-node slots from own wake-up until covered (leader decision
        or leader association), -1 if never covered.  Read from the
        level-1 trace: a leader is covered at its ``C_0`` decision, any
        other node at its first entry into ``R``."""
        trace = self.trace
        cover = np.where(self.in_mis, trace.decide_slot, -1)
        for event in trace.events_of_kind("state"):
            if event.data["state"] == "R" and cover[event.node] < 0:
                cover[event.node] = event.slot
        covered = cover >= 0
        out = np.full(trace.n, -1, dtype=np.int64)
        out[covered] = cover[covered] - trace.wake_slot[covered]
        return out


def run_mis(
    dep: Deployment,
    params: Parameters | None = None,
    wake_slots: np.ndarray | None = None,
    *,
    seed: int | None = 0,
    max_slots: int | None = None,
) -> MisResult:
    """Elect a maximal independent leader set from scratch.

    Runs the coloring protocol's first stage and stops as soon as every
    node is *covered*: it either entered ``C_0`` or learned its leader
    (left ``A_0``).  The rest of the protocol (intra-cluster colors,
    verification) never starts mattering for the returned result.  This
    is :func:`~repro.core.protocol.run_coloring` with the ``mis``
    protocol, which checks coverage at every slot, so ``slots`` is the
    exact cover slot.
    """
    if dep.n == 0:
        raise ValueError("cannot elect leaders on an empty deployment")
    res = run_coloring(
        dep, params, wake_slots, seed=seed, max_slots=max_slots, protocol="mis"
    )
    return MisResult(
        deployment=dep,
        params=res.params,
        in_mis=res.leaders,
        covered=np.array([_covered(node) for node in res.nodes], dtype=bool),
        slots=res.slots,
        completed=res.completed,
        trace=res.trace,
    )
