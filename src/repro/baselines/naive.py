"""The cascading-reset strawman (Sect. 4's motivating counter-example).

The paper introduces its counter machinery by first describing the
"simple idea": *"have every node transmit its current counter with a
certain sending probability.  Whenever a node receives a message with
higher counter, it resets its own counter.  Unfortunately, this
technique may lead to chains of cascading resets ... this method does
not prevent nodes from starving in certain (local) parts of the network
graph."*

:class:`NaiveResetNode` implements exactly that variant: same states,
same messages, same thresholds as :class:`~repro.core.node.ColoringNode`,
but the reception rule in a verification state is

    on ``M_A^i(w, c_w)``: if ``c_w > c_v`` then ``c_v := 0``

— no critical range, no competitor list, no ``chi``.  E9 measures the
resulting reset storms: mean decision time comparable, but the *tail*
(starved nodes) grows sharply with density, which is the paper's point.
"""

from __future__ import annotations

import numpy as np

from repro.core.node import ColoringNode
from repro.core.params import Parameters, suggested_max_slots
from repro.core.protocol import ColoringResult
from repro.graphs.deployment import Deployment
from repro.radio.engine import RadioSimulator
from repro.radio.messages import ColorMessage, CounterMessage, Message
from repro.radio.trace import TraceRecorder
from repro._util import spawn_generator

__all__ = ["NaiveResetNode", "run_naive_coloring"]


class NaiveResetNode(ColoringNode):
    """ColoringNode with the naive reset rule replacing Alg. 1 L27-29."""

    __slots__ = ()

    def _deliver_verify(self, slot: int, msg: Message) -> bool:
        i = self.index
        if isinstance(msg, ColorMessage):
            # Transitions on M_C^i are unchanged.
            return super()._deliver_verify(slot, msg)
        if isinstance(msg, CounterMessage) and msg.color == i and self._active:
            # The naive rule: any higher counter resets ours to zero.
            # Ties are broken by ID — with synchronous wake-up all counters
            # start equal, so a tie-break is needed for the rule to act at
            # all (the paper leaves the strawman underspecified here).
            if (msg.counter, msg.sender) > (self.counter(slot), self.vid):
                self._set_counter(0, slot)
                self.resets += 1
                return True
        return False


def run_naive_coloring(
    dep: Deployment,
    params: Parameters | None = None,
    wake_slots: np.ndarray | None = None,
    *,
    seed: int | None = 0,
    max_slots: int | None = None,
) -> ColoringResult:
    """Run the strawman end-to-end; same result type as
    :func:`repro.core.protocol.run_coloring` so metrics code is shared."""
    if dep.n == 0:
        raise ValueError("cannot color an empty deployment")
    if params is None:
        params = Parameters.for_deployment(dep)
    trace = TraceRecorder(dep.n, level=1)
    nodes = [NaiveResetNode(v, params, trace) for v in range(dep.n)]
    if wake_slots is None:
        wake_slots = np.zeros(dep.n, dtype=np.int64)
    sim = RadioSimulator(
        dep, nodes, wake_slots, rng=spawn_generator(seed, 0xA17E), trace=trace
    )
    if max_slots is None:
        max_slots = suggested_max_slots(params, int(np.max(wake_slots)))
    decide_slot = trace.decide_slot
    res = sim.run(max_slots, stop_when=lambda s: bool((decide_slot >= 0).all()))
    colors = np.array([n.color for n in nodes], dtype=np.int64)
    tcs = np.array([-1 if n.tc is None else n.tc for n in nodes], dtype=np.int64)
    return ColoringResult(
        deployment=dep,
        params=params,
        colors=colors,
        tcs=tcs,
        slots=res.slots,
        completed=bool((colors >= 0).all()),
        trace=trace,
        nodes=nodes,
    )
