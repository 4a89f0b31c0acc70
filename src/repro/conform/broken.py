"""Deliberately broken node classes: the localizer's own regression rig.

A conformance harness that has never seen a failure is untested
tooling.  These throwaway classes inject known, surgically small bugs
into the **route side** of a lockstep pair (via ``route_node_cls``) of
either node population, so tests — and ``repro conform --inject-bug``,
which swaps in :class:`OffByOneCounterNode` on the batched and
:class:`LateStepNode` on the classic population — can assert that the
divergence localizer names the exact slot, node, and field the bug
first manifests at.  Never use these outside the harness.
"""

from __future__ import annotations

from repro.core.node import ColoringNode
from repro.core.vector_node import BernoulliColoringNode
from repro.radio.messages import CounterMessage, Message

__all__ = ["LateActivationNode", "LateStepNode", "OffByOneCounterNode"]


class OffByOneCounterNode(BernoulliColoringNode):
    """Broken on purpose: node ``BROKEN_VID`` reports ``counter + 1`` in
    every counter message it transmits.

    The protocol trajectory up to that node's first active transmission
    is untouched (transmit decisions and all other payloads are
    identical), so the first divergence is *exactly* the first
    ``CounterMessage`` the broken node sends — field ``tx.msg`` —
    which is what the localizer regression test pins.
    """

    BROKEN_VID = 0

    def emit(self, slot: int) -> Message:
        """Emit normally, then corrupt the broken vid's counter field."""
        msg = super().emit(slot)
        if (
            self.vid == self.BROKEN_VID
            and isinstance(msg, CounterMessage)
        ):
            return CounterMessage(
                sender=msg.sender, color=msg.color, counter=msg.counter + 1
            )
        return msg


class LateActivationNode(BernoulliColoringNode):
    """Broken on purpose: scheduled state events fire one slot late
    (an off-by-one in ``next_event_slot`` — the classic boundary-slip
    bug class in the fast path's event cache)."""

    _FAR = 1 << 62

    def next_event_slot(self) -> int:
        """Report every scheduled event one slot later than it is due."""
        slot = super().next_event_slot()
        return slot if slot >= self._FAR else slot + 1


class LateStepNode(ColoringNode):
    """Broken on purpose: node ``BROKEN_VID``'s ``next_step_slot``
    reports its next transmission one slot late (an off-by-one in the
    step schedule the event-driven classic route trusts).

    The per-slot reference steps the node every slot and never asks, so
    the first divergence is that node's first transmission after its
    first geometric draw: present on the reference, absent on the route
    (field ``tx``).
    """

    BROKEN_VID = 0

    def next_step_slot(self, slot: int) -> int:
        """Report the broken vid's next transmission a slot late."""
        due = super().next_step_slot(slot)
        if self.vid == self.BROKEN_VID and due == self.schedule():
            return due + 1
        return due

