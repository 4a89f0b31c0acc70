"""Deliberately broken node classes: the localizer's own regression rig.

A conformance harness that has never seen a failure is untested
tooling.  These throwaway classes inject known, surgically small bugs
into **one side** of the lockstep pair (via ``vectorized_node_cls``),
so tests — and ``repro conform --inject-bug`` — can assert that the
divergence localizer names the exact slot, node, and field the bug
first manifests at.  Never use these outside the harness.
"""

from __future__ import annotations

from repro.core.vector_node import BernoulliColoringNode
from repro.radio.messages import CounterMessage, Message

__all__ = ["LateActivationNode", "OffByOneCounterNode"]


class OffByOneCounterNode(BernoulliColoringNode):
    """Broken on purpose: node ``BROKEN_VID`` reports ``counter + 1`` in
    every counter message it transmits.

    The protocol trajectory up to that node's first active transmission
    is untouched (transmit decisions and all other payloads are
    identical), so the first divergence is *exactly* the first
    ``CounterMessage`` the broken node sends — field ``tx.counter`` —
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
