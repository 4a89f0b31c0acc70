"""Batched-draw coloring node for the engine's vectorized fast path.

:class:`BernoulliColoringNode` is a :class:`~repro.core.node.ColoringNode`
— the same Algorithms 1-3 state machine, with the same scheduled
transitions (``next_event_slot``/``on_event``) and messages (``emit``)
— whose per-slot transmit coin the engine draws instead of the node's
geometric skips.  It adds only the engine-facing surface of the batched
interface (see :mod:`repro.radio.node`):

- :meth:`tx_prob` — the per-slot send probability (``1/(kappa_2 Delta)``
  while active, requesting or colored, ``1/kappa_2`` as a leader, 0
  while passive); its presence routes a population onto the engine's
  vectorized path;
- :meth:`listen_key` and :meth:`message_keys` — the delivery filter.  A
  node can only react to a message if its listen key equals one of the
  sender's two message keys: a node in ``A_i`` listens to color ``i``
  (counter and color messages of ``i``; assignments are color-0
  messages), a requester and a leader listen to their own address
  (assignments to them; requests to them), and colored non-leaders
  listen to nothing.

The engine draws every coin of a span in one segment draw, so the RNG
is consumed in a different order than by :meth:`ColoringNode.step`:
trajectories at a fixed seed differ from :class:`ColoringNode` runs,
and the two match statistically (``tests/test_radio_engine_fast.py``).
Use it via::

    run_coloring(dep, node_cls=BernoulliColoringNode, ...)
"""

from __future__ import annotations

from repro.core.node import ColoringNode
from repro.core.states import Phase

__all__ = ["BernoulliColoringNode"]

#: listen key of a node that reacts to no message (colored non-leaders).
_DEAF = -1
#: message keys of a node that cannot transmit (asleep).
_MUTE = -2


def _address(vid: int) -> int:
    """The key of messages addressed to ``vid`` (below every color key
    and both sentinels)."""
    return -3 - vid


class BernoulliColoringNode(ColoringNode):
    """A :class:`ColoringNode` driven by engine-batched Bernoulli draws."""

    __slots__ = ()

    def tx_prob(self) -> float:
        """Current per-slot transmission probability (Alg. 1 L22 /
        Alg. 2 L2 / Alg. 3 L3, L14, L19), drawn by the engine."""
        return self._send_prob()

    def listen_key(self) -> int:
        """The one message key this node can react to (see module docs)."""
        phase = self.phase
        if phase is Phase.VERIFY:
            return self.index
        if phase is Phase.REQUEST or (phase is Phase.COLORED and self.index == 0):
            return _address(self.vid)
        return _DEAF

    def message_keys(self) -> tuple[int, int]:
        """The two keys of the message :meth:`emit` would build now: its
        color, and for addressed messages the address (requests carry
        only their leader's address)."""
        phase = self.phase
        if phase is Phase.VERIFY:
            return self.index, self.index
        if phase is Phase.REQUEST:
            assert self.leader is not None
            address = _address(self.leader)
            return address, address
        if phase is Phase.COLORED:
            if self.index == 0 and self._serving is not None:
                return 0, _address(self._serving[0])
            return self.index, self.index
        return _MUTE, _MUTE
