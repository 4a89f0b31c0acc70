"""Batched-draw coloring node for the engine's vectorized fast path.

:class:`BernoulliColoringNode` is a :class:`~repro.core.node.ColoringNode`
— the same Algorithms 1-3 state machine, with the same scheduled
transitions (``next_event_slot``/``on_event``), messages (``emit``) and
delivery keys (``listen_key``/``message_keys``) — whose per-slot
transmit coin the engine draws instead of the node's geometric skips.
It adds only :meth:`tx_prob`, the per-slot send probability
(``1/(kappa_2 Delta)`` while active, requesting or colored,
``1/kappa_2`` as a leader, 0 while passive); its presence routes a
population onto the engine's vectorized path (see
:mod:`repro.radio.node`).

The engine draws every coin of a span in one segment draw, so the RNG
is consumed in a different order than by :meth:`ColoringNode.step`:
trajectories at a fixed seed differ from :class:`ColoringNode` runs,
and the two match statistically (``tests/test_radio_engine_fast.py``).
Use it via::

    run_coloring(dep, node_cls=BernoulliColoringNode, ...)
"""

from __future__ import annotations

from repro.core.node import ColoringNode

__all__ = ["BernoulliColoringNode"]


class BernoulliColoringNode(ColoringNode):
    """A :class:`ColoringNode` driven by engine-batched Bernoulli draws."""

    __slots__ = ()

    def tx_prob(self) -> float:
        """Current per-slot transmission probability (Alg. 1 L22 /
        Alg. 2 L2 / Alg. 3 L3, L14, L19), drawn by the engine."""
        return self._send_prob()
