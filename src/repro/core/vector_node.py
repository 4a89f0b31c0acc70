"""Batched-draw coloring node for the engine's vectorized fast path.

:class:`BernoulliColoringNode` runs the same Algorithms 1-3 state
machine as :class:`~repro.core.node.ColoringNode` (it *is* one — all
competitor bookkeeping, lazy counters, reset logic, and leader queue
semantics are inherited), but replaces the per-node geometric
transmission skips with the paper's literal per-slot Bernoulli transmit
decision, *evaluated by the engine*: the node only exposes

- :meth:`tx_prob` — its current per-slot send probability
  (``1/(kappa_2 Delta)`` while active/requesting/colored,
  ``1/kappa_2`` as a leader, 0 while passive);
- :meth:`next_event_slot` — the next slot at which its state changes
  without any input (activation at the end of the Alg. 1 L4 listening
  period, the L19 threshold crossing, a leader's serve-window expiry);
- :meth:`on_event` — applies those scheduled transitions;
- :meth:`emit` — builds the message for a slot in which the engine's
  batched Bernoulli draw fired.  It must be pure (no side effects, a
  function of node state and slot): the engine builds a message only
  when a delivery needs it, possibly after other nodes' deliveries of
  the same slot;
- :meth:`listen_key` and :meth:`message_keys` — the delivery filter.  A
  node can only react to a message if its listen key equals one of the
  sender's two message keys: a node in ``A_i`` listens to color ``i``
  (counter and color messages of ``i``; assignments are color-0
  messages), a requester and a leader listen to their own address
  (assignments to them; requests to them), and colored non-leaders
  listen to nothing;
- :meth:`deliver` — returns ``False`` when the delivery changed none of
  the above.

With every node exposing this interface the engine draws all transmit
decisions of a span in one segment draw and resolves every fire slot
drawn under one state in one pass; it pays Python-call cost only for
deliveries the filter lets through and for (rare) state events — see
:mod:`repro.radio.engine`.

The per-slot Bernoulli decision is distributionally identical to the
geometric skips (both implement Alg. 1 L22 / Alg. 3 L14), so this node
matches the executable-spec reference statistically — asserted by the
differential test in ``tests/test_radio_engine_fast.py`` — but consumes
the RNG in a different order, so trajectories at a fixed seed differ
from :class:`ColoringNode` runs.  Use it via::

    run_coloring(dep, node_cls=BernoulliColoringNode, ...)
"""

from __future__ import annotations

from typing import Any

from repro.core.node import _FAR, ColoringNode
from repro.core.states import Phase
from repro.radio.messages import (
    AssignMessage,
    ColorMessage,
    CounterMessage,
    Message,
    RequestMessage,
)

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

    __slots__ = ("_queue_ready",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Slot at which an idle leader should (re)examine its request
        # queue; _FAR when nothing is pending.
        self._queue_ready = _FAR

    # ------------------------------------------------------------------
    # Fast-path interface (consumed by RadioSimulator's vectorized step)
    # ------------------------------------------------------------------
    def tx_prob(self) -> float:
        """Current per-slot transmission probability (Alg. 1 L22 /
        Alg. 2 L2 / Alg. 3 L3, L14, L19)."""
        phase = self.phase
        if phase is Phase.VERIFY:
            return self.params.p_active if self._active else 0.0
        if phase is Phase.REQUEST:
            return self.params.p_active
        if phase is Phase.COLORED:
            return self.params.p_active if self.index > 0 else self.params.p_leader
        return 0.0  # sleeping

    def next_event_slot(self) -> int:
        """Next slot at which this node's state changes spontaneously."""
        phase = self.phase
        if phase is Phase.VERIFY:
            return self._decide_slot if self._active else self._wait_end
        if phase is Phase.COLORED and self.index == 0:
            if self._serving is not None:
                return self._serve_end
            if self._queue:
                return self._queue_ready
        return _FAR

    def on_event(self, slot: int) -> None:
        """Apply all scheduled transitions due at ``slot``."""
        if self.phase is Phase.VERIFY:
            if not self._active and slot >= self._wait_end:
                # L15: become active; c_v := chi(P_v), evaluated after
                # the last passive slot's increments (same slot
                # arithmetic as the geometric-skip node).
                self._active = True
                self._set_counter(self._chi(slot - 1), slot - 1)
            if self._active and slot >= self._decide_slot:
                # L19-20: threshold reached -> decide color i (Alg. 3).
                self._enter_colored(self.index, slot)
        if self.phase is Phase.COLORED and self.index == 0:
            self._leader_tick(slot)

    def emit(self, slot: int) -> Message:
        """Build the message for a slot whose batched draw fired (pure:
        reads node state, changes nothing)."""
        phase = self.phase
        if phase is Phase.VERIFY and self._active:
            return CounterMessage(
                sender=self.vid, color=self.index, counter=self.counter(slot)
            )
        if phase is Phase.REQUEST:
            assert self.leader is not None
            return RequestMessage(sender=self.vid, leader=self.leader)
        if phase is Phase.COLORED:
            if self.index > 0:
                return ColorMessage(sender=self.vid, color=self.index)
            if self._serving is not None:
                target, tc = self._serving
                return AssignMessage(sender=self.vid, color=0, target=target, tc=tc)
            return ColorMessage(sender=self.vid, color=0)
        # Passive and sleeping nodes carry p = 0: no draw can fire them.
        raise RuntimeError(f"node {self.vid} cannot transmit")  # pragma: no cover

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

    # ------------------------------------------------------------------
    # Leader bookkeeping (Alg. 3 L16-21), event-driven
    # ------------------------------------------------------------------
    def _leader_tick(self, slot: int) -> None:
        if self._serving is not None and slot >= self._serve_end:
            done = self._queue.popleft()  # L21
            self._queued.discard(done)
            self._serving = None
        if self._serving is None and self._queue:
            # L16-18: next request; tc is incremented per served node.
            self._tc_counter += 1
            self._serving = (self._queue[0], self._tc_counter)
            self._serve_end = slot + self.params.serve_window
        self._queue_ready = _FAR

    def _deliver_leader(self, slot: int, msg: Message) -> bool:
        had_queue = bool(self._queue)
        queued = super()._deliver_leader(slot, msg)
        if self._serving is None and self._queue and not had_queue:
            # Idle leader queued a fresh request: start serving it at the
            # next slot (the slot the step-path leader would act on it).
            self._queue_ready = slot + 1
        return queued
