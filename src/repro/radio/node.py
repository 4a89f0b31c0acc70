"""The protocol-node interface the radio engine drives.

A slot, from a node's perspective, has three phases (matching the
ordering of Algorithm 1, Lines 17-30):

1. :meth:`ProtocolNode.step` — local clock tick *and* transmit decision:
   the node updates counters, may change state on a threshold, and
   returns either a :class:`~repro.radio.messages.Message` to transmit
   or ``None`` to listen;
2. the engine resolves collisions globally;
3. :meth:`ProtocolNode.deliver` — called iff this node listened and
   exactly one of its neighbors transmitted.

Nodes never see the channel directly; they cannot detect collisions
(``deliver`` simply isn't called — indistinguishable from silence), and
they cannot tell whether their own transmission was received, exactly as
the model prescribes.

The batched interface
---------------------
A node class may additionally implement the methods the engine's
vectorized fast path drives (:class:`~repro.core.vector_node.
BernoulliColoringNode` implements them, with the transitions and
messages of :class:`~repro.core.node.ColoringNode`); the fast path
engages only when every node has ``tx_prob``:

- ``tx_prob() -> float`` — the per-slot send probability; the engine
  draws every node's transmit Bernoulli itself;
- ``next_event_slot() -> int`` and ``on_event(slot)`` — the next slot at
  which the state changes without input, and the transition itself;
- ``emit(slot) -> Message`` — the message of a slot whose draw fired.
  It must be *pure*: no side effects, a function of node state and
  slot.  The engine builds a message only when a delivery needs it,
  possibly after other nodes' deliveries of the same slot;
- ``listen_key() -> int`` and ``message_keys() -> tuple[int, int]`` —
  the delivery filter.  ``deliver`` is called only where the
  receiver's listen key equals one of the sender's two message keys,
  so a message that cannot change its receiver must not match.  The
  trace still counts every reception;
- ``deliver`` returning ``False`` when it changed neither the send
  probability, the event slot nor a key (see :meth:`ProtocolNode.deliver`).

The engine caches the send probability, the event slot and the keys of
every node and re-reads them after wakes, events and deliveries; all
fire slots drawn under one cached state are resolved together, and the
run is cut after the first slot whose deliveries change it.  A caller
that changes a node between steps has the engine re-read it through
:meth:`~repro.radio.engine.RadioSimulator.refresh`.

Event-driven classic stepping
-----------------------------
A node class driven by ``step`` may also implement the methods the
engine's event-driven classic route drives
(:class:`~repro.core.node.ColoringNode` is the reference); the route
engages only when every node has ``next_step_slot``:

- ``next_step_slot(slot) -> int`` — the first slot after ``slot`` at
  which ``step`` can transmit, draw or change state, never below
  ``slot + 1``.  The engine steps a node only there; a step it skips
  must be one that would have returned ``None``, drawn nothing and
  changed nothing;
- ``next_event_slot()``, ``listen_key()`` and ``message_keys()`` as
  above: the engine re-reads them with the due slot at wake (as
  ``next_step_slot(wake - 1)``), after each step at an event and after
  each delivery that does not report ``False``, and ``deliver`` runs
  only where the keys match;
- ``schedule()`` and ``unstep(before, after)`` — a step at a slot
  before ``next_event_slot()`` must change nothing but what
  ``schedule()`` reports (for ``ColoringNode``, the slot of its next
  transmission), and ``unstep`` takes back such a step, which moved
  ``schedule()`` from ``before`` to ``after``.  A delivery in between
  may have replaced the schedule (entering a new state clears it), so
  the node restores ``before`` only where it still holds ``after``;
  the engine never writes node fields itself.

The route works in *spans*, like the vectorized one and through the
same loop (:meth:`~repro.radio.engine.RadioSimulator.step_block`; a
per-slot ``step()`` is a span of one slot).  A span opens at a slot
where nodes are due; wakes and scheduled events step only there.  It
ends at the next wake, the next ``next_event_slot()`` of any node, the
chunk end or a fixed cap, and every step due inside it is taken, in
(slot, roster) order, before any delivery of the span (only its due
slot is re-read after such a step); its transmissions are then
resolved and delivered as one fire run.  A delivery that does not
report ``False`` cuts the run after its slot: every step taken at a
later slot is taken back (the protocol stream rewound, each schedule
handed back through ``unstep``, newest first) and taken again in the
next span.  So ``deliver`` returns ``False`` only if it left
``next_step_slot``, ``next_event_slot()``, the keys and every step
before the next event as they were.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.radio.messages import Message

__all__ = ["ProtocolNode"]


class ProtocolNode(ABC):
    """Base class for per-node protocol logic.

    Subclasses implement the three phase hooks.  ``vid`` is the node's
    graph index; protocols that need unique *identifiers* distinct from
    indices (Sect. 2 allows random IDs from ``[1..n^3]``) may carry them
    separately — the engine only uses ``vid`` for topology.
    """

    __slots__ = ("vid", "awake")

    def __init__(self, vid: int) -> None:
        self.vid = int(vid)
        self.awake = False

    def wake(self, slot: int) -> None:
        """Called once, at the node's wake slot, before its first step."""
        self.awake = True
        self.on_wake(slot)

    def on_wake(self, slot: int) -> None:
        """Subclass hook for wake-up initialization (default: nothing)."""

    @abstractmethod
    def step(self, slot: int, rng: np.random.Generator) -> Message | None:
        """Advance local state by one slot; return a message to transmit
        or ``None`` to listen this slot."""

    @abstractmethod
    def deliver(self, slot: int, msg: Message) -> bool | None:
        """Receive ``msg`` (this node listened and exactly one neighbor
        transmitted).

        A node driven by the vectorized engine (the batched interface,
        see the module docs) returns ``False`` when the message cannot
        have changed ``tx_prob()``, ``next_event_slot()``,
        ``listen_key()`` or ``message_keys()``; the engine then skips
        re-reading them.  Any other return value, ``None`` included,
        makes it re-read all four and cuts the fire run after this
        slot.  On the event-driven classic route the same rule covers
        ``next_step_slot`` and the steps taken ahead of the delivery.
        """

    @property
    def done(self) -> bool:
        """Whether this node has reached a terminal decision.  The engine
        can stop once every awake node is done and no node remains asleep.
        Default: never (protocols like the leader role run forever)."""
        return False
