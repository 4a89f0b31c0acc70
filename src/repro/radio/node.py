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
run is cut after the first slot whose deliveries change it.

Event-driven classic stepping
-----------------------------
A node class driven by ``step`` may also implement
``next_step_slot(slot) -> int``: the first slot after ``slot`` at which
``step`` can transmit, draw or change state, never below ``slot + 1``.
When every node has it, the engine's classic route steps a node only
at that slot (:class:`~repro.core.node.ColoringNode` is the
reference), re-reading it at wake (as ``next_step_slot(wake - 1)``),
after each step, and after each delivery.  A step it skips must be one
that would have returned ``None``, drawn nothing and changed nothing.
The ``deliver`` rule above governs this route too: ``deliver`` returns
``False`` only if nothing cached changed, here ``next_step_slot``, and
the engine then skips the re-read.
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
        makes it re-read all four.  On the event-driven classic route
        the same rule covers ``next_step_slot``.
        """

    @property
    def done(self) -> bool:
        """Whether this node has reached a terminal decision.  The engine
        can stop once every awake node is done and no node remains asleep.
        Default: never (protocols like the leader role run forever)."""
        return False
