"""Per-node protocol logic: Algorithms 1, 2, and 3 of the paper.

The implementation mirrors the pseudocode line-by-line (line references
in comments), with two mechanical transformations that change *nothing*
observable but make the per-slot cost O(1):

1. **Lazy counters.**  The pseudocode increments ``c_v`` and every local
   copy ``d_v(w)`` once per slot (Alg. 1, L5/L17/L18).  We store
   ``c_v`` as ``(value_at_ref, ref_slot)`` and each ``d_v(w)`` as the
   one integer ``value_at_ref - ref_slot`` instead; the current value is
   ``value_at_ref + (slot - ref_slot)``.  Increments become free and the
   threshold crossing (L19) becomes a precomputed slot number.

2. **Geometric transmission skips.**  The state machine's only random
   step is the per-slot transmit coin (Alg. 1 L22, Alg. 2 L2, Alg. 3
   L3/L14/L19).  Flipping it with probability ``p`` in every slot is
   equivalent to drawing the gap to the next transmission from a
   geometric distribution, which :meth:`ColoringNode.step` does after
   applying the scheduled transitions (:meth:`ColoringNode.on_event`).
   A node therefore touches its RNG only when its send probability
   turns positive and when it transmits, and
   :meth:`ColoringNode.next_step_slot` hands that schedule to the
   engine, which steps the node only at the slots where it can act,
   several slots ahead of the deliveries (:meth:`ColoringNode.unstep`
   takes back a step a state-changing delivery overtook), and calls
   :meth:`ColoringNode.deliver` only where the delivery keys
   (:meth:`ColoringNode.listen_key`, :meth:`ColoringNode.message_keys`)
   say a message can matter.
   :class:`~repro.core.vector_node.BernoulliColoringNode` runs the same
   transitions and messages with the coin drawn by the engine.

Both transformations follow the HPC guides' doctrine: find the per-slot
hot path and make it do no work.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import Parameters
from repro.core.states import NodeState, Phase
from repro.radio.messages import (
    AssignMessage,
    ColorMessage,
    CounterMessage,
    Message,
    RequestMessage,
)
from repro.radio.node import ProtocolNode
from repro.radio.trace import TraceRecorder
from repro._util import max_value_outside

__all__ = ["ColoringNode", "UNDECIDED"]

#: Sentinel "no color yet".
UNDECIDED = -1

_FAR = 1 << 62  # effectively-infinite slot number
#: listen key of a node that reacts to no message (colored non-leaders).
_DEAF = -1
#: message keys of a node that cannot transmit (asleep).
_MUTE = -2


def _address(vid: int) -> int:
    """The key of messages addressed to ``vid`` (below every color key
    and both sentinels)."""
    return -3 - vid


class ColoringNode(ProtocolNode):
    """One network node running the unstructured coloring protocol."""

    __slots__ = (
        "params",
        "trace",
        "phase",
        "index",
        "color",
        "leader",
        "tc",
        "_wait_end",
        "_active",
        "_competitors",
        "_c_ref",
        "_c_ref_slot",
        "_decide_slot",
        "_crit",
        "_next_tx",
        "_queue",
        "_tc_counter",
        "_serving",
        "_serve_end",
        "_queue_ready",
        "resets",
        "states_visited",
        "min_counter",
    )

    def __init__(
        self, vid: int, params: Parameters, trace: TraceRecorder | None = None
    ) -> None:
        super().__init__(vid)
        self.params = params
        self.trace = trace
        self.phase = Phase.SLEEP
        self.index = -1  # color index while VERIFY / COLORED
        self.color = UNDECIDED
        self.leader: int | None = None  # L(v)
        self.tc: int | None = None  # intra-cluster color tc_v
        # --- verification-state (A_i) machinery ---
        self._wait_end = _FAR  # first active slot (end of Alg.1 L4 loop)
        self._active = False
        self._competitors: dict[int, int] = {}  # w -> c_w - slot
        self._c_ref = 0
        self._c_ref_slot = 0
        self._decide_slot = _FAR
        self._crit = 0  # ceil(gamma * zeta_i * log n) for current i
        self._next_tx = _FAR
        # --- leader (C_0) machinery ---
        # Requesters in arrival order (FIFO by insertion; keys only).
        self._queue: dict[int, None] = {}
        self._tc_counter = 0  # tc (Alg.3 L7)
        self._serving: tuple[int, int] | None = None  # (target, tc)
        self._serve_end = _FAR
        self._queue_ready = _FAR  # idle leader's start on a queued request
        # --- instrumentation ---
        self.resets = 0  # counter resets taken (Alg.1 L29)
        self.states_visited: list[str] = []
        self.min_counter = 0  # lowest counter value ever set (Lemma 6 floor)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def on_wake(self, slot: int) -> None:
        """Upon waking up, a node enters state A_0 (Sect. 4)."""
        self._enter_verify(0, slot)

    def _record_state(self, slot: int, label: str) -> None:
        self.states_visited.append(label)
        if self.trace is not None:
            self.trace.state(slot, self.vid, label)

    def _enter_verify(self, i: int, entry_slot: int) -> None:
        """Enter state ``A_i`` (Alg. 1 preamble, L1-3): become passive,
        clear the competitor list, and listen for ``wait_slots`` slots."""
        self.phase = Phase.VERIFY
        self.index = i
        self._competitors.clear()  # L1: P_v := {}
        self._crit = self.params.critical_range(i)  # uses zeta_i from L2
        self._wait_end = entry_slot + self.params.wait_slots  # L4
        self._active = False
        self._next_tx = _FAR
        self._decide_slot = _FAR
        self._record_state(entry_slot, f"A_{i}")

    def _enter_request(self, slot: int) -> None:
        """Enter state ``R`` (transition of Alg. 1 L11 with A_suc = R)."""
        self.phase = Phase.REQUEST
        self.index = -1
        self._active = False
        self._decide_slot = _FAR
        # Alg. 2 L2: transmit M_R with probability 1/(kappa2*Delta) each
        # slot, starting next slot.
        self._next_tx = _FAR  # scheduled lazily in step (needs rng)
        self._record_state(slot, "R")

    def _enter_colored(self, i: int, slot: int) -> None:
        """Enter state ``C_i`` (Alg. 3): the irrevocable final decision."""
        self.phase = Phase.COLORED
        self.index = i
        self.color = i  # Alg. 3 L1
        self._active = False
        self._decide_slot = _FAR
        self._next_tx = _FAR  # rescheduled with the C-state probability
        self._record_state(slot, f"C_{i}")
        if self.trace is not None:
            self.trace.decide(slot, self.vid, i)

    # ------------------------------------------------------------------
    # Lazy-counter helpers
    # ------------------------------------------------------------------
    def counter(self, slot: int) -> int:
        """Current ``c_v`` (valid only while active in some A_i)."""
        return self._c_ref + (slot - self._c_ref_slot)

    def _competitor_estimate(self, w: int, slot: int) -> int:
        """Current local copy ``d_v(w)`` (the stored ``c_w - t0`` for a
        counter ``c_w`` heard at slot ``t0``, plus one increment per slot;
        Alg. 1 L5/L18)."""
        return self._competitors[w] + slot

    def _chi(self, slot: int) -> int:
        """``chi(P_v)`` (Alg. 1 L15): the maximum value <= 0 outside the
        critical range of every locally stored competitor counter."""
        g = self._crit
        intervals = []
        for w in self._competitors:
            d = self._competitor_estimate(w, slot)
            intervals.append((d - g, d + g))
        return max_value_outside(intervals, upper=0)

    def _set_counter(self, value: int, slot: int) -> None:
        self._c_ref = value
        self._c_ref_slot = slot
        self._decide_slot = slot + (self.params.threshold - value)
        if value < self.min_counter:
            self.min_counter = value

    # ------------------------------------------------------------------
    # Scheduled transitions (no input, no randomness)
    # ------------------------------------------------------------------
    def next_event_slot(self) -> int:
        """Next slot at which this node's state changes without input:
        the end of the Alg. 1 L4 listening period, the L19 threshold
        crossing, a leader's serve-window end, or an idle leader's start
        on a queued request (Alg. 3 L16-21)."""
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
                # the last passive slot's increments.
                self._active = True
                self._set_counter(self._chi(slot - 1), slot - 1)
            # L17-18: increments are implicit in the lazy representation.
            if self._active and slot >= self._decide_slot:
                # L19-20: threshold reached -> decide color i, start Alg. 3.
                self._enter_colored(self.index, slot)
        if self.phase is Phase.COLORED and self.index == 0:
            self._leader_tick(slot)

    def _leader_tick(self, slot: int) -> None:
        """Serving-window bookkeeping of a leader (Alg. 3 L16-21)."""
        if self._serving is not None and slot >= self._serve_end:
            del self._queue[self._serving[0]]  # L21: the served head
            self._serving = None
        if self._serving is None and self._queue:
            # L16-18: next request; tc is incremented per served node.
            self._tc_counter += 1
            self._serving = (next(iter(self._queue)), self._tc_counter)
            self._serve_end = slot + self.params.serve_window
        self._queue_ready = _FAR

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _send_prob(self) -> float:
        """Current per-slot transmission probability (Alg. 1 L22 /
        Alg. 2 L2 / Alg. 3 L3, L14, L19); 0 while passive or asleep."""
        phase = self.phase
        if phase is Phase.VERIFY:
            return self.params.p_active if self._active else 0.0
        if phase is Phase.REQUEST:
            return self.params.p_active
        if phase is Phase.COLORED:
            return self.params.p_active if self.index > 0 else self.params.p_leader
        return 0.0  # sleeping

    def emit(self, slot: int) -> Message:
        """The message of a slot whose transmit coin fired (pure: reads
        node state, changes nothing)."""
        phase = self.phase
        if phase is Phase.VERIFY and self._active:
            # L22: M_A^i(v, c_v).
            return CounterMessage(
                sender=self.vid, color=self.index, counter=self.counter(slot)
            )
        if phase is Phase.REQUEST:
            # Alg. 2 L2: request an intra-cluster color from the leader.
            assert self.leader is not None
            return RequestMessage(sender=self.vid, leader=self.leader)
        if phase is Phase.COLORED:
            if self.index > 0:
                return ColorMessage(sender=self.vid, color=self.index)  # Alg. 3 L3
            if self._serving is not None:
                target, tc = self._serving
                # L19: transmit M_C^0(v, w, tc).
                return AssignMessage(sender=self.vid, color=0, target=target, tc=tc)
            return ColorMessage(sender=self.vid, color=0)  # L14: idle leader
        # Passive and sleeping nodes send with probability 0.
        raise RuntimeError(f"node {self.vid} cannot transmit")  # pragma: no cover

    def step(self, slot: int, rng: np.random.Generator) -> Message | None:
        """One slot of local computation; returns a message to transmit
        or None to listen (the engine's phase-2 hook).

        Applies the transitions due at ``slot``, then flips the slot's
        transmit coin by geometric skips: the gap to the next
        transmission is drawn when the send probability turns positive
        (activation, entering ``C_i``, the first step in ``R``) and once
        per transmission."""
        self.on_event(slot)
        p = self._send_prob()
        if p == 0.0:
            return None
        if self._next_tx == _FAR:
            self._next_tx = (slot - 1) + int(rng.geometric(p))
        if slot < self._next_tx:
            return None
        self._next_tx = slot + int(rng.geometric(p))
        return self.emit(slot)

    def next_step_slot(self, slot: int) -> int:
        """The first slot after ``slot`` at which :meth:`step` can
        transmit, draw or change state (the engine's classic route steps
        the node only there); never below ``slot + 1``."""
        due = self.next_event_slot()
        if self._send_prob() > 0.0:
            # The next transmission, or the next slot while the first
            # draw of the schedule is pending.
            due = min(due, slot + 1 if self._next_tx == _FAR else self._next_tx)
        return max(due, slot + 1)

    def schedule(self) -> int:
        """The one thing a :meth:`step` at a slot before
        :meth:`next_event_slot` can change: the slot of the next
        transmission (read by the engine around the steps it may have
        to take back; see :meth:`unstep`)."""
        return self._next_tx

    def unstep(self, before: int, after: int) -> None:
        """Take back a step that moved :meth:`schedule` from ``before``
        to ``after`` at a slot before :meth:`next_event_slot`.  A
        delivery since may have replaced the schedule (entering ``R`` or
        ``A_{i+1}`` clears it); it is restored only where the node still
        holds ``after``."""
        if self._next_tx == after:
            self._next_tx = before

    # ------------------------------------------------------------------
    # Delivery filter
    # ------------------------------------------------------------------
    def listen_key(self) -> int:
        """The one message key this node can react to: a node in ``A_i``
        listens to color ``i`` (counter and color messages of ``i``;
        assignments are color-0 messages), a requester and a leader to
        their own address (assignments to them; requests to them), and a
        colored non-leader to nothing."""
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
    # Reception (end of slot)
    # ------------------------------------------------------------------
    def deliver(self, slot: int, msg: Message) -> bool:
        """Process a received message according to the current state
        (the engine's phase-4 hook).  Returns ``False`` when the message
        left the phase, color index, counter schedule and leader queue
        untouched (see :meth:`ProtocolNode.deliver`)."""
        phase = self.phase
        if phase is Phase.VERIFY:
            return self._deliver_verify(slot, msg)
        if phase is Phase.REQUEST:
            return self._deliver_request(slot, msg)
        if phase is Phase.COLORED and self.index == 0:
            return self._deliver_leader(slot, msg)
        # Colored non-leaders and (unreachable) sleepers ignore everything.
        return False

    def _deliver_verify(self, slot: int, msg: Message) -> bool:
        i = self.index
        if isinstance(msg, ColorMessage):
            if msg.color != i:
                return False  # other color classes are irrelevant in A_i
            # L10-13 / L23-26: a neighbor decided color i -> move on.
            if i == 0:
                self.leader = msg.sender  # L12: L(v) := w
                self._enter_request(slot)
            else:
                self._enter_verify(i + 1, slot + 1)
            return True
        if isinstance(msg, CounterMessage) and msg.color == i:
            # L6-8 / L27-28: update the competitor list.
            self._competitors[msg.sender] = msg.counter - slot
            if self._active:
                # L29: reset when inside the critical range.
                if abs(self.counter(slot) - msg.counter) <= self._crit:
                    self._set_counter(self._chi(slot), slot)
                    self.resets += 1
                    return True
        return False

    def _deliver_request(self, slot: int, msg: Message) -> bool:
        # Alg. 2 L3-4: only an assignment from *our* leader matters.
        if (
            isinstance(msg, AssignMessage)
            and msg.target == self.vid
            and msg.sender == self.leader
        ):
            self.tc = msg.tc
            self._enter_verify(self.params.color_for_tc(msg.tc), slot + 1)
            return True
        return False

    def _deliver_leader(self, slot: int, msg: Message) -> bool:
        # Alg. 3 L10-12: queue new intra-cluster color requests.
        if (
            isinstance(msg, RequestMessage)
            and msg.leader == self.vid
            and msg.sender not in self._queue
        ):
            if self._serving is None and not self._queue:
                # An idle leader starts serving it at the next slot.
                self._queue_ready = slot + 1
            self._queue[msg.sender] = None
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """A node is done once it has irrevocably decided (entered C_i)."""
        return self.phase is Phase.COLORED

    @property
    def state(self) -> NodeState:
        """Current paper-style state label (for tests and traces)."""
        if self.phase is Phase.SLEEP:
            return NodeState(Phase.SLEEP)
        if self.phase is Phase.REQUEST:
            return NodeState(Phase.REQUEST)
        return NodeState(self.phase, self.index)
