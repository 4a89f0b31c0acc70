"""Per-node protocol logic: Algorithms 1, 2, and 3 of the paper.

The implementation mirrors the pseudocode line-by-line (line references
in comments), with two mechanical transformations that change *nothing*
observable but make the per-slot cost O(1):

1. **Lazy counters.**  The pseudocode increments ``c_v`` and every local
   copy ``d_v(w)`` once per slot (Alg. 1, L5/L17/L18).  We store
   ``(value_at_ref, ref_slot)`` pairs instead; the current value is
   ``value_at_ref + (slot - ref_slot)``.  Increments become free and the
   threshold crossing (L19) becomes a precomputed slot number.

2. **Geometric transmission skips.**  Transmitting independently with
   probability ``p`` in every slot (L22) is equivalent to drawing the gap
   to the next transmission from a geometric distribution.  A node
   therefore touches its RNG only when it actually transmits.

Both transformations follow the HPC guides' doctrine: find the per-slot
hot path and make it do no work.
"""

from __future__ import annotations

from collections import deque

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
        "_queued",
        "_tc_counter",
        "_serving",
        "_serve_end",
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
        self._competitors: dict[int, tuple[int, int]] = {}  # w -> (c_w, slot)
        self._c_ref = 0
        self._c_ref_slot = 0
        self._decide_slot = _FAR
        self._crit = 0  # ceil(gamma * zeta_i * log n) for current i
        self._next_tx = _FAR
        # --- leader (C_0) machinery ---
        self._queue: deque[int] = deque()
        self._queued: set[int] = set()
        self._tc_counter = 0  # tc (Alg.3 L7)
        self._serving: tuple[int, int] | None = None  # (target, tc)
        self._serve_end = _FAR
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
        """Current local copy ``d_v(w)`` (stored value plus one increment
        per elapsed slot; Alg. 1 L5/L18)."""
        c_w, t0 = self._competitors[w]
        return c_w + (slot - t0)

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
    # Slot step (transmit phase)
    # ------------------------------------------------------------------
    def step(self, slot: int, rng: np.random.Generator) -> Message | None:
        """One slot of local computation; returns a message to transmit
        or None to listen (the engine's phase-2 hook)."""
        phase = self.phase
        if phase is Phase.VERIFY:
            return self._step_verify(slot, rng)
        if phase is Phase.REQUEST:
            return self._step_request(slot, rng)
        if phase is Phase.COLORED:
            return self._step_colored(slot, rng)
        return None  # pragma: no cover - sleeping nodes are never stepped

    def _step_verify(self, slot: int, rng: np.random.Generator) -> Message | None:
        if not self._active:
            if slot < self._wait_end:
                return None  # L4: still listening passively
            # L15: become active; c_v := chi(P_v), evaluated after the
            # last passive slot's increments.
            self._active = True
            self._set_counter(self._chi(slot - 1), slot - 1)
            self._next_tx = (slot - 1) + int(rng.geometric(self.params.p_active))
        # L17-18: increments are implicit in the lazy representation.
        if slot >= self._decide_slot:
            # L19-20: threshold reached -> decide color i, start Alg. 3.
            self._enter_colored(self.index, slot)
            return self._step_colored(slot, rng, fresh=True)
        if slot >= self._next_tx:
            # L22: transmit M_A^i(v, c_v) with probability 1/(kappa2*Delta).
            self._next_tx = slot + int(rng.geometric(self.params.p_active))
            return CounterMessage(
                sender=self.vid, color=self.index, counter=self.counter(slot)
            )
        return None

    def _step_request(self, slot: int, rng: np.random.Generator) -> Message | None:
        if self._next_tx == _FAR:
            self._next_tx = (slot - 1) + int(rng.geometric(self.params.p_active))
        if slot >= self._next_tx:
            # Alg. 2 L2: request an intra-cluster color from the leader.
            self._next_tx = slot + int(rng.geometric(self.params.p_active))
            assert self.leader is not None
            return RequestMessage(sender=self.vid, leader=self.leader)
        return None

    def _step_colored(
        self, slot: int, rng: np.random.Generator, fresh: bool = False
    ) -> Message | None:
        p = self.params
        if self.index > 0:
            # Alg. 3 L3-5: keep announcing the chosen color.
            if fresh:
                self._next_tx = (slot - 1) + int(rng.geometric(p.p_active))
            if slot >= self._next_tx:
                self._next_tx = slot + int(rng.geometric(p.p_active))
                return ColorMessage(sender=self.vid, color=self.index)
            return None

        # Leader (C_0), Alg. 3 L6-23.
        if fresh:
            self._next_tx = (slot - 1) + int(rng.geometric(p.p_leader))
        # Serving-window bookkeeping (L18-21).
        if self._serving is not None and slot >= self._serve_end:
            done = self._queue.popleft()  # L21
            self._queued.discard(done)
            self._serving = None
        if self._serving is None and self._queue:
            # L16-18: next request; tc is incremented per served node.
            self._tc_counter += 1
            self._serving = (self._queue[0], self._tc_counter)
            self._serve_end = slot + p.serve_window
        if slot >= self._next_tx:
            self._next_tx = slot + int(rng.geometric(p.p_leader))
            if self._serving is not None:
                target, tc = self._serving
                # L19: transmit M_C^0(v, w, tc).
                return AssignMessage(sender=self.vid, color=0, target=target, tc=tc)
            # L14: idle leader announces itself.
            return ColorMessage(sender=self.vid, color=0)
        return None

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
            self._competitors[msg.sender] = (msg.counter, slot)
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
            and msg.sender not in self._queued
        ):
            self._queue.append(msg.sender)
            self._queued.add(msg.sender)
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
