"""Event recording for simulation runs.

Analysis (Theorem 2's *at all times* independence, Lemma 6's counter
floor, per-node decision times) needs to observe the run, not just the
final coloring.  :class:`TraceRecorder` collects:

- cheap always-on counters: per-node transmissions, receptions, and
  collision-slots (slots in which >= 2 neighbors transmitted at a
  listening node — the node itself cannot observe this, but the
  omniscient trace can);
- cheap always-on **per-slot channel metrics** (:class:`ChannelMetrics`):
  transmitters, deliveries, collisions, injected losses, and RNG draws
  consumed per stream in each slot, one row per slot (appended in bulk
  for runs of slots).  These are the conformance harness's counters-first defense
  against measurement bugs (e.g. the PR 1 slot-count drift): a per-slot
  integer that disagrees between two engine paths localizes the bug to
  a slot without event-level archaeology;
- an event list for the rare, analysis-relevant events: wake-ups, state
  transitions, decisions (``level >= 1``);
- optionally every transmission/reception (``level >= 2``; large).

The recorder is deliberately engine-agnostic: protocol nodes emit
``state`` / ``decide`` events through it, the engine emits channel
events, and analysis replays the ordered event list.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["ChannelMetrics", "TraceEvent", "TraceRecorder"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event.

    ``kind`` is one of ``"wake"``, ``"state"``, ``"decide"``, ``"tx"``,
    ``"rx"``, ``"collision"``; ``data`` carries kind-specific payload
    (e.g. ``{"state": "A_3"}`` or ``{"color": 7}``).
    """

    slot: int
    node: int
    kind: str
    data: dict[str, Any] = field(default_factory=dict)


class ChannelMetrics:
    """Per-slot channel activity, one integer row appended per slot.

    Columns (all per slot):

    - ``tx`` — transmitting nodes;
    - ``rx`` — successful deliveries (exactly-one-transmitting-neighbor
      receptions that survived loss injection);
    - ``collisions`` — listening nodes that had >= 2 transmitting
      neighbors (per listener, not per colliding pair);
    - ``lost`` — otherwise-successful receptions dropped by injected
      loss (``loss_prob``);
    - ``protocol_draws`` — variates consumed from the protocol RNG
      stream during the slot;
    - ``loss_draws`` — variates consumed from the loss-injection stream
      during the slot.

    Each column is a compact ``array("i")`` (4 bytes per slot), so the
    always-on record of a long run stays small; appends stay cheap, and
    :meth:`as_arrays` converts to numpy for analysis.
    """

    FIELDS = ("tx", "rx", "collisions", "lost", "protocol_draws", "loss_draws")

    __slots__ = ("tx", "rx", "collisions", "lost", "protocol_draws", "loss_draws")

    def __init__(self) -> None:
        self.tx = array("i")
        self.rx = array("i")
        self.collisions = array("i")
        self.lost = array("i")
        self.protocol_draws = array("i")
        self.loss_draws = array("i")

    def append(
        self,
        tx: int,
        rx: int,
        collisions: int,
        lost: int,
        protocol_draws: int,
        loss_draws: int,
    ) -> None:
        """Record one slot's channel activity (engine-side, once per slot)."""
        self.tx.append(tx)
        self.rx.append(rx)
        self.collisions.append(collisions)
        self.lost.append(lost)
        self.protocol_draws.append(protocol_draws)
        self.loss_draws.append(loss_draws)

    def extend_empty(self, count: int, protocol_draws: int) -> None:
        """Record ``count`` consecutive *empty* slots in one append.

        An empty slot has no transmissions, deliveries, collisions, or
        injected losses, and consumes no loss draws — only the engine's
        unconditional per-slot transmit-decision draw (``protocol_draws``
        variates, ``n`` on the vectorized path).  The block-stepped
        engine advances runs of empty slots in bulk; this keeps the
        always-on metrics slot-exact without a Python call per slot.
        """
        if count <= 0:
            return
        zeros = array("i", [0]) * count
        self.tx.extend(zeros)
        self.rx.extend(zeros)
        self.collisions.extend(zeros)
        self.lost.extend(zeros)
        self.protocol_draws.extend(array("i", [protocol_draws]) * count)
        self.loss_draws.extend(zeros)

    def extend(
        self,
        tx: Sequence[int],
        rx: Sequence[int],
        collisions: Sequence[int],
        lost: Sequence[int],
        protocol_draws: Sequence[int],
        loss_draws: Sequence[int],
    ) -> None:
        """Record consecutive slots in one append per column (the rows of
        a fire run, written by :meth:`~repro.radio.channel.ChannelCore.
        deliver`); every sequence (a list or an ``array("i")``) holds one
        entry per slot."""
        self.tx.extend(tx)
        self.rx.extend(rx)
        self.collisions.extend(collisions)
        self.lost.extend(lost)
        self.protocol_draws.extend(protocol_draws)
        self.loss_draws.extend(loss_draws)

    def __len__(self) -> int:
        """Number of recorded slots."""
        return len(self.tx)

    def as_arrays(self) -> dict[str, np.ndarray]:
        """All columns as int64 arrays, indexed by slot."""
        return {
            name: np.asarray(getattr(self, name), dtype=np.int64)
            for name in self.FIELDS
        }

    def totals(self) -> dict[str, int]:
        """Column sums over all recorded slots."""
        return {name: int(sum(getattr(self, name))) for name in self.FIELDS}

    def row(self, slot: int) -> dict[str, int]:
        """One slot's metrics as a dict (negative slots index from the end)."""
        return {name: getattr(self, name)[slot] for name in self.FIELDS}


class TraceRecorder:
    """Collects events and counters for one simulation run.

    Parameters
    ----------
    n:
        Number of nodes (sizes the counter arrays).
    level:
        0 = counters only; 1 = plus wake/state/decide events (default);
        2 = plus every tx/rx/collision event (memory-heavy, tests only).
    """

    def __init__(self, n: int, level: int = 1) -> None:
        if level not in (0, 1, 2):
            raise ValueError(f"trace_level must be 0, 1 or 2, got {level!r}")
        self.n = int(n)
        self.level = int(level)
        self.events: list[TraceEvent] = []
        self.tx_count = np.zeros(self.n, dtype=np.int64)
        self.rx_count = np.zeros(self.n, dtype=np.int64)
        self.collision_count = np.zeros(self.n, dtype=np.int64)
        self.wake_slot = np.full(self.n, -1, dtype=np.int64)
        self.decide_slot = np.full(self.n, -1, dtype=np.int64)
        self.decide_color = np.full(self.n, -1, dtype=np.int64)
        #: number of nodes that have decided so far — O(1) completion
        #: checks, so run loops can evaluate their stop condition every
        #: slot and report the exact completion slot.
        self.decided = 0
        #: always-on per-slot channel metrics (appended by the engine).
        self.channel_metrics = ChannelMetrics()

    # -- protocol-side hooks ------------------------------------------------
    def wake(self, slot: int, node: int) -> None:
        """Record a wake-up."""
        self.wake_slot[node] = slot
        if self.level >= 1:
            self.events.append(TraceEvent(slot, node, "wake"))

    def state(self, slot: int, node: int, state: str) -> None:
        """Record a state transition (level >= 1)."""
        if self.level >= 1:
            self.events.append(TraceEvent(slot, node, "state", {"state": state}))

    def decide(self, slot: int, node: int, color: int) -> None:
        """Record an irrevocable color decision."""
        if self.decide_slot[node] < 0:
            self.decided += 1
        self.decide_slot[node] = slot
        self.decide_color[node] = color
        if self.level >= 1:
            self.events.append(TraceEvent(slot, node, "decide", {"color": color}))

    # -- engine-side hooks ---------------------------------------------------
    def tx(self, slot: int, node: int, msg: Any) -> None:
        """Count (and at level 2, log) a transmission; ``msg`` may be
        ``None`` below level 2, where it is not logged."""
        self.tx_count[node] += 1
        if self.level >= 2:
            self.events.append(TraceEvent(slot, node, "tx", {"msg": msg}))

    def log(self, slot: int, node: int, kind: str, data: dict[str, Any]) -> None:
        """At level 2, log a channel event (``"tx"``, ``"rx"`` or
        ``"collision"``) without counting it: the channel core writes
        the per-node counters of the rows it delivers from its arrays."""
        if self.level >= 2:
            self.events.append(TraceEvent(slot, node, kind, data))

    def channels(
        self,
        slot: int,
        tx: Sequence[int],
        rx: Sequence[int],
        collisions: Sequence[int],
        lost: Sequence[int],
        protocol_draws: Sequence[int],
        loss_draws: Sequence[int],
    ) -> None:
        """Record the metrics of consecutive slots starting at ``slot``,
        one list entry per slot.  ``slot`` must be the next unrecorded
        slot (the metrics lists are slot-indexed)."""
        if slot != len(self.channel_metrics):
            raise ValueError(
                f"channel metrics for slot {slot} after "
                f"{len(self.channel_metrics)} recorded slots"
            )
        self.channel_metrics.extend(tx, rx, collisions, lost, protocol_draws, loss_draws)

    def channel_empty(self, slot: int, count: int, protocol_draws: int) -> None:
        """Record ``count`` empty slots starting at ``slot`` in one bulk
        append (block-stepped engine; same slot-alignment contract as
        :meth:`channels`)."""
        if slot != len(self.channel_metrics):
            raise ValueError(
                f"channel metrics for slot {slot} after "
                f"{len(self.channel_metrics)} recorded slots"
            )
        self.channel_metrics.extend_empty(count, protocol_draws)

    # -- queries --------------------------------------------------------------
    def decision_times(self) -> np.ndarray:
        """Per-node ``T_v`` = decide slot - wake slot (the paper's time
        complexity measure); -1 where the node never decided."""
        out = np.full(self.n, -1, dtype=np.int64)
        decided = (self.decide_slot >= 0) & (self.wake_slot >= 0)
        out[decided] = self.decide_slot[decided] - self.wake_slot[decided]
        return out

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        """All recorded events of one kind, in insertion order."""
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> dict[str, float]:
        """Aggregate counters for reports."""
        times = self.decision_times()
        decided = times[times >= 0]
        return {
            "n": self.n,
            "decided": int((self.decide_slot >= 0).sum()),
            "tx_total": int(self.tx_count.sum()),
            "rx_total": int(self.rx_count.sum()),
            "collision_total": int(self.collision_count.sum()),
            "t_max": int(decided.max()) if decided.size else -1,
            "t_mean": float(decided.mean()) if decided.size else -1.0,
        }
