"""Non-aligned time slots: the Sect. 2 robustness claim, made testable.

The paper analyzes globally aligned slots but argues: *"Our algorithm
does not rely on this assumption in any way as long as the nodes'
internal clock runs roughly at the same speed.  Also, all analytical
results carry over to the practical non-aligned case with an additional
small constant factor, since each time slot can overlap with at most
two time-slots of a neighbor [29]."*

:class:`UnalignedRadioSimulator` implements that practical case: every
node ``v`` has a fixed phase offset ``phi_v in [0, 1)`` and its ``k``-th
slot occupies the real-time interval ``[k + phi_v, k + 1 + phi_v)``.  A
transmission fills the sender's whole slot; a listening node ``u``
receives in its slot ``k`` iff **exactly one** neighbor transmission
overlaps ``[k + phi_u, k + 1 + phi_u)``.  Because slots have unit
length, a transmission overlaps at most two slots of any neighbor —
precisely the [29] fact the constant-factor argument rests on (asserted
in the tests):

- ``phi_v == phi_u``: v's slot ``k`` overlaps only u's slot ``k``;
- ``phi_v > phi_u``: v's slot ``k`` overlaps u's slots ``k`` and ``k+1``;
- ``phi_v < phi_u``: v's slot ``k`` overlaps u's slots ``k-1`` and ``k``.

Modeling choice (generous decode): a single partially-overlapping
transmission is decodable.  The *blocking* effect — one transmission
contending with two neighbor slots — is what doubles collision
opportunities and is fully modeled; requiring full containment would
only add another constant.  E13 measures the resulting factor.

Protocol nodes are reused unchanged: they see their own slot indices,
and deliveries arrive at the end of the listener's slot.  Mechanically a
listener's slot ``k`` can only be finalized after every neighbor decided
its slot ``k+1`` (a smaller-offset neighbor's ``k+1`` transmission
reaches back into it), so the engine keeps three rolling contribution
buffers — slots ``t-1``, ``t``, ``t+1`` — while executing global step
``t``, and finalizes slot ``t-1`` at the end of the step.

Delivery, loss injection, message-size enforcement, and draw metering
are *not* reimplemented here: the rolling buffers only decide overlap
counts, then hand candidate rows to the shared
:class:`~repro.radio.channel.ChannelCore` — the same core the aligned
engine uses — which applies the delivery law, the loss stream (a child
generator, so ``loss_prob`` never perturbs the protocol trajectory at a
fixed seed), and the trace events.

Metrics lag convention: because slot ``k`` is finalized during step
``k + 1``, its :class:`~repro.radio.trace.ChannelMetrics` row is emitted
one step late — the row for slot ``k`` carries slot ``k``'s transmitter
count and protocol draws (stashed when step ``k`` ran) together with
slot ``k``'s delivery/collision/loss outcomes (known at finalize).  After
``s`` steps the recorder holds ``s - 1`` rows; the final slot's row is
never finalized (its successor step never runs).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs.deployment import Deployment
from repro.radio.channel import (
    Candidates,
    ChannelCore,
    FireRun,
    SlotSteppedSimulator,
)
from repro.radio.messages import Message
from repro.radio.node import ProtocolNode
from repro.radio.trace import TraceRecorder
from repro._util import RngMeter

__all__ = ["UnalignedRadioSimulator"]


class _SlotBuffer:
    """Per-listener-slot contribution accumulator."""

    __slots__ = ("count", "msg", "tx")

    def __init__(self, n: int) -> None:
        self.count = np.zeros(n, dtype=np.int64)
        self.msg: list[Message | None] = [None] * n
        self.tx = np.zeros(n, dtype=bool)  # listener itself transmitted

    def add(self, u: int, msg: Message) -> None:
        if self.count[u] == 0:
            self.msg[u] = msg
        self.count[u] += 1

    def reset(self) -> None:
        self.count[:] = 0
        self.tx[:] = False
        for i in range(len(self.msg)):
            self.msg[i] = None


class UnalignedRadioSimulator(SlotSteppedSimulator):
    """Slot-stepped simulator with per-node phase offsets.

    Parameters match :class:`~repro.radio.engine.RadioSimulator` plus
    ``offsets``: an ``(n,)`` float array in ``[0, 1)``.  When omitted,
    offsets are drawn from a *child generator* spawned off the protocol
    stream — never from the protocol stream itself, so omitting
    ``offsets`` does not shift the protocol trajectory at a fixed seed
    (same determinism contract as loss injection).  ``wake_slots`` are
    node-local slot indices, as before.
    """

    def __init__(
        self,
        deployment: Deployment,
        nodes: Sequence[ProtocolNode],
        wake_slots: Sequence[int] | np.ndarray,
        rng: np.random.Generator,
        trace: TraceRecorder | None = None,
        max_message_bits: int | None = None,
        loss_prob: float = 0.0,
        offsets: np.ndarray | None = None,
    ) -> None:
        n = deployment.n
        if len(nodes) != n:
            raise ValueError(f"{len(nodes)} nodes for {n}-node deployment")
        self.deployment = deployment
        self.nodes = list(nodes)
        for vid, node in enumerate(self.nodes):
            if node.vid != vid:
                raise ValueError(f"node at index {vid} has vid {node.vid}")
        self.wake_slots = np.asarray(wake_slots, dtype=np.int64)
        if self.wake_slots.shape != (n,):
            raise ValueError(f"wake_slots must have shape ({n},)")
        if n and self.wake_slots.min() < 0:
            raise ValueError("wake slots must be non-negative")
        self.rng = rng if isinstance(rng, RngMeter) else RngMeter(rng)
        self.trace = trace if trace is not None else TraceRecorder(n)
        self.max_message_bits = max_message_bits
        self.loss_prob = loss_prob
        # Core first: the loss child is always the protocol stream's first
        # spawn, exactly as on the aligned engine, so the loss stream of a
        # run with explicit offsets matches the aligned engine's at the
        # same seed (the conformance lockstep relies on this).
        self.core = ChannelCore(
            self.nodes,
            self.trace,
            self.rng,
            loss_prob=loss_prob,
            max_message_bits=max_message_bits,
            id_space=n,
        )
        self.core.on_deliver = self._on_deliver
        if offsets is None:
            # Child generator, not the protocol stream: the default-offsets
            # convenience must not shift protocol draws (regression-tested).
            offsets = self.rng.spawn(1)[0].uniform(0.0, 1.0, size=n)
        self.offsets = np.asarray(offsets, dtype=float)
        if self.offsets.shape != (n,):
            raise ValueError(f"offsets must have shape ({n},)")
        if n and not ((self.offsets >= 0.0) & (self.offsets < 1.0)).all():
            raise ValueError("offsets must lie in [0, 1)")

        self.slot = 0
        self._neighbors = deployment.neighbors
        # Within a step, nodes act in real-time order of their slot starts.
        self._order = [int(v) for v in np.argsort(self.offsets, kind="stable")]
        # Rolling buffers for listener slots t-1 (prev), t (cur), t+1 (nxt)
        # while executing global step t.
        self._prev = _SlotBuffer(n)
        self._cur = _SlotBuffer(n)
        self._nxt = _SlotBuffer(n)
        # A transmission overlaps up to two listener slots but is decoded
        # at most once: remember what each listener decoded last slot.
        # (Relies on protocols returning a fresh message object per
        # transmission, which all nodes in this library do.)
        self._just_delivered: list[Message | None] = [None] * n
        self._delivered_now: list[tuple[int, Message]] = []
        # Metrics lag: slot t's transmitters and protocol draws, emitted
        # with slot t's outcomes when step t+1 finalizes it.
        self._pending_senders: list[int] = []
        self._pending_draws = 0

    # ------------------------------------------------------------------
    @property
    def all_woken(self) -> bool:
        if self.deployment.n == 0:
            return True
        return bool((self.wake_slots <= self.slot).all())

    def _on_deliver(self, u: int, msg: Message, report: bool | None) -> bool:
        """Core delivery hook: track decodes for double-overlap dedup
        (never cuts: every run here is one slot)."""
        self._delivered_now.append((u, msg))
        return False

    def step(self) -> None:
        """Execute every node's slot ``t``, then finalize slot ``t-1``
        (emitting slot ``t-1``'s channel-metrics row)."""
        t = self.slot
        nodes = self.nodes
        offsets = self.offsets
        rng = self.rng
        prev, cur = self._prev, self._cur
        record_tx = self.core.record_tx
        draws0 = rng.draws
        outbox: list[tuple[int, Message]] = []

        for v in self._order:
            node = nodes[v]
            if self.wake_slots[v] > t:
                continue
            if not node.awake:
                node.wake(t)
                self.trace.wake(t, v)
            msg = node.step(t, rng)
            if msg is None:
                continue
            record_tx(t, v, msg, outbox)
            cur.tx[v] = True  # v cannot receive in its own slot t
            phi_v = offsets[v]
            for u in self._neighbors[v]:
                phi_u = offsets[u]
                if phi_v == phi_u:
                    cur.add(u, msg)
                elif phi_v > phi_u:
                    cur.add(u, msg)
                    self._nxt.add(u, msg)
                else:
                    prev.add(u, msg)
                    cur.add(u, msg)
        step_draws = rng.draws - draws0

        if t >= 1:
            self._finalize(prev, t - 1)
        self._pending_senders = [v for v, _ in outbox]
        self._pending_draws = step_draws

        # Rotate: prev <- cur, cur <- nxt, nxt <- recycled prev.
        prev.reset()
        self._prev, self._cur, self._nxt = self._cur, self._nxt, prev
        self.slot = t + 1

    def _finalize(self, buf: _SlotBuffer, k: int) -> None:
        """Resolve slot ``k``'s contribution buffer through the core.

        Builds the candidate rows (ascending listener order, as the PHY
        contract demands) and lets :meth:`ChannelCore.deliver` apply the
        delivery law and loss injection and write slot ``k``'s metrics
        row.  The run's transmissions are slot ``k``'s own (logged by
        :meth:`ChannelCore.record_tx` when step ``k`` ran); its message
        table holds each row's first overlapping message.  A listener is
        eligible iff it was awake in slot ``k`` and did not itself
        transmit then; the second overlap of an already-decoded
        transmission is dropped before the core sees it (it must neither
        re-deliver nor consume a loss draw for a decode that already
        happened).
        """
        just = self._just_delivered
        wake_slots = self.wake_slots
        listeners: list[int] = []
        counts: list[int] = []
        eligible: list[bool] = []
        msgs: list[Message | None] = []
        for u in np.flatnonzero(buf.count).tolist():
            count = int(buf.count[u])
            msg = buf.msg[u]
            if count == 1 and msg is just[u]:
                continue  # second overlap of an already-decoded tx
            listeners.append(u)
            counts.append(count)
            eligible.append(bool(wake_slots[u] <= k) and not buf.tx[u])
            msgs.append(msg)
        senders = self._pending_senders
        run = FireRun(
            k, k + 1, [k] * len(senders), senders, self._pending_draws, msgs=msgs
        )
        self._delivered_now.clear()
        self.core.deliver(
            k,
            Candidates(
                run,
                [k] * len(listeners),
                listeners,
                counts,
                [i if c == 1 else -1 for i, c in enumerate(counts)],
                eligible,
            ),
        )
        new_last: list[Message | None] = [None] * self.deployment.n
        for u, msg in self._delivered_now:
            new_last[u] = msg
        self._just_delivered = new_last
