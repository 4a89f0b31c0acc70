"""The slot-stepped radio simulation engine.

Per-slot semantics (Sect. 2 of the paper):

1. nodes whose wake slot equals the current slot wake up;
2. every awake node runs its protocol step and either transmits one
   message or listens;
3. a listening node receives iff *exactly one* of its graph neighbors
   transmitted; with two or more, all their transmissions are lost at
   that node (no collision detection — the node observes nothing);
4. a transmitting node receives nothing, and learns nothing about who
   received it (no acknowledgements).

Phases 3–4 — turning a transmission set into per-listener outcomes —
live in :mod:`repro.radio.channel`: a pluggable :class:`~repro.radio.
channel.PhyModel` decides who can hear whom (the default
:class:`~repro.radio.channel.CollisionPhy` implements the rule above;
:class:`~repro.radio.channel.MultiChannelPhy` resolves per channel) and
the shared :class:`~repro.radio.channel.ChannelCore` applies loss
injection, delivery, and metrics emission.  This module owns phases
1–2: wake-up processing and collecting each slot's transmissions.

Performance: sending probabilities in the algorithm are ``1/(kappa_2 *
Delta)`` (non-leaders) or ``1/kappa_2`` (leaders), so the expected number
of transmitters per slot is small even in large networks.  The default
PHY is therefore *transmitter-centric*: it expands only the
neighborhoods of actual transmitters instead of scanning all ``n``
nodes — the "compute on what's hot" advice from the HPC guides.

The engine advances in *spans*: consecutive slots in which no wake and
no scheduled event falls, so that only a delivery can change the state
a span's transmissions were decided under.  One span loop,
:meth:`RadioSimulator.step_block` (:meth:`~RadioSimulator.step` is a
span of one slot), serves two event-driven routes, chosen by the node
population alone:

- the **vectorized route** engages when *every* node implements the
  batched interface (``tx_prob``; see :mod:`repro.radio.node` and
  :class:`~repro.core.vector_node.BernoulliColoringNode`).  The engine
  keeps dense per-node send probabilities, event slots and delivery
  keys, and draws the transmit Bernoullis of all nodes for a span in
  one segment draw.  It pays Python-call cost only for deliveries the
  key filter lets through, the senders whose messages those deliveries
  need, and (rare) state events;
- the **event-driven classic route** engages when every node has
  ``next_step_slot`` (:class:`~repro.core.node.ColoringNode` does).  A
  node steps only at the slots where its step can transmit, draw or
  change state, and a span's steps are taken ahead of its deliveries;
  the ones a state-changing delivery overtakes are taken back.

On both, a span's transmissions are resolved and delivered as one
:class:`~repro.radio.channel.FireRun`, cut after the first slot whose
deliveries change the state, and a stretch in which nothing can
transmit is recorded in bulk.  Any other population (the
frame-coloring baseline, the executable-spec reference, ad-hoc test
nodes) steps every awake node every slot in a per-slot loop, where a
slot with transmissions is a fire run of one slot; that loop is the
independent reference both routes are tested against.

Determinism contract: the protocol stream (``rng``) is consumed in slot
order by protocol decisions only.  Loss injection draws from a *spawned
child generator*, never from the protocol stream, so a fixed seed yields
the identical protocol trajectory at any ``loss_prob`` (paired
experiments; see DESIGN.md §5).  Within a slot, deliveries, collisions,
and loss draws are processed in **ascending node order** regardless of
which execution path produced the transmissions — this canonical order
is what makes the two paths' traces comparable slot-for-slot (the
conformance harness, :mod:`repro.conform`, depends on it).

Both streams are metered (:class:`repro._util.RngMeter`): the engine
records the number of variates each stream consumed in every slot as
part of the always-on per-slot channel metrics
(:class:`~repro.radio.trace.ChannelMetrics`), so RNG-coupling
regressions show up as counter drift, not as unexplained trajectory
changes three experiments later.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Sequence
from heapq import heapify, heappop, heappush
from typing import Any

import numpy as np

from repro.graphs.deployment import Deployment
from repro.radio.channel import (
    ChannelCore,
    CollisionPhy,
    FireRun,
    PhyModel,
    SimulationResult,
    SlotSteppedSimulator,
)
from repro.radio.messages import Message
from repro.radio.node import ProtocolNode
from repro.radio.trace import TraceRecorder
from repro._util import RngMeter

__all__ = ["RadioSimulator", "SimulationResult"]

#: effectively-infinite slot number for "no scheduled event"
_FAR = 1 << 62

# Span cap: a classic span takes the steps of at most this many slots
# ahead of their deliveries, which bounds the steps a cut takes back,
# and a segment draw covers at most this many slots.
_DRAW_CHUNK = 128
# Byte cap of the one reused segment buffer (_DRAW_CHUNK rows up to
# n = 2048, 2 rows at n = 10^5, one row of n uniforms beyond 2^18
# nodes).  Keeps the working set cache-resident — PCG64 throughput
# degrades ~3x when each segment draw faults in fresh multi-megabyte
# pages — and the buffer's memory flat in n.  Both caps are execution
# details: results never depend on them.
_DRAW_BYTES = 1 << 21


class RadioSimulator(SlotSteppedSimulator):
    """Drives a set of :class:`ProtocolNode` objects over a deployment.

    Parameters
    ----------
    deployment:
        Static topology (adjacency comes from its cached neighbor arrays).
    nodes:
        One protocol node per graph node, indexed by ``vid``.
    wake_slots:
        Per-node wake slot (asynchronous wake-up pattern); ``0`` everywhere
        models synchronous start.
    rng:
        Generator driving *all* protocol randomness, in slot order — a
        fixed seed reproduces the run exactly.  Loss injection uses a
        child generator spawned from this one (see module docstring).
    trace:
        Optional recorder; a level-1 recorder is created if omitted.
    max_message_bits:
        If not ``None``, every transmitted message is checked against this
        size bound (model compliance, Sect. 2); violations raise.
    loss_prob:
        Failure injection: each otherwise-successful reception is
        additionally dropped with this probability (receiver-side, i.i.d.).
        Models short-term fading bursts beyond the collision losses the
        model already has.  The algorithm never relies on any particular
        delivery, so it must degrade gracefully — the robustness tests
        measure how much.  Losses are silent (no collision event either):
        the receiver observes nothing, exactly like a collision.
    phy:
        Channel model resolving each slot's transmission set
        (:class:`~repro.radio.channel.PhyModel`); defaults to the paper's
        single-channel :class:`~repro.radio.channel.CollisionPhy`.
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
        phy: PhyModel | None = None,
    ) -> None:
        self._set_population(deployment, nodes, wake_slots)
        n = deployment.n
        # Both streams are metered so per-slot draw counts land in the
        # channel metrics; metering is a transparent proxy (same stream).
        self.rng = rng if isinstance(rng, RngMeter) else RngMeter(rng)
        self.trace = trace if trace is not None else TraceRecorder(n)
        self.max_message_bits = max_message_bits
        self.loss_prob = loss_prob
        # The core spawns the loss child (first spawn off the protocol
        # stream) and owns delivery; the PHY spawns any side stream of its
        # own at bind, strictly after — a fixed spawn order shared by
        # every simulator, so lockstep paths see identical child streams.
        self.core = ChannelCore(
            self.nodes,
            self.trace,
            self.rng,
            loss_prob=loss_prob,
            max_message_bits=max_message_bits,
            id_space=n,
        )
        self.phy = phy if phy is not None else CollisionPhy()
        self.phy.bind(self)

        self.slot = 0
        # Wake order: nodes grouped by wake slot for O(1) wake processing.
        order = np.argsort(self.wake_slots, kind="stable")
        self._wake_order = order
        self._next_wake = 0  # index into _wake_order
        # Next pending wake slot as a plain int: every span guards its
        # wake processing on one integer compare instead of a numpy index
        # into _wake_order.
        self._next_wake_slot = int(self.wake_slots[order[0]]) if n else _FAR
        self._awake: list[int] = []
        self._append_metrics = self.trace.channel_metrics.append
        # Delivery keys (listen key; the two message keys) of both
        # event-driven routes, handed to the core's delivery filter.
        self._keys = (
            np.full(n, -1, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
        )
        # State generation: bumped whenever a node's cached state actually
        # changes (vectorized route) or a delivery may have changed it
        # (classic route).  A fire run is taken under one generation and
        # cut where it moves.
        self._gen = 0
        # Event-driven classic route, chosen by the node population alone
        # (engaged iff every node has ``next_step_slot``): each node's
        # next due step (_FAR while asleep) and the list's minimum, and
        # each node's next event slot, which ends a span.  Without it
        # ``_due_min`` stays 0, so every awake node steps every slot.
        self._due: list[int] | None = None
        self._due_min = 0
        self._evt_slots: list[int] = []
        # The steps of the current span past its first slot, as (slot,
        # node, schedule before, schedule after), and the protocol stream
        # before each of their slots: what a cut takes back.
        self._taken: list[tuple[int, int, Any, Any]] = []
        self._marks: list[tuple[int, tuple[dict[str, Any], int, int]]] = []
        # Vectorized fast path, chosen by the node population alone
        # (engaged iff every node implements the batched interface):
        # dense per-node send probabilities, next scheduled event slots
        # and delivery keys, refreshed whenever a node's state can have
        # changed.
        self.vectorized = n > 0 and all(hasattr(node, "tx_prob") for node in self.nodes)
        if self.vectorized:
            self._p = np.zeros(n, dtype=np.float64)
            self._evt = np.full(n, _FAR, dtype=np.int64)
            # Cached minimum of _evt, maintained stale-low-safe: _refresh
            # lowers it eagerly, and it is recomputed exactly whenever due
            # events are processed.  A stale-low value only costs a cheap
            # recheck; it can never skip a due event.
            self._evt_min = _FAR
            # Fire-candidate cache, keyed on the state generation: the
            # columns with p > 0 and their probabilities.  State changes
            # (wakes, events, deliveries) are rare relative to slots, so
            # spans reuse these instead of recomputing full-width
            # nonzero/p scans.
            self._active = np.empty(0, dtype=np.int64)
            self._pa = np.empty(0, dtype=np.float64)
            self._active_gen = -1
            # The segment buffer every segment draw reuses (its pages
            # are touched only by the rows a draw fills) and the current
            # segment: uniforms for the slots [_seg_lo, _seg_hi).
            rows = min(_DRAW_CHUNK, max(1, _DRAW_BYTES // (8 * n)))
            self._draw_buf = np.empty((rows, n))
            self._seg = self._draw_buf
            self._seg_lo = self._seg_hi = 0
            self.core.on_deliver = self._on_deliver
            self.core.keys = self._keys
        elif n > 0 and all(hasattr(node, "next_step_slot") for node in self.nodes):
            self._due = [_FAR] * n
            self._due_min = _FAR
            self._evt_slots = [_FAR] * n
            self.core.on_deliver = self._on_deliver_classic
            self.core.keys = self._keys

    # ------------------------------------------------------------------
    @property
    def all_woken(self) -> bool:
        """Whether every node's wake slot has passed."""
        return self._next_wake >= len(self._wake_order)

    def _refresh(self, v: int) -> bool:
        """Re-read node ``v``'s send probability, next event slot and
        delivery keys (fast path bookkeeping after wake / event /
        delivery).  Bumps the state generation, and returns ``True``,
        only on an actual change."""
        node = self.nodes[v]
        p = node.tx_prob()
        e = node.next_event_slot()
        listen = node.listen_key()
        send_a, send_b = node.message_keys()
        keys = self._keys
        if (
            p != self._p[v]
            or e != self._evt[v]
            or listen != keys[0][v]
            or send_a != keys[1][v]
            or send_b != keys[2][v]
        ):
            self._p[v] = p
            self._evt[v] = e
            keys[0][v] = listen
            keys[1][v] = send_a
            keys[2][v] = send_b
            self._gen += 1
            if e < self._evt_min:
                self._evt_min = e
            return True
        return False

    def _on_deliver(self, slot: int, u: int, msg: Message, report: bool | None) -> bool:
        """Core delivery hook: a node whose ``deliver`` did not report
        ``False`` is re-read; a real change cuts the fire run."""
        return report is not False and self._refresh(u)

    def _reread(self, v: int, slot: int) -> None:
        """Re-read node ``v``'s due step (as ``next_step_slot(slot)``),
        next event slot and delivery keys (event-driven classic route,
        after a wake, a step or a delivery)."""
        node = self.nodes[v]
        assert self._due is not None
        due = self._due[v] = node.next_step_slot(slot)
        if due < self._due_min:
            self._due_min = due
        self._evt_slots[v] = node.next_event_slot()
        keys = self._keys
        keys[0][v] = node.listen_key()
        keys[1][v], keys[2][v] = node.message_keys()

    def _on_deliver_classic(
        self, slot: int, u: int, msg: Message, report: bool | None
    ) -> bool:
        """Core delivery hook of the event-driven classic route: a node
        whose ``deliver`` did not report ``False`` is re-read, and the
        fire run is cut after this slot (the steps taken past it were
        taken under the old state)."""
        if report is False:
            return False
        self._reread(u, slot)
        self._gen += 1
        return True

    def _wake_due(self, t: int) -> None:
        """Phase 1: wake nodes whose wake slot is ``t``."""
        vectorized = self.vectorized
        order = self._wake_order
        while self._next_wake < len(order):
            v = int(order[self._next_wake])
            if self.wake_slots[v] != t:
                break
            self.nodes[v].wake(t)
            self.trace.wake(t, v)
            self._next_wake += 1
            if vectorized:
                # The awake roster is classic-path state (_collect_classic
                # iterates it); the fast path tracks wakefulness through
                # the dense _p/_evt arrays instead, so appending here
                # would be dead work and memory held for the whole run.
                self._refresh(v)
            else:
                if self._due is not None:
                    self._reread(v, t - 1)
                self._awake.append(v)
        self._next_wake_slot = (
            int(self.wake_slots[order[self._next_wake]])
            if self._next_wake < len(order)
            else _FAR
        )

    def _events_due(self, t: int) -> None:
        """Phase 2a (fast path): apply every scheduled event due at ``t``."""
        evt = self._evt
        for v in np.nonzero(evt <= t)[0]:
            self.nodes[v].on_event(t)
            self._refresh(int(v))
        self._evt_min = int(evt.min())

    def _update_active(self) -> np.ndarray:
        """The fire-candidate columns (``p > 0``) under the current state
        generation, rebuilt only when it moved."""
        if self._active_gen != self._gen:
            self._active = np.nonzero(self._p > 0.0)[0]
            self._pa = self._p[self._active]
            self._active_gen = self._gen
        return self._active

    def _collect_drawn(self, t: int, bound: int) -> FireRun:
        """Phase 2 (vectorized route): the fire run of a span ``[t,
        lim)``, ``lim <= bound``: every ``(slot, node)`` whose uniform,
        from the current segment or a new segment draw, falls below the
        node's send probability."""
        nodes = self.nodes
        n = len(nodes)
        if t >= self._seg_hi:
            m = min(bound - t, len(self._draw_buf))
            self._seg = self.rng.fill(self._draw_buf[:m])
            self._seg_lo, self._seg_hi = t, t + m
        lim = min(bound, self._seg_hi)
        sub = self._seg[t - self._seg_lo : lim - self._seg_lo]
        active = self._active
        if active.size == n:
            rows, senders = np.nonzero(sub < self._p)
        else:
            rows, cols = np.nonzero(sub[:, active] < self._pa)
            senders = active[cols]
        return FireRun(t, lim, rows + t, senders, [n] * (lim - t), nodes=nodes)

    def _collect_classic(self, t: int, end: int) -> FireRun:
        """Phase 2 (classic route): the protocol steps of a span of
        slots ``[t, lim)``, returned as its fire run (``lim`` is the
        run's ``t1``, at most ``end``).

        The awake nodes due at ``t`` step first, in roster (wake) order,
        and their transmissions are recorded at once; wakes and
        scheduled events step only there.  On the event-driven route
        the span then runs to the next wake, the next scheduled event,
        ``end`` or ``_DRAW_CHUNK`` slots, whichever comes first, and the
        steps due inside it are taken in (slot, roster) order, so the
        protocol stream is drawn in the per-slot order; a node skipped
        would have returned ``None``, drawn nothing and changed nothing.
        Those later steps are taken before any delivery of the span, so
        each is logged for :meth:`_take_back`, and the core records
        their transmissions as it processes their slots.  Off the
        event-driven route every awake node steps at ``t`` and the span
        is that one slot."""
        rng = self.rng
        nodes = self.nodes
        awake = self._awake
        due = self._due
        record_tx = self.core.record_tx
        outbox: list[tuple[int, Message]] = []
        draws0 = rng.draws
        if due is None:
            for v in awake:
                msg = nodes[v].step(t, rng)
                if msg is not None:
                    record_tx(t, v, msg, outbox)
            return FireRun.recorded(t, outbox, rng.draws - draws0)
        taken = self._taken
        marks = self._marks
        taken.clear()
        marks.clear()
        reread = self._reread
        for v in [v for v in awake if due[v] <= t]:
            msg = nodes[v].step(t, rng)
            reread(v, t)
            if msg is not None:
                record_tx(t, v, msg, outbox)
        lim = t + 1
        if end > lim:
            bound = min(self._next_wake_slot, min(self._evt_slots), end)
            lim = max(lim, min(bound, t + _DRAW_CHUNK))
        if lim == t + 1:
            self._due_min = min(due)
            return FireRun.recorded(t, outbox, rng.draws - draws0)
        draws = [0] * (lim - t)
        draws[0] = rng.draws - draws0
        slots = [t] * len(outbox)
        senders = [v for v, _ in outbox]
        msgs: list[Message | None] = [msg for _, msg in outbox]
        heap = [(due[v], pos) for pos, v in enumerate(awake) if due[v] < lim]
        heapify(heap)
        cur = t
        while heap:
            s, pos = heappop(heap)
            if s != cur:
                marks.append((s, rng.checkpoint()))
                cur = s
            v = awake[pos]
            node = nodes[v]
            before = node.schedule()
            drawn = rng.draws
            msg = node.step(s, rng)
            draws[s - t] += rng.draws - drawn
            taken.append((s, v, before, node.schedule()))
            # Before its next event a step changes only the schedule, so
            # the event slot and the keys stand.
            d = due[v] = node.next_step_slot(s)
            if msg is not None:
                slots.append(s)
                senders.append(v)
                msgs.append(msg)
            if d < lim:
                heappush(heap, (d, pos))
        self._due_min = min(due)
        return FireRun(
            t,
            lim,
            np.array(slots, dtype=np.int64),
            np.array(senders, dtype=np.int64),
            draws,
            msgs=msgs,
            logged=len(outbox),
        )

    def _take_back(self, end: int) -> None:
        """Undo the current span's steps taken at slots ``>= end``: the
        protocol stream returns to where the first of them began, and
        each node gets its schedule back through ``unstep``, newest step
        first, then is re-read as of ``end - 1``."""
        taken = self._taken
        if not taken or taken[-1][0] < end:
            return
        marks = self._marks
        while len(marks) > 1 and marks[-2][0] >= end:
            marks.pop()
        self.rng.rewind(marks.pop()[1])
        nodes = self.nodes
        undone: list[int] = []
        while taken and taken[-1][0] >= end:
            _, v, before, after = taken.pop()
            nodes[v].unstep(before, after)
            undone.append(v)
        for v in dict.fromkeys(undone):
            self._reread(v, end - 1)

    def _fire_run(self, run: FireRun) -> int:
        """Phases 3-4 of a fire run (every route): the PHY resolves it,
        the core delivers and records it; returns the end of the
        processed span.  A cut before ``run.t1`` hands the PHY's side
        stream back to the cut."""
        end = self.core.deliver(run.t0, self.phy.resolve(run.t0, run))
        if end < run.t1:
            self.phy.rewind(end)
        return end

    def refresh(self, v: int) -> None:
        """Re-read node ``v`` after the caller changed it between steps
        (E16 kills leaders this way): its send probability or next due
        step, its next event slot and its delivery keys.  A no-op for
        populations stepped every slot, which cache nothing."""
        if self.vectorized:
            self._refresh(v)
        elif self._due is not None:
            self._reread(v, self.slot - 1)
            self._due_min = min(self._due)

    def step(self) -> None:
        """Advance the network by one slot (and record its channel
        metrics: transmitters, deliveries, collisions, injected losses,
        and the RNG draws each stream consumed).

        On both event-driven routes this is :meth:`step_block` of one
        slot.  Any other population steps every awake node: a slot with
        transmissions is a fire run of one slot, and an empty slot skips
        the PHY and the core (channel contract item 4) and appends its
        metrics row directly."""
        if self.vectorized or self._due is not None:
            self.step_block(1)
            return
        t = self.slot
        if self._next_wake_slot <= t:
            self._wake_due(t)
        run = self._collect_classic(t, t + 1)
        if len(run):
            self._fire_run(run)
        else:
            self._append_metrics(0, 0, 0, 0, run.draws[0], 0)
        self.slot = t + 1

    # -- span loop -------------------------------------------------------
    def _stop_at(
        self,
        t: int,
        lim: int,
        stop_when: Callable[[SlotSteppedSimulator], bool] | None,
        check_every: int,
    ) -> int | None:
        """The first stop-check boundary in ``[t + 1, lim]`` if the stop
        predicate holds there, else ``None``.  State is frozen over
        ``[t, lim)`` until a delivery changes it, so one evaluation
        decides every boundary of the span."""
        if stop_when is None or not self.all_woken:
            return None
        s = -((t + 1) // -check_every) * check_every
        if s > lim:
            return None
        self.slot = s
        return s if stop_when(self) else None

    def step_block(
        self,
        count: int,
        stop_when: Callable[[SlotSteppedSimulator], bool] | None = None,
        check_every: int = 16,
    ) -> bool:
        """Advance up to ``count`` slots, paying Python cost per *span*
        of frozen state rather than per slot; trajectory- and
        metrics-identical to ``count`` slots of the per-slot loop, which
        any other population runs.

        Wakes and scheduled events end a span; within it no node's send
        probability, due step, event slot or delivery key changes except
        through deliveries.  A stretch in which nothing can transmit
        (every send probability zero; no step due) is recorded in bulk,
        the vectorized stream advanced by
        :meth:`~repro._util.RngMeter.skip`.  Otherwise the span's
        transmissions are collected (:meth:`_collect_drawn`,
        :meth:`_collect_classic`) and resolved and delivered in one
        :meth:`_fire_run`, cut after the first slot whose deliveries
        change the state; the next span resumes there, on the segment's
        remaining rows, and classic steps past the cut are taken back
        (:meth:`_take_back`) and taken again.

        Stop predicates must be state-only (see
        :meth:`SlotSteppedSimulator.run`): the predicate is evaluated
        once per span, before its run, and a true result is localized to
        the exact first ``check_every`` boundary the per-slot loop would
        have stopped at; after a cut it is evaluated again if the cut
        lands on a boundary.  After such an early stop the generator
        object sits past the uniforms drawn for the rest of the current
        segment; a caller that keeps stepping is served those rows
        first.
        """
        vectorized = self.vectorized
        due = self._due
        if not vectorized and due is None:
            return super().step_block(count, stop_when, check_every)
        n = len(self.nodes)
        rng = self.rng
        trace = self.trace
        t = self.slot
        end = t + count
        while t < end:
            self.slot = t
            # Phases 1-2a: wakes, then scheduled events, due at t.
            if self._next_wake_slot <= t:
                self._wake_due(t)
            if vectorized:
                if self._evt_min <= t:
                    self._events_due(t)
                active = self._update_active()
                # No wake or scheduled event falls inside [t, bound).
                bound = max(min(self._next_wake_slot, self._evt_min, end), t + 1)
                idle = active.size == 0 and t >= self._seg_hi
            else:
                bound = min(self._due_min, self._next_wake_slot, end)
                idle = bound > t
            if idle:
                # Nothing can transmit before bound (random() < 0.0
                # never holds; no step is due): record it in bulk.
                s = self._stop_at(t, bound, stop_when, check_every)
                lim = bound if s is None else s
                if vectorized:
                    rng.skip((lim - t) * n)
                trace.channel_empty(t, lim - t, n if vectorized else 0)
                if s is not None:
                    return True
                t = lim
                continue
            if vectorized:
                run = self._collect_drawn(t, bound)
            else:
                run = self._collect_classic(t, end)
            # A true stop predicate ends the span at its first boundary.
            s = self._stop_at(t, run.t1, stop_when, check_every)
            if s is not None and s < run.t1:
                self._take_back(s)
                k = int(run.slot.searchsorted(s))
                run = FireRun(
                    t, s, run.slot[:k], run.sender[:k], run.draws[: s - t],
                    msgs=run.msgs[:k], nodes=run.nodes, logged=run.logged,
                )
            self.slot = t
            gen = self._gen
            if len(run):
                cut = self._fire_run(run)
                self._take_back(cut)
            elif vectorized:
                cut = run.t1
                trace.channel_empty(t, cut - t, n)
            else:
                cut = run.t1
                zeros = array("i", bytes(4 * (cut - t)))
                trace.channels(t, zeros, zeros, zeros, zeros, run.draws, zeros)
            if due is not None:
                self._due_min = min(due)
            t = cut
            if self._stopped(t, gen, s, stop_when, check_every):
                return True
        self.slot = end
        return False

    def _stopped(
        self,
        t: int,
        gen: int,
        s: int | None,
        stop_when: Callable[[SlotSteppedSimulator], bool] | None,
        check_every: int,
    ) -> bool:
        """Whether a span that ended at ``t`` stops the run: its stop
        boundary ``s`` was reached with the state unchanged, or ``t`` is
        a boundary and the predicate holds under the state the span's
        deliveries left (generation ``gen`` moved)."""
        self.slot = t
        if stop_when is None or not self.all_woken or t % check_every:
            return False
        if self._gen != gen:
            return stop_when(self)
        return s is not None
