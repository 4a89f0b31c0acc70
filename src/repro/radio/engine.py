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
1–2: wake-up processing and the two transmission-collection paths.

Performance: sending probabilities in the algorithm are ``1/(kappa_2 *
Delta)`` (non-leaders) or ``1/kappa_2`` (leaders), so the expected number
of transmitters per slot is small even in large networks.  The default
PHY is therefore *transmitter-centric*: it expands only the
neighborhoods of actual transmitters instead of scanning all ``n``
nodes — the "compute on what's hot" advice from the HPC guides.

Two transmission-collection paths share those channel semantics:

- the **compatibility path** calls :meth:`ProtocolNode.step` on every
  awake node (any node class works — baselines, the executable-spec
  reference, ad-hoc test nodes); each slot with transmissions is a
  fire run of one slot;
- the **vectorized fast path** activates automatically when *every* node
  implements the batched interface (see
  :class:`~repro.radio.node.ProtocolNode` and
  :class:`~repro.core.vector_node.BernoulliColoringNode`).  The engine
  keeps dense per-node send probabilities, event slots and delivery
  keys, draws the transmit Bernoullis of all nodes for a span of slots
  in one segment draw, and resolves and delivers every fire slot drawn
  under one state in one :class:`~repro.radio.channel.FireRun`.  It
  pays Python-call cost only for deliveries the key filter lets
  through, the senders whose messages those deliveries need, and
  (rare) state events.

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

from collections.abc import Callable, Sequence

import numpy as np

from repro.graphs.deployment import Deployment
from repro.radio.channel import (
    ChannelCore,
    CollisionPhy,
    FireRun,
    PhyModel,
    SimulationResult,
    SlotSteppedSimulator,
    build_csr,
)
from repro.radio.messages import Message
from repro.radio.node import ProtocolNode
from repro.radio.trace import TraceRecorder
from repro._util import RngMeter

__all__ = ["RadioSimulator", "SimulationResult", "build_csr"]

#: effectively-infinite slot number for "no scheduled event"
_FAR = 1 << 62

# Segment-draw cap for the block-stepped path: uniforms are drawn at most
# this many slots at a time into one reused buffer.  Keeps the working
# set cache-resident (128 x n float64 is ~1.6 MB at n = 1600) — PCG64
# throughput degrades ~3x when each segment draw faults in fresh
# multi-megabyte pages.  Purely an execution detail: the stream is
# consumed row-major either way, so chunk size never affects results.
_DRAW_CHUNK = 128


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
    vectorized:
        Execution-path override: ``None`` (default) auto-detects — the
        fast path engages iff every node implements the batched
        interface; ``False`` forces the per-node compatibility path even
        for batched populations (conformance and benchmark comparisons);
        ``True`` demands the fast path and raises if any node lacks the
        interface.
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
        vectorized: bool | None = None,
        phy: PhyModel | None = None,
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
        # Next pending wake slot as a plain int: the per-slot paths guard
        # their wake processing on one integer compare instead of a numpy
        # index into _wake_order every slot.
        self._next_wake_slot = int(self.wake_slots[order[0]]) if n else _FAR
        self._awake: list[int] = []
        self._append_metrics = self.trace.channel_metrics.append
        # Vectorized fast path (engaged only when every node opts in):
        # dense per-node send probabilities, next scheduled event slots
        # and delivery keys, refreshed whenever a node's state can have
        # changed.
        batched = n > 0 and all(hasattr(node, "tx_prob") for node in self.nodes)
        if vectorized is None:
            self.vectorized = batched
        elif vectorized and not batched:
            raise ValueError(
                "vectorized=True requires every node to implement the "
                "batched interface (tx_prob/next_event_slot/on_event/emit/"
                "listen_key/message_keys)"
            )
        else:
            self.vectorized = bool(vectorized)
        if self.vectorized:
            self._p = np.zeros(n, dtype=np.float64)
            self._evt = np.full(n, _FAR, dtype=np.int64)
            # Delivery keys (listen key; the two message keys), handed to
            # the core's delivery filter.
            self._keys = (
                np.full(n, -1, dtype=np.int64),
                np.full(n, -1, dtype=np.int64),
                np.full(n, -1, dtype=np.int64),
            )
            # State generation: bumped whenever any node's cached send
            # probability, event slot or key actually changes.  A fire run
            # is drawn under one generation and cut where it moves.
            self._gen = 0
            # Cached minimum of _evt, maintained stale-low-safe: _refresh
            # lowers it eagerly, and it is recomputed exactly whenever due
            # events are processed.  A stale-low value only costs a cheap
            # recheck; it can never skip a due event.
            self._evt_min = _FAR
            # Fire-candidate cache, keyed on the state generation: the
            # columns with p > 0 and their probabilities.  State changes
            # (wakes, events, deliveries) are rare relative to slots, so
            # both per-slot and block-stepped paths reuse these across
            # long spans instead of recomputing full-width nonzero/p
            # scans every slot.
            self._active = np.empty(0, dtype=np.int64)
            self._pa = np.empty(0, dtype=np.float64)
            self._active_gen = -1
            self._draw_buf: np.ndarray | None = None  # step_block segment buffer
            # Hot-path bound methods (the generator and bit generator are
            # fixed for the simulator's lifetime): saves two attribute
            # chains per slot on the per-slot path.
            self._rand = self.rng.generator.random
            self._advance = self.rng.generator.bit_generator.advance
            self.core.on_deliver = self._on_deliver
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

    def _on_deliver(self, u: int, msg: Message, report: bool | None) -> bool:
        """Core delivery hook: a node whose ``deliver`` did not report
        ``False`` is re-read; a real change cuts the fire run."""
        return report is not False and self._refresh(u)

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

    def _collect_classic(self, t: int) -> list[tuple[int, Message]]:
        """Phase 2 (compatibility path): per-node protocol steps."""
        outbox: list[tuple[int, Message]] = []
        rng = self.rng
        nodes = self.nodes
        record_tx = self.core.record_tx
        for v in self._awake:
            msg = nodes[v].step(t, rng)
            if msg is not None:
                record_tx(t, v, msg, outbox)
        return outbox

    def _collect_vectorized(self, t: int) -> np.ndarray:
        """Phase 2 (fast path): scheduled events, then one batched
        Bernoulli draw for all nodes' transmit decisions; returns the
        firing node ids in ascending order.

        The full-width work of the naive formulation is gated on caches:
        scheduled events are only scanned when ``_evt_min`` says one is
        due, the fire-candidate columns (``p > 0``) are rebuilt only when
        the state generation changed, and the per-slot uniform vector is
        compared only against those columns.  All-passive slots advance
        the stream via :meth:`~repro._util.RngMeter.skip` instead of
        generating — state- and meter-identical to drawing and
        discarding, so the stream contract (one ``random(n)``'s worth of
        variates per slot, in slot order) is unchanged.
        """
        n = len(self.nodes)
        if self._evt_min <= t:
            self._events_due(t)
        active = self._update_active()
        rng = self.rng
        rng.calls += 1
        rng.draws += n
        if active.size == 0:
            # Nothing can fire: random() < 0.0 never holds, so consume
            # the slot's variates without generating them (skip with the
            # meter accounting already applied above).
            self._advance(n)
            return active
        # Metered draw, with the proxy's dispatch inlined (this is the
        # hottest line of the per-slot path): identical stream, identical
        # draw accounting.
        u = self._rand(n)
        if active.size == n:
            return np.nonzero(u < self._p)[0]
        return active[u.take(active) < self._pa]

    def _fire_run(self, run: FireRun) -> int:
        """Phases 3-4 of a fire run (every path): the PHY resolves it,
        the core delivers and records it; returns the end of the
        processed span.  A cut before ``run.t1`` hands the PHY's side
        stream back to the cut."""
        end = self.core.deliver(run.t0, self.phy.resolve(run.t0, run))
        if end < run.t1:
            self.phy.rewind(end)
        return end

    def step(self) -> None:
        """Advance the network by one slot (and record its channel
        metrics: transmitters, deliveries, collisions, injected losses,
        and the RNG draws each stream consumed).

        A slot with transmissions is a fire run of one slot; an empty
        slot skips the PHY and the core (channel contract item 4) and
        appends its all-zero metrics row directly."""
        t = self.slot
        n = len(self.nodes)
        if self.vectorized:
            if self._next_wake_slot <= t:
                self._wake_due(t)
            fire = self._collect_vectorized(t)
            if fire.size:
                self._fire_run(
                    FireRun(t, t + 1, [t] * fire.size, fire.tolist(), n, nodes=self.nodes)
                )
            else:
                self._append_metrics(0, 0, 0, 0, n, 0)
        else:
            draws0 = self.rng.draws
            if self._next_wake_slot <= t:
                self._wake_due(t)
            outbox = self._collect_classic(t)
            draws = self.rng.draws - draws0
            if outbox:
                self._fire_run(FireRun.recorded(t, outbox, draws))
            else:
                self._append_metrics(0, 0, 0, 0, draws, 0)
        self.slot = t + 1

    # -- block-stepped execution (vectorized fast path only) -------------
    def step_block(
        self,
        count: int,
        stop_when: Callable[[SlotSteppedSimulator], bool] | None = None,
        check_every: int = 16,
    ) -> bool:
        """Advance up to ``count`` slots, paying Python cost per *span*
        of frozen state rather than per slot.

        Trajectory- and metrics-identical to ``count`` calls of
        :meth:`step`.  Wakes and scheduled events end a span; within it
        no node's send probability, event slot or delivery key changes
        except through deliveries.  Per span:

        - the transmit uniforms come from a segment draw
          ``rng.random((m, n))``, which consumes the PCG64 stream exactly
          like ``m`` sequential ``rng.random(n)`` calls, or — when every
          send probability is zero — from
          :meth:`~repro._util.RngMeter.skip`;
        - every fire slot of the span is resolved and delivered in one
          :meth:`_fire_run`, cut after the first slot whose deliveries
          change the state (the next span resumes there, reusing the
          segment's remaining rows); runs of empty slots emit their
          all-zero metrics in bulk.

        Stop predicates must be state-only (see
        :meth:`SlotSteppedSimulator.run`): the predicate is evaluated
        once per span, before its run, and a true result is localized to
        the exact first ``check_every`` boundary the per-slot loop would
        have stopped at; after a cut it is evaluated again if the cut
        lands on a boundary.  After such an early stop the *protocol
        trajectory and all recorded metrics* match the per-slot run
        exactly, but uniforms drawn for the never-simulated remainder of
        the current segment leave the generator object further along —
        observable only if the caller keeps stepping the same simulator
        past a stop.
        """
        if not self.vectorized or count <= 1:
            return super().step_block(count, stop_when, check_every)
        nodes = self.nodes
        n = len(nodes)
        rng = self.rng
        trace = self.trace
        t = self.slot
        end = t + count

        U: np.ndarray | None = None  # uniforms for absolute slots [seg_lo, seg_hi)
        seg_lo = seg_hi = t

        def boundary(lo: int, hi: int) -> int | None:
            """First stop-check slot counter in [lo, hi], or None."""
            s = -(lo // -check_every) * check_every
            return s if s <= hi else None

        while t < end:
            self.slot = t
            # Phases 1-2a: wakes, then scheduled events, due at t.
            if self._next_wake_slot <= t:
                self._wake_due(t)
            if self._evt_min <= t:
                self._events_due(t)
            active = self._update_active()
            # State is frozen over [t, bound): no wake or scheduled event
            # falls strictly inside, so p/evt/keys can only change at a
            # fire slot (via deliveries).
            bound = min(self._next_wake_slot, self._evt_min, end)
            if bound <= t:
                bound = t + 1  # a node left its event due; re-fires next slot
            # Uniforms for [t, bound): reuse the buffered segment, draw a
            # fresh one, or — when nothing can fire — skip the stream.
            if U is None or t >= seg_hi:
                m = bound - t
                if active.size == 0:
                    # All-passive span: random() < 0.0 never holds, so
                    # consume the stream without generating.
                    if stop_when is not None and self.all_woken:
                        s = boundary(t + 1, bound)
                        if s is not None:
                            self.slot = s
                            if stop_when(self):
                                rng.skip((s - t) * n)
                                trace.channel_empty(t, s - t, n)
                                return True
                    rng.skip(m * n)
                    trace.channel_empty(t, m, n)
                    t = bound
                    continue
                m = min(m, _DRAW_CHUNK)
                buf = self._draw_buf
                if buf is None:
                    buf = self._draw_buf = np.empty((_DRAW_CHUNK, n))
                U = rng.fill(buf[:m])
                seg_lo, seg_hi = t, t + m
            lim = min(bound, seg_hi)
            # State is frozen over [t, lim) until a delivery changes it, so
            # one predicate evaluation decides every check boundary before
            # that; a true result ends the span at the first boundary.
            stop = False
            if stop_when is not None and self.all_woken:
                s = boundary(t + 1, lim)
                if s is not None:
                    self.slot = s
                    if stop_when(self):
                        stop, lim = True, s
            # Every (slot, transmitter) pair of [t, lim) under the frozen p.
            sub = U[t - seg_lo : lim - seg_lo]
            if active.size == n:
                rows, senders = np.nonzero(sub < self._p)
            else:
                rows, cols = np.nonzero(sub[:, active] < self._pa)
                senders = active[cols]
            self.slot = t
            gen = self._gen
            if rows.size:
                lim = self._fire_run(FireRun(t, lim, rows + t, senders, n, nodes=nodes))
            else:
                trace.channel_empty(t, lim - t, n)
            t = lim
            self.slot = t
            if stop_when is not None and self.all_woken and t % check_every == 0:
                if self._gen != gen:
                    if stop_when(self):
                        return True
                elif stop:
                    return True
            if t >= seg_hi:
                U = None
        self.slot = end
        return False
