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
PHY is therefore *transmitter-centric*: it touches only the
neighborhoods of actual transmitters (sparse scatter-add into a
persistent count array that is surgically reset afterwards) instead of
scanning all ``n`` nodes — the "compute on what's hot" advice from the
HPC guides.

Two per-slot execution paths share those channel semantics:

- the **compatibility path** calls :meth:`ProtocolNode.step` on every
  awake node (any node class works — baselines, the executable-spec
  reference, ad-hoc test nodes);
- the **vectorized fast path** activates automatically when *every* node
  implements the batched interface (``tx_prob`` / ``next_event_slot`` /
  ``on_event`` / ``emit``, see :class:`~repro.radio.node.ProtocolNode`
  docs and :class:`~repro.core.vector_node.BernoulliColoringNode`).  The
  engine then keeps a dense send-probability vector, draws the
  transmit-decision Bernoullis of all nodes in a single
  ``rng.random(n)`` call per slot, and only pays Python-call cost for
  the rare nodes that transmit, receive, or cross a scheduled state
  event.  Adjacency is precomputed into CSR-style ``indptr``/``indices``
  arrays at construction so the per-slot path never touches Python
  lists of arrays.

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
    sparse:
        Active-set sparse stepping (vectorized path only): instead of an
        ``n``-wide uniform draw per slot, walk only the active columns
        (``p > 0``) with scalar draws and ``advance`` over the gaps —
        byte-identical to the dense stream by PCG64's counter semantics
        (``random(n)`` consumes one 64-bit output per double, so the
        lattice position of every (slot, node) variate is fixed).  Pays
        off when the active set is much smaller than ``n`` (cold-start
        windows, endgame tails); on dense activity the scalar walk is
        slower than one bulk draw.  See docs/model.md for guidance.
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
        sparse: bool = False,
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
        self._neighbors = deployment.neighbors
        # Wake order: nodes grouped by wake slot for O(1) wake processing.
        order = np.argsort(self.wake_slots, kind="stable")
        self._wake_order = order
        self._next_wake = 0  # index into _wake_order
        # Next pending wake slot as a plain int: the per-slot paths guard
        # their wake processing on one integer compare instead of a numpy
        # index into _wake_order every slot.
        self._next_wake_slot = int(self.wake_slots[order[0]]) if n else _FAR
        self._awake: list[int] = []
        # Vectorized fast path (engaged only when every node opts in):
        # dense per-node send probabilities and next scheduled event slots,
        # refreshed whenever a node's state can have changed.
        batched = n > 0 and all(hasattr(node, "tx_prob") for node in self.nodes)
        if vectorized is None:
            self.vectorized = batched
        elif vectorized and not batched:
            raise ValueError(
                "vectorized=True requires every node to implement the "
                "batched interface (tx_prob/next_event_slot/on_event/emit)"
            )
        else:
            self.vectorized = bool(vectorized)
        if sparse and not self.vectorized:
            raise ValueError(
                "sparse stepping requires the vectorized fast path (every "
                "node must implement the batched interface)"
            )
        self.sparse = bool(sparse)
        if self.vectorized:
            self._p = np.zeros(n, dtype=np.float64)
            self._evt = np.full(n, _FAR, dtype=np.int64)
            # State generation: bumped whenever any node's cached send
            # probability or event slot actually changes.  The block-
            # stepped path keys its fire-candidate caches off this.
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
            # Sparse-walk cache, keyed on the state generation like the
            # fire-candidate cache: the active columns as plain Python
            # (node, probability) pairs for the scattered walk.
            self._scatter_cols: list[tuple[int, float]] = []
            self._scatter_gen = -1
            # Hot-path bound methods (the generator, bit generator, and
            # metrics object are fixed for the simulator's lifetime):
            # saves two attribute chains per slot on the per-slot path.
            self._rand = self.rng.generator.random
            self._advance = self.rng.generator.bit_generator.advance
            self._append_metrics = self.trace.channel_metrics.append
            self.core.on_deliver = self._on_deliver

    # ------------------------------------------------------------------
    @property
    def all_woken(self) -> bool:
        """Whether every node's wake slot has passed."""
        return self._next_wake >= len(self._wake_order)

    def _refresh(self, v: int) -> None:
        """Re-read node ``v``'s send probability and next event slot
        (fast path bookkeeping after wake / event / delivery).  Bumps the
        state generation only on an actual change, so the block-stepped
        path invalidates its fire-candidate cache exactly when needed."""
        node = self.nodes[v]
        p = node.tx_prob()
        e = node.next_event_slot()
        if p != self._p[v] or e != self._evt[v]:
            self._p[v] = p
            self._evt[v] = e
            self._gen += 1
            if e < self._evt_min:
                self._evt_min = e

    def _on_deliver(self, u: int, msg: Message) -> None:
        """Core delivery hook: a delivery can change a node's state."""
        self._refresh(int(u))

    def _scatter_fire(self) -> list[int]:
        """One slot's transmit decisions via the scattered walk.

        Visits the active columns in ascending node order: ``advance``
        over the gap to each column's lattice position, one scalar
        ``random()`` there, then a tail ``advance`` to the end of the
        row.  Consumes exactly ``n`` stream positions and reads the
        *same* uniform at every active column as the dense ``random(n)``
        row would — byte-identity is structural, not statistical.  Not
        metered (callers account the slot's ``n`` draws, matching the
        dense paths)."""
        if self._scatter_gen != self._gen:
            self._scatter_cols = list(
                zip(self._active.tolist(), self._pa.tolist())
            )
            self._scatter_gen = self._gen
        rand = self._rand
        advance = self._advance
        pos = 0
        fire: list[int] = []
        for a, pa in self._scatter_cols:
            if a > pos:
                advance(a - pos)
            if rand() < pa:
                fire.append(a)
            pos = a + 1
        n = len(self.nodes)
        if pos < n:
            advance(n - pos)
        return fire

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

    def _collect_vectorized(self, t: int) -> list[int]:
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
        nodes = self.nodes
        n = len(nodes)
        if self._evt_min <= t:
            evt = self._evt
            for v in np.nonzero(evt <= t)[0]:
                nodes[v].on_event(t)
                self._refresh(int(v))
            self._evt_min = int(evt.min())
        if self._active_gen != self._gen:
            self._active = np.nonzero(self._p > 0.0)[0]
            self._pa = self._p[self._active]
            self._active_gen = self._gen
        active = self._active
        rng = self.rng
        rng.calls += 1
        rng.draws += n
        if active.size == 0:
            # Nothing can fire: random() < 0.0 never holds, so consume
            # the slot's variates without generating them (skip with the
            # meter accounting already applied above).
            self._advance(n)
            return []
        if self.sparse:
            return self._scatter_fire()
        # Metered draw, with the proxy's dispatch inlined (this is the
        # hottest line of the per-slot path): identical stream, identical
        # draw accounting.
        u = self._rand(n)
        if active.size == n:
            fire: list[int] = np.nonzero(u < self._p)[0].tolist()
        else:
            fire = active[u.take(active) < self._pa].tolist()
        return fire

    def _fire(self, t: int, fire: list[int]) -> None:
        """Run fire slot ``t`` of the fast path: each firing node (in
        ascending order) emits and its transmission is recorded, then
        the slot is resolved, delivered, and traced by :meth:`_resolve`.
        The fast path consumes exactly ``n`` protocol draws per slot."""
        nodes = self.nodes
        record_tx = self.core.record_tx
        outbox: list[tuple[int, Message]] = []
        for v in fire:
            msg = nodes[v].emit(t)
            if msg is not None:
                record_tx(t, v, msg, outbox)
        self._resolve(t, outbox, len(nodes))

    def _resolve(
        self, t: int, outbox: list[tuple[int, Message]], protocol_draws: int
    ) -> None:
        """Phases 3-4 of slot ``t`` (both paths): the PHY resolves the
        outbox, the core delivers, and the slot's metrics row records
        ``protocol_draws`` plus the loss draws delivery consumed."""
        core = self.core
        loss0 = core.loss_draws
        delivered, collided, lost = core.deliver(t, self.phy.resolve(t, outbox))
        self.trace.channel(
            t,
            tx=len(outbox),
            rx=delivered,
            collisions=collided,
            lost=lost,
            protocol_draws=protocol_draws,
            loss_draws=core.loss_draws - loss0,
        )

    def step(self) -> None:
        """Advance the network by one slot (and record its channel
        metrics: transmitters, deliveries, collisions, injected losses,
        and the RNG draws each stream consumed)."""
        t = self.slot
        if self.vectorized:
            if self._next_wake_slot <= t:
                self._wake_due(t)
            fire = self._collect_vectorized(t)
            if fire:
                self._fire(t, fire)
            else:
                # Empty-slot laziness (channel contract item 4): with no
                # transmissions, resolve() is draw-free and deliver() has
                # no candidates, so skip both — exactly what the
                # block-stepped path does across empty spans.  The fast
                # path consumes exactly n protocol draws per slot and no
                # loss draws, so the metrics row is appended directly
                # (fire slots still go through the slot-aligned
                # trace.channel, which catches any drift).
                self._append_metrics(0, 0, 0, 0, len(self.nodes), 0)
            self.slot = t + 1
            return
        draws0 = self.rng.draws
        if self._next_wake_slot <= t:
            self._wake_due(t)
        outbox = self._collect_classic(t)
        self._resolve(t, outbox, self.rng.draws - draws0)
        self.slot = t + 1

    # -- block-stepped execution (vectorized fast path only) -------------
    def step_block(
        self,
        count: int,
        stop_when: Callable[[SlotSteppedSimulator], bool] | None = None,
        check_every: int = 16,
    ) -> bool:
        """Advance up to ``count`` slots, paying Python per-slot cost only
        at *interesting* slots (a wake, a scheduled event, or a transmit
        Bernoulli that fires).

        Trajectory- and metrics-identical to ``count`` calls of
        :meth:`step`: the transmit uniforms are drawn in segments
        ``rng.random((m, n))``, which consumes the PCG64 stream exactly
        like ``m`` sequential ``rng.random(n)`` calls, and spans in which
        every send probability is zero advance the stream via
        :meth:`~repro._util.RngMeter.skip` (state-identical to generating
        and discarding).  Runs of empty slots emit their all-zero channel
        metrics in one bulk append.

        Stop predicates must be state-only (see
        :meth:`SlotSteppedSimulator.run`); inside an empty span the state
        is frozen, so the predicate is evaluated once and, if true, the
        stop is localized to the exact first ``check_every`` boundary the
        per-slot loop would have stopped at.  After such an early stop the
        *protocol trajectory and all recorded metrics* match the per-slot
        run exactly, but uniforms drawn for the never-simulated remainder
        of the current segment leave the generator object further along —
        observable only if the caller keeps stepping the same simulator
        past a stop.
        """
        if not self.vectorized or count <= 1:
            return super().step_block(count, stop_when, check_every)
        nodes = self.nodes
        n = len(nodes)
        rng = self.rng
        trace = self.trace
        p = self._p
        evt = self._evt
        t = self.slot
        end = t + count

        U: np.ndarray | None = None  # uniforms for absolute slots [seg_lo, seg_hi)
        seg_lo = seg_hi = t
        hits: np.ndarray | None = None  # ascending candidate fire slots, cover to hits_hi
        hits_hi = t
        gen = -1  # state generation `hits` was computed at (forces a
        # recompute before first use)

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
                for v in np.nonzero(evt <= t)[0]:
                    nodes[v].on_event(t)
                    self._refresh(int(v))
                self._evt_min = int(evt.min())
            # Fire-candidate columns, shared with the per-slot path and
            # rebuilt only when the state generation moved.
            if self._active_gen != self._gen:
                self._active = np.nonzero(p > 0.0)[0]
                self._pa = p[self._active]
                self._active_gen = self._gen
            if gen != self._gen:
                gen = self._gen
                hits = None
            active = self._active
            ne = self._evt_min
            nw = self._next_wake_slot
            # State is constant over [t, bound): no wake or scheduled
            # event falls strictly inside, so p/evt can only change at a
            # fire slot (via deliveries).
            bound = min(nw, ne, end)
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
                if self.sparse:
                    t, stopped = self._sparse_span(t, bound, stop_when, check_every)
                    if stopped:
                        return True
                    continue
                m = min(m, _DRAW_CHUNK)
                buf = self._draw_buf
                if buf is None:
                    buf = self._draw_buf = np.empty((_DRAW_CHUNK, n))
                U = rng.fill(buf[:m])
                seg_lo, seg_hi = t, t + m
                hits = None
            lim = min(bound, seg_hi)
            # Candidate fire slots over [t, lim) under the current p.
            if hits is None or hits_hi < lim:
                sub = U[t - seg_lo : lim - seg_lo]
                if active.size == n:
                    rows = (sub < p).any(axis=1)
                else:
                    rows = (sub[:, active] < self._pa).any(axis=1)
                hits = np.nonzero(rows)[0] + t
                hits_hi = lim
            if hits.size == 0 or hits[0] >= lim:
                f = lim  # whole span [t, lim) is empty
            else:
                f = int(hits[0])
            if f > t:
                # Empty span [t, f): state frozen, so one predicate
                # evaluation covers every check boundary inside it.
                if stop_when is not None and self.all_woken:
                    s = boundary(t + 1, f)
                    if s is not None:
                        self.slot = s
                        if stop_when(self):
                            trace.channel_empty(t, s - t, n)
                            return True
                trace.channel_empty(t, f - t, n)
                t = f
                if f == lim:
                    if t >= seg_hi:
                        U = None
                    continue
                self.slot = t
            # Full per-slot machinery for the fire slot t.
            urow = U[t - seg_lo]
            if active.size == n:
                fire = np.nonzero(urow < p)[0]
            else:
                fire = active[urow[active] < self._pa]
            self._fire(t, fire.tolist())
            t += 1
            self.slot = t
            hits = hits[1:]
            if (
                stop_when is not None
                and self.all_woken
                and t % check_every == 0
                and stop_when(self)
            ):
                return True
        self.slot = end
        return False

    # -- sparse span execution ----------------------------------------------
    def _sparse_span(
        self,
        t: int,
        bound: int,
        stop_when: Callable[[SlotSteppedSimulator], bool] | None,
        check_every: int,
    ) -> tuple[int, bool]:
        """Walk the constant-state span ``[t, bound)`` with scattered
        draws; returns ``(next_slot, stopped)``.

        Per slot this consumes exactly ``n`` stream positions (gap
        advances + scalar draws + tail advance), so the generator tracks
        the dense path position-for-position — including across early
        stops, where the dense segment draw over-advances but this path
        does not (both are within contract: generator position after a
        stop is unobservable, see :meth:`step_block`).  Empty runs are
        flushed as one bulk metrics append; the stop predicate is
        state-only and the state is frozen between fires, so its value is
        evaluated once per run and cached.  Returns to :meth:`step_block`
        after any fire that changed the state generation so the span
        bound and candidate caches are rebuilt.
        """
        n = len(self.nodes)
        rng = self.rng
        trace = self.trace
        check = stop_when is not None and self.all_woken
        run_start = t
        stop_val: bool | None = None
        while t < bound:
            rng.calls += 1
            rng.draws += n
            fire = self._scatter_fire()
            if not fire:
                t += 1
                if check and t % check_every == 0:
                    if stop_val is None:
                        self.slot = t
                        assert stop_when is not None
                        stop_val = bool(stop_when(self))
                    if stop_val:
                        trace.channel_empty(run_start, t - run_start, n)
                        self.slot = t
                        return t, True
                continue
            if t > run_start:
                trace.channel_empty(run_start, t - run_start, n)
            self.slot = t
            self._fire(t, fire)
            t += 1
            self.slot = t
            if (
                stop_when is not None
                and self.all_woken
                and t % check_every == 0
                and stop_when(self)
            ):
                return t, True
            if self._active_gen != self._gen:
                # Deliveries moved the state: the span bound and the
                # fire-candidate caches are stale — rebuild upstream.
                return t, False
            run_start = t
            stop_val = None
        if t > run_start:
            trace.channel_empty(run_start, t - run_start, n)
        self.slot = t
        return t, False
