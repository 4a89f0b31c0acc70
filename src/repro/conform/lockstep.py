"""Lockstep dual-path execution: one protocol, two engines, shared draws.

The engine's two per-slot execution paths (see
:mod:`repro.radio.engine`) are supposed to simulate the *same* radio
model.  This module makes that claim falsifiable: it runs the
**vectorized fast path** and the **per-node compatibility path** side
by side on the same deployment, parameters, wake schedule, and seed,
and demands slot-exact agreement of every observable — transmissions
(including payloads), receptions, collisions, state transitions,
decisions, and the always-on channel metrics.

The trick that makes slot-exact comparison possible is a **shared
transmit-decision stream**.  The vectorized path draws all transmit
Bernoullis in one ``rng.random(n)`` call per slot; the compatibility
side runs the same batched-interface nodes behind :class:`StepShimNode`
wrappers whose ``step()`` reads its node's uniform from a
:class:`SlotUniformSource` — a generator seeded identically to the
vectorized engine's and drawn in the same one-``random(n)``-per-slot
pattern.  Both paths therefore see byte-identical transmit decisions,
and byte-identical loss streams (both engines spawn their loss child
from equal seed sequences), so *any* remaining difference is a real
semantic divergence between the paths: a stale fast-path cache, a
missed refresh, a reordered delivery, a miscounted metric.

What the shim deliberately does **not** share is the fast path's
bookkeeping: it re-reads ``next_event_slot()`` / ``tx_prob()`` fresh
from node state every slot, while the vectorized engine trusts its
cached ``_evt`` / ``_p`` arrays and the ``_refresh`` discipline that
maintains them.  The caches are exactly the machinery PR 1 added and
exactly where lockstep divergences would come from.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro._util import spawn_generator
from repro.conform.divergence import ConformanceReport, Divergence, localize_slot
from repro.conform.scenarios import Scenario
from repro.core.params import Parameters, suggested_max_slots
from repro.core.strategy import ColoringProtocol, resolve_protocol
from repro.core.vector_node import BernoulliColoringNode
from repro.graphs.deployment import Deployment
from repro.radio.channel import PhyModel
from repro.radio.engine import RadioSimulator
from repro.radio.messages import ColorMessage, Message
from repro.radio.node import ProtocolNode
from repro.radio.trace import TraceRecorder
from repro.radio.unaligned import UnalignedRadioSimulator

__all__ = [
    "LockstepPair",
    "SlotUniformSource",
    "SourcedBeaconNode",
    "StepShimNode",
    "build_lockstep",
    "run_block_lockstep",
    "run_lockstep",
    "run_unaligned_lockstep",
]

#: spawn-key tag for conformance generators (distinct from run_coloring's).
_CONFORM_KEY = 0xC04F


class SlotUniformSource:
    """Per-slot uniform vectors, drawn exactly like the vectorized engine.

    One ``random(n)`` call per slot from a generator seeded identically
    to the vectorized engine's protocol stream — so ``uniforms(t)[v]``
    is byte-identical to the variate the fast path compares against
    ``tx_prob`` of node ``v`` in slot ``t``.  Slots must be consumed in
    order (the stream cannot rewind); the current slot's vector is
    cached so all ``n`` shims share one draw.

    The generator is injected (built with
    :func:`repro._util.spawn_generator` and the conformance spawn key)
    so the source never constructs raw RNG state itself.
    """

    def __init__(self, rng: np.random.Generator, n: int) -> None:
        self._rng = rng
        self.n = n
        self._slot = -1
        self._u: np.ndarray | None = None

    def uniforms(self, slot: int) -> np.ndarray:
        """The slot's uniform vector (advances the stream on first call).

        Slots in which no shim asked for a uniform (nobody awake yet)
        are fast-forwarded through: the vectorized engine draws its
        ``random(n)`` *every* slot unconditionally, so the source must
        burn the same vectors to stay aligned.  Rewinding is impossible.
        """
        if slot == self._slot:
            return self._u  # type: ignore[return-value]
        if slot < self._slot:
            raise RuntimeError(
                f"slot uniforms consumed out of order: {self._slot} -> {slot}"
            )
        while self._slot < slot:
            self._u = self._rng.random(self.n)
            self._slot += 1
        return self._u


class StepShimNode(ProtocolNode):
    """Drives one batched-interface node through the classic step path.

    Mirrors the vectorized engine's per-slot semantics for a single
    node — apply the due scheduled event, then transmit iff the shared
    uniform beats ``tx_prob()`` — but recomputes everything from node
    state instead of trusting engine caches.  The engine-provided
    ``rng`` is deliberately unused: transmit decisions come from the
    shared :class:`SlotUniformSource` so both paths consume identical
    randomness.
    """

    __slots__ = ("inner", "_source")

    def __init__(self, inner, source: SlotUniformSource) -> None:
        super().__init__(inner.vid)
        self.inner = inner
        self._source = source

    def on_wake(self, slot: int) -> None:
        """Forward the wake-up to the wrapped node."""
        self.inner.wake(slot)

    def step(self, slot: int, rng) -> Message | None:
        """One classic-path slot with fast-path semantics: apply the due
        event, then transmit iff the shared uniform beats ``tx_prob``."""
        inner = self.inner
        if inner.next_event_slot() <= slot:
            inner.on_event(slot)
        if self._source.uniforms(slot)[self.vid] < inner.tx_prob():
            return inner.emit(slot)
        return None

    def deliver(self, slot: int, msg: Message) -> None:
        """Forward a successful reception to the wrapped node."""
        self.inner.deliver(slot, msg)

    @property
    def done(self) -> bool:
        """Whether the wrapped node has decided its color."""
        return self.inner.done


@dataclass
class LockstepPair:
    """The two wired simulators plus their traces and node lists."""

    classic: RadioSimulator
    vectorized: RadioSimulator
    classic_nodes: list  #: the *inner* protocol nodes behind the shims
    vectorized_nodes: list


def build_lockstep(
    dep: Deployment,
    params: Parameters,
    wake_slots: np.ndarray,
    *,
    seed: int = 0,
    loss_prob: float = 0.0,
    node_cls: type = BernoulliColoringNode,
    vectorized_node_cls: type | None = None,
    phy_factory: Callable[[], PhyModel] | None = None,
) -> LockstepPair:
    """Wire the dual-path pair (identical seeds, independent traces).

    ``vectorized_node_cls`` substitutes a different node class on the
    fast-path side only — how the localizer's own regression tests
    inject deliberate bugs.  ``phy_factory`` builds one fresh PHY model
    per engine (a PHY binds to exactly one simulator); both sides get
    structurally identical models, and any PHY side stream (e.g. channel
    hopping) is spawned in the same order from identically-seeded
    generators, so both paths hop identically.
    """
    n = dep.n

    def conform_rng() -> np.random.Generator:
        # Three *equal but distinct* generators: each PCG64 stream
        # starts identically, and each engine spawns its own loss child
        # from its own (fresh) spawn counter, so the loss streams
        # coincide too.
        return spawn_generator(seed, _CONFORM_KEY)

    trace_a = TraceRecorder(n, level=2)
    trace_b = TraceRecorder(n, level=2)
    source = SlotUniformSource(conform_rng(), n)
    inner = [node_cls(v, params, trace_a) for v in range(n)]
    shims = [StepShimNode(node, source) for node in inner]
    classic = RadioSimulator(
        dep,
        shims,
        wake_slots,
        rng=conform_rng(),
        trace=trace_a,
        loss_prob=loss_prob,
        phy=phy_factory() if phy_factory is not None else None,
    )
    assert not classic.vectorized, "shim population must run the classic path"
    vec_cls = vectorized_node_cls or node_cls
    vec_nodes = [vec_cls(v, params, trace_b) for v in range(n)]
    vectorized = RadioSimulator(
        dep,
        vec_nodes,
        wake_slots,
        rng=conform_rng(),
        trace=trace_b,
        loss_prob=loss_prob,
        phy=phy_factory() if phy_factory is not None else None,
    )
    assert vectorized.vectorized, f"{vec_cls.__name__} must run the vectorized path"
    return LockstepPair(classic, vectorized, inner, vec_nodes)


#: metric columns compared across paths (draw counts are per-path
#: diagnostics: the paths consume their streams differently by design).
_COMPARED_METRICS = ("tx", "rx", "collisions", "lost")


def _final_divergence(pair: LockstepPair, scenario) -> Divergence | None:
    """Terminal cross-checks once the slot loop agreed everywhere."""
    ta, tb = pair.classic.trace, pair.vectorized.trace
    slot = pair.classic.slot
    for v, (a, b) in enumerate(zip(pair.classic_nodes, pair.vectorized_nodes)):
        if getattr(a, "color", None) != getattr(b, "color", None):
            return Divergence(
                slot, v, "final.colors", a.color, b.color, scenario
            )
    for name, arr_a, arr_b in (
        ("final.decide_slot", ta.decide_slot, tb.decide_slot),
        ("final.tx_count", ta.tx_count, tb.tx_count),
        ("final.rx_count", ta.rx_count, tb.rx_count),
        ("final.collision_count", ta.collision_count, tb.collision_count),
    ):
        if not np.array_equal(arr_a, arr_b):
            v = int(np.nonzero(arr_a != arr_b)[0][0])
            return Divergence(slot, v, name, int(arr_a[v]), int(arr_b[v]), scenario)
    return None


def run_lockstep(
    dep: Deployment,
    params: Parameters,
    wake_slots: np.ndarray,
    *,
    seed: int = 0,
    loss_prob: float = 0.0,
    max_slots: int | None = None,
    node_cls: type = BernoulliColoringNode,
    vectorized_node_cls: type | None = None,
    scenario: Scenario | None = None,
    phy_factory: Callable[[], PhyModel] | None = None,
    protocol: ColoringProtocol | str | None = None,
) -> ConformanceReport:
    """Step both paths in lockstep and localize the first divergence.

    Every slot, both simulators advance once; the slot's trace events
    (level 2: every tx/rx/collision plus wake/state/decide) and channel
    metrics are compared in canonical form.  On the first mismatch the
    loop stops and the report carries a :class:`Divergence` naming the
    slot, node, and field, with the scenario as minimized reproducer.

    ``protocol`` generalizes the completion condition: each side is
    declared finished by the strategy's
    :meth:`~repro.core.strategy.ColoringProtocol.completed` over *its
    own* trace and (inner) node list, and a one-sided finish is itself
    reported as a ``completed`` divergence.
    """
    proto = resolve_protocol(protocol)
    pair = build_lockstep(
        dep,
        params,
        wake_slots,
        seed=seed,
        loss_prob=loss_prob,
        node_cls=node_cls,
        vectorized_node_cls=vectorized_node_cls,
        phy_factory=phy_factory,
    )
    if max_slots is None:
        wake_max = int(wake_slots.max()) if dep.n else 0
        max_slots = suggested_max_slots(params, wake_max)
    sim_a, sim_b = pair.classic, pair.vectorized
    ta, tb = sim_a.trace, sim_b.trace
    ia = ib = 0  # consumed prefixes of the two event lists
    divergence: Divergence | None = None
    while sim_a.slot < max_slots:
        t = sim_a.slot
        sim_a.step()
        sim_b.step()
        divergence = localize_slot(t, ta.events[ia:], tb.events[ib:], scenario)
        ia, ib = len(ta.events), len(tb.events)
        if divergence is None:
            row_a = ta.channel_metrics.row(t)
            row_b = tb.channel_metrics.row(t)
            for name in _COMPARED_METRICS:
                if row_a[name] != row_b[name]:
                    # Events agreed but a counter did not: the metrics
                    # instrumentation itself drifted between paths.
                    divergence = Divergence(
                        t, None, f"metrics.{name}", row_a[name], row_b[name], scenario
                    )
                    break
        if divergence is not None:
            break
        if proto.completed(ta, pair.classic_nodes) and proto.completed(
            tb, pair.vectorized_nodes
        ):
            break
    if divergence is None:
        done_a = proto.completed(ta, pair.classic_nodes)
        done_b = proto.completed(tb, pair.vectorized_nodes)
        if done_a != done_b:
            divergence = Divergence(
                sim_a.slot,
                None,
                "completed",
                done_a,
                done_b,
                scenario,
            )
    if divergence is None:
        divergence = _final_divergence(pair, scenario)
    completed = proto.completed(ta, pair.classic_nodes) and proto.completed(
        tb, pair.vectorized_nodes
    )
    return ConformanceReport(
        scenario=scenario,
        ok=divergence is None,
        slots=sim_a.slot,
        completed=completed,
        divergence=divergence,
        classic_totals=ta.channel_metrics.totals(),
        vectorized_totals=tb.channel_metrics.totals(),
    )


def run_block_lockstep(
    dep: Deployment,
    params: Parameters,
    wake_slots: np.ndarray,
    *,
    seed: int = 0,
    loss_prob: float = 0.0,
    block: int = 64,
    max_slots: int | None = None,
    node_cls: type = BernoulliColoringNode,
    scenario: Scenario | None = None,
    phy_factory: Callable[[], PhyModel] | None = None,
    protocol: ColoringProtocol | str | None = None,
) -> ConformanceReport:
    """Lockstep one-slot stepping of one population against its
    block-stepped mode.

    Both sides are the *same* route — identically-seeded simulators over
    the same node class: the vectorized fast path for a batched
    ``node_cls`` (the default), the event-driven classic route for a
    ``ColoringNode``-family one — so the claim under test is the
    strongest one in the engine: :meth:`RadioSimulator.step_block` must
    be **byte-identical** to stepping slot by slot (``step()``, a span
    of one slot of the same loop), wherever the span boundaries fall.
    Unlike the classic-vs-vectorized lockstep, the comparison therefore
    covers all six channel-metric columns (including the per-path diagnostic draw
    counters ``protocol_draws`` / ``loss_draws``: the block draw
    ``random((B, n))`` and the all-passive-span ``skip`` consume the
    PCG64 stream exactly like per-slot ``random(n)`` calls, a classic
    span rewinds the stream past a cut, and the blocked modes attribute
    draws to slots identically), plus every level-2 trace event (a
    classic span's transmissions past its first slot are logged by the
    multi-slot row walk) and the terminal node state.

    The blocked side advances ``block`` slots per ``step_block`` call
    while the other side takes single steps; events and metric rows
    are compared chunk-by-chunk and any mismatch is localized to its
    exact slot.

    ``protocol`` generalizes the completion condition exactly as in
    :func:`run_lockstep`.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    proto = resolve_protocol(protocol)
    n = dep.n

    def conform_rng() -> np.random.Generator:
        return spawn_generator(seed, _CONFORM_KEY)

    trace_a = TraceRecorder(n, level=2)
    trace_b = TraceRecorder(n, level=2)
    nodes_a = [node_cls(v, params, trace_a) for v in range(n)]
    nodes_b = [node_cls(v, params, trace_b) for v in range(n)]

    def build(nodes, trace) -> RadioSimulator:
        sim = RadioSimulator(
            dep,
            nodes,
            wake_slots,
            rng=conform_rng(),
            trace=trace,
            loss_prob=loss_prob,
            phy=phy_factory() if phy_factory is not None else None,
        )
        assert sim.vectorized or hasattr(node_cls, "next_step_slot"), (
            f"{node_cls.__name__} has no block-stepped route"
        )
        return sim

    sim_a = build(nodes_a, trace_a)
    sim_b = build(nodes_b, trace_b)
    if max_slots is None:
        wake_max = int(wake_slots.max()) if n else 0
        max_slots = suggested_max_slots(params, wake_max)

    ia = ib = 0  # consumed prefixes of the two event lists
    divergence: Divergence | None = None
    while sim_a.slot < max_slots and divergence is None:
        t0 = sim_a.slot
        chunk = min(block, max_slots - t0)
        for _ in range(chunk):
            sim_a.step()
        sim_b.step_block(chunk)
        # Events, grouped by slot, in canonical form.
        by_slot_a: dict[int, list] = {}
        for e in trace_a.events[ia:]:
            by_slot_a.setdefault(e.slot, []).append(e)
        by_slot_b: dict[int, list] = {}
        for e in trace_b.events[ib:]:
            by_slot_b.setdefault(e.slot, []).append(e)
        ia, ib = len(trace_a.events), len(trace_b.events)
        for k in sorted(set(by_slot_a) | set(by_slot_b)):
            divergence = localize_slot(
                k, by_slot_a.get(k, []), by_slot_b.get(k, []), scenario
            )
            if divergence is not None:
                break
        if divergence is None:
            # All six metric columns, slot-exact across the chunk.
            for k in range(t0, t0 + chunk):
                row_a = trace_a.channel_metrics.row(k)
                row_b = trace_b.channel_metrics.row(k)
                for name in row_a:
                    if row_a[name] != row_b[name]:
                        divergence = Divergence(
                            k, None, f"metrics.{name}",
                            row_a[name], row_b[name], scenario,
                        )
                        break
                if divergence is not None:
                    break
        if (
            divergence is None
            and proto.completed(trace_a, nodes_a)
            and proto.completed(trace_b, nodes_b)
        ):
            break
    if divergence is None:
        pair = LockstepPair(sim_a, sim_b, nodes_a, nodes_b)
        divergence = _final_divergence(pair, scenario)
    completed = proto.completed(trace_a, nodes_a) and proto.completed(
        trace_b, nodes_b
    )
    return ConformanceReport(
        scenario=scenario,
        ok=divergence is None,
        slots=sim_a.slot,
        completed=completed,
        divergence=divergence,
        classic_totals=trace_a.channel_metrics.totals(),
        vectorized_totals=trace_b.channel_metrics.totals(),
        population=node_cls.__name__,
    )


class SourcedBeaconNode(ProtocolNode):
    """Scripted no-feedback beacon for the unaligned lockstep.

    Transmits a fresh :class:`ColorMessage` iff its slot's shared
    uniform beats ``p``; deliveries are accepted (the engine traces
    them) but never change behavior.  No feedback is the point: the
    unaligned simulator delivers slot ``t`` only after nodes have
    already stepped slot ``t + 1`` (the one-step delivery lag of its
    rolling buffers), so any protocol that *reacts* to receptions acts
    one slot later than on the aligned engine by construction.  With
    scripted senders the transmission pattern is delivery-independent
    and the two engines' channel-layer observables must match exactly.
    """

    __slots__ = ("p", "_source")

    def __init__(self, vid: int, p: float, source: SlotUniformSource) -> None:
        super().__init__(vid)
        self.p = p
        self._source = source

    def step(self, slot: int, rng) -> Message | None:
        """Transmit iff the shared slot uniform beats ``p`` (the
        engine-provided ``rng`` is deliberately unused)."""
        if self._source.uniforms(slot)[self.vid] < self.p:
            return ColorMessage(sender=self.vid, color=self.vid)
        return None

    def deliver(self, slot: int, msg: Message) -> None:
        """Accept silently (no feedback; see class docstring)."""

    @property
    def done(self) -> bool:
        """Beacons never finish; runs are budget-bounded."""
        return False


def run_unaligned_lockstep(
    dep: Deployment,
    wake_slots: np.ndarray,
    *,
    seed: int = 0,
    loss_prob: float = 0.0,
    max_slots: int | None = None,
    tx_prob: float = 0.25,
    scenario: Scenario | None = None,
) -> ConformanceReport:
    """Lockstep the aligned classic engine against the zero-offset
    unaligned simulator on a scripted beacon population.

    With every offset zero, each transmission overlaps exactly one slot
    of every neighbor, so the unaligned engine's rolling buffers must
    reproduce the aligned reception rule *exactly* — same deliveries,
    same collisions, same loss draws (both engines spawn their loss
    child as the protocol stream's first spawn from identically-seeded
    generators).  The comparison is slot-lagged: the unaligned engine
    finalizes slot ``k`` during step ``k + 1`` and never finalizes the
    final slot, so slots ``0 .. max_slots - 2`` are compared — events
    in canonical form plus the full six-column metrics rows (protocol
    and loss draw counts included: both sides' beacons draw from shared
    uniform sources outside the metered stream, so the counters must
    agree to the draw).
    """
    n = dep.n
    if max_slots is None:
        max_slots = 400
    if max_slots < 2:
        raise ValueError(f"unaligned lockstep needs max_slots >= 2, got {max_slots}")

    def conform_rng() -> np.random.Generator:
        return spawn_generator(seed, _CONFORM_KEY)

    trace_a = TraceRecorder(n, level=2)
    trace_b = TraceRecorder(n, level=2)
    # Each side gets its own (identically-seeded) source object; the
    # nodes of one side share theirs via the per-slot cache.
    src_a = SlotUniformSource(conform_rng(), n)
    src_b = SlotUniformSource(conform_rng(), n)
    nodes_a = [SourcedBeaconNode(v, tx_prob, src_a) for v in range(n)]
    nodes_b = [SourcedBeaconNode(v, tx_prob, src_b) for v in range(n)]
    aligned = RadioSimulator(
        dep,
        nodes_a,
        wake_slots,
        rng=conform_rng(),
        trace=trace_a,
        loss_prob=loss_prob,
    )
    unaligned = UnalignedRadioSimulator(
        dep,
        nodes_b,
        wake_slots,
        rng=conform_rng(),
        trace=trace_b,
        loss_prob=loss_prob,
        offsets=np.zeros(n, dtype=float),
    )
    for _ in range(max_slots):
        aligned.step()
        unaligned.step()

    by_slot_a: dict[int, list] = {}
    for e in trace_a.events:
        by_slot_a.setdefault(e.slot, []).append(e)
    by_slot_b: dict[int, list] = {}
    for e in trace_b.events:
        by_slot_b.setdefault(e.slot, []).append(e)

    divergence: Divergence | None = None
    compared = max_slots - 1  # the final slot is never finalized unaligned
    for k in range(compared):
        divergence = localize_slot(
            k, by_slot_a.get(k, []), by_slot_b.get(k, []), scenario
        )
        if divergence is None:
            row_a = trace_a.channel_metrics.row(k)
            row_b = trace_b.channel_metrics.row(k)
            for name in row_a:
                if row_a[name] != row_b[name]:
                    divergence = Divergence(
                        k, None, f"metrics.{name}", row_a[name], row_b[name], scenario
                    )
                    break
        if divergence is not None:
            break

    def _totals(trace: TraceRecorder) -> dict[str, int]:
        arrays = trace.channel_metrics.as_arrays()
        return {name: int(arr[:compared].sum()) for name, arr in arrays.items()}  # repro: noqa RPR002 -- as_arrays() keys follow the fixed ChannelMetrics.FIELDS order and the result is compared as a dict (order-blind)

    return ConformanceReport(
        scenario=scenario,
        ok=divergence is None,
        slots=max_slots,
        completed=True,  # budget-bounded by design: beacons never decide
        divergence=divergence,
        classic_totals=_totals(trace_a),
        vectorized_totals=_totals(trace_b),
    )
