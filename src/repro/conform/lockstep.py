"""Lockstep conformance: every engine route against its per-slot reference.

Theorem 2 holds *at all times* under Sect. 2's slot model, so the
engine's span-stepped routes (see :mod:`repro.radio.engine`) must
simulate that model slot for slot.  This module makes the claim
falsifiable.  :func:`run_lockstep` runs a node population on its own
route — advanced by :meth:`~repro.radio.engine.RadioSimulator.
step_block` at a chosen block size and stopped by the protocol's
completion predicate — next to a **per-slot reference** of the same
population on the same deployment, parameters, wake schedule and seed,
and demands slot-exact agreement of every observable: transmissions
(payloads included), receptions, collisions, state transitions and
decisions, the channel metrics, and the terminal state.

The reference is the engine's per-slot loop, which steps every awake
node every slot, delivers every reception and shares no span code with
either route.  A population picks its route by its interface, so the
reference wraps each node in a class that hides it:

- the **classic** population (``ColoringNode``, which draws its own
  transmit coin in ``step``) runs behind :class:`PerSlotNode`, a plain
  forwarding wrapper without ``next_step_slot``.  Both sides draw from
  identically seeded protocol streams in the same per-slot order, so
  even the per-slot draw counts must agree;
- the **batched** population (``BernoulliColoringNode``, whose coin the
  vectorized route draws) runs behind :class:`StepShimNode`, which
  flips the coin from a :class:`SlotUniformSource` — a generator seeded
  like the route's and drawn in the same one-``random(n)``-per-slot
  pattern — so both sides see byte-identical transmit decisions.  The
  shim re-reads ``next_event_slot()`` / ``tx_prob()`` from node state
  every slot, where the route trusts its cached arrays and the refresh
  discipline that maintains them.

Both engines spawn their loss child from equal seed sequences, so the
loss streams coincide too, and any remaining difference is a real
divergence: a stale cache, a missed refresh, a step skipped or taken
back wrongly, a reordered delivery, a miscounted metric.
:func:`run_unaligned_lockstep` compares the aligned engine with the
zero-offset unaligned simulator through the same comparison.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro._util import spawn_generator
from repro.conform.divergence import ConformanceReport, Divergence, localize_slot
from repro.conform.scenarios import Scenario
from repro.core.params import Parameters, suggested_max_slots
from repro.core.protocol import DEFAULT_BLOCK
from repro.core.strategy import ColoringProtocol, resolve_protocol
from repro.core.vector_node import BernoulliColoringNode
from repro.graphs.deployment import Deployment
from repro.radio.channel import PhyModel
from repro.radio.engine import RadioSimulator
from repro.radio.messages import ColorMessage, Message
from repro.radio.node import ProtocolNode
from repro.radio.trace import ChannelMetrics, TraceEvent, TraceRecorder
from repro.radio.unaligned import UnalignedRadioSimulator

__all__ = [
    "LockstepPair",
    "PerSlotNode",
    "SlotUniformSource",
    "SourcedBeaconNode",
    "StepShimNode",
    "build_lockstep",
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


class PerSlotNode(ProtocolNode):
    """Steps one classic node every slot of the engine's per-slot loop.

    Forwards the wake-up, ``step`` and ``deliver`` to the wrapped node.
    The wrapper has neither ``tx_prob`` nor ``next_step_slot``, so a
    population of them runs the loop that steps every awake node every
    slot and delivers every reception unfiltered.
    """

    __slots__ = ("inner",)

    def __init__(self, inner) -> None:
        super().__init__(inner.vid)
        self.inner = inner

    def on_wake(self, slot: int) -> None:
        """Forward the wake-up to the wrapped node."""
        self.inner.wake(slot)

    def step(self, slot: int, rng) -> Message | None:
        """Forward the slot's step (the engine's protocol stream)."""
        return self.inner.step(slot, rng)

    def deliver(self, slot: int, msg: Message) -> bool | None:
        """Forward a successful reception to the wrapped node."""
        return self.inner.deliver(slot, msg)

    @property
    def done(self) -> bool:
        """Whether the wrapped node has decided its color."""
        return self.inner.done


class StepShimNode(PerSlotNode):
    """Steps one batched-interface node every slot, with the vectorized
    route's semantics recomputed from node state.

    Applies the due scheduled event, then transmits iff the shared
    uniform beats ``tx_prob()``.  The engine-provided ``rng`` is
    deliberately unused: transmit decisions come from the shared
    :class:`SlotUniformSource`, so both sides consume identical
    randomness.
    """

    __slots__ = ("_source",)

    def __init__(self, inner, source: SlotUniformSource) -> None:
        super().__init__(inner)
        self._source = source

    def step(self, slot: int, rng) -> Message | None:
        """Apply the due event, then transmit iff the shared uniform
        beats ``tx_prob``."""
        inner = self.inner
        if inner.next_event_slot() <= slot:
            inner.on_event(slot)
        if self._source.uniforms(slot)[self.vid] < inner.tx_prob():
            return inner.emit(slot)
        return None


@dataclass
class LockstepPair:
    """The two wired simulators and their protocol nodes."""

    reference: RadioSimulator  #: the per-slot loop over wrapped nodes
    route: RadioSimulator  #: the population on its own route
    reference_nodes: list  #: the *inner* protocol nodes behind the wrappers
    route_nodes: list


def build_lockstep(
    dep: Deployment,
    params: Parameters,
    wake_slots: np.ndarray,
    *,
    seed: int = 0,
    loss_prob: float = 0.0,
    node_cls: type = BernoulliColoringNode,
    route_node_cls: type | None = None,
    phy_factory: Callable[[], PhyModel] | None = None,
) -> LockstepPair:
    """Wire the lockstep pair (identical seeds, independent traces).

    ``node_cls`` picks the population: a batched class (with
    ``tx_prob``) is referenced through :class:`StepShimNode`, any other
    through :class:`PerSlotNode`.  ``route_node_cls`` substitutes a
    different class of the same population on the route side only — how
    the localizer's own regression tests inject deliberate bugs.
    ``phy_factory`` builds one fresh PHY model per engine (a PHY binds
    to exactly one simulator); both sides get structurally identical
    models, and any PHY side stream (e.g. channel hopping) is spawned in
    the same order from identically seeded generators.
    """
    n = dep.n

    def conform_rng() -> np.random.Generator:
        # Equal but distinct generators: each PCG64 stream starts
        # identically, and each engine spawns its own loss child from
        # its own (fresh) spawn counter, so the loss streams coincide.
        return spawn_generator(seed, _CONFORM_KEY)

    def simulator(nodes: list, trace: TraceRecorder) -> RadioSimulator:
        return RadioSimulator(
            dep,
            nodes,
            wake_slots,
            rng=conform_rng(),
            trace=trace,
            loss_prob=loss_prob,
            phy=phy_factory() if phy_factory is not None else None,
        )

    trace_a = TraceRecorder(n, level=2)
    inner = [node_cls(v, params, trace_a) for v in range(n)]
    if hasattr(node_cls, "tx_prob"):
        source = SlotUniformSource(conform_rng(), n)
        wrapped: list = [StepShimNode(node, source) for node in inner]
    else:
        wrapped = [PerSlotNode(node) for node in inner]
    route_cls = route_node_cls or node_cls
    trace_b = TraceRecorder(n, level=2)
    route_nodes = [route_cls(v, params, trace_b) for v in range(n)]
    route = simulator(route_nodes, trace_b)
    assert route.vectorized or hasattr(route_cls, "next_step_slot"), (
        f"{route_cls.__name__} has no span-stepped route"
    )
    return LockstepPair(simulator(wrapped, trace_a), route, inner, route_nodes)


def _by_slot(events: list[TraceEvent]) -> dict[int, list[TraceEvent]]:
    """Events grouped by their stamped slot."""
    out: dict[int, list[TraceEvent]] = {}
    for e in events:
        out.setdefault(e.slot, []).append(e)
    return out


def _first_divergence(
    events_a: list[TraceEvent],
    events_b: list[TraceEvent],
    metrics_a: ChannelMetrics,
    metrics_b: ChannelMetrics,
    slots: range,
    scenario: Scenario | None,
    route_draws: int | None = None,
) -> Divergence | None:
    """The first divergence over ``slots``, slot by slot: the slot's
    level-2 events in canonical form, then its six metric columns.

    Events are grouped by their stamped slot (some transitions stamp the
    next slot); those stamped past ``slots`` are compared last.  Both
    sides must have processed exactly ``slots``, so such a group holds
    the same share of that slot's events on either side.  The route's
    ``protocol_draws`` must equal ``route_draws`` in every slot where
    that is given (the vectorized route draws ``n`` uniforms per slot;
    its reference draws from the shared source instead), and the
    reference's otherwise.
    """
    by_a, by_b = _by_slot(events_a), _by_slot(events_b)
    for k in slots:
        divergence = localize_slot(k, by_a.pop(k, []), by_b.pop(k, []), scenario)
        if divergence is not None:
            return divergence
        for name in ChannelMetrics.FIELDS:
            a = getattr(metrics_a, name)[k]
            b = getattr(metrics_b, name)[k]
            if name == "protocol_draws" and route_draws is not None:
                a = route_draws
            if a != b:
                # Events agreed but a counter did not: the metrics
                # instrumentation itself drifted between the sides.
                return Divergence(k, None, f"metrics.{name}", a, b, scenario)
    for k in sorted(by_a.keys() | by_b.keys()):
        divergence = localize_slot(k, by_a.get(k, []), by_b.get(k, []), scenario)
        if divergence is not None:
            return divergence
    return None


def _final_divergence(pair: LockstepPair, scenario) -> Divergence | None:
    """Terminal cross-checks once the slot loop agreed everywhere."""
    ta, tb = pair.reference.trace, pair.route.trace
    slot = pair.reference.slot
    for v, (a, b) in enumerate(zip(pair.reference_nodes, pair.route_nodes)):
        if a.color != b.color:
            return Divergence(slot, v, "final.colors", a.color, b.color, scenario)
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
    block: int = DEFAULT_BLOCK,
    max_slots: int | None = None,
    node_cls: type = BernoulliColoringNode,
    route_node_cls: type | None = None,
    scenario: Scenario | None = None,
    phy_factory: Callable[[], PhyModel] | None = None,
    protocol: ColoringProtocol | str | None = None,
) -> ConformanceReport:
    """Run a population's route against its per-slot reference and
    localize the first divergence.

    The route advances ``block`` slots per
    :meth:`~repro.radio.engine.RadioSimulator.step_block` call, stopped
    by ``protocol``'s completion predicate with ``check_every=1`` (so at
    the exact slot it first holds, as in ``run_coloring``); the
    reference then steps slot by slot to the same slot.  Each slot's
    level-2 events, its metric columns tx, rx, collisions, lost and
    loss_draws, and its protocol_draws (equal on the classic population;
    ``n`` per slot on the vectorized route) are compared, and at the end
    the completion predicate on both sides and the terminal state
    (colors, decide slots, per-node counters).  The first mismatch ends
    the run, and the report carries a :class:`Divergence` naming the
    slot, node and field, with the scenario as minimized reproducer.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if max_slots is not None and max_slots < 0:
        raise ValueError(f"max_slots must be >= 0, got {max_slots}")
    proto = resolve_protocol(protocol)
    pair = build_lockstep(
        dep,
        params,
        wake_slots,
        seed=seed,
        loss_prob=loss_prob,
        node_cls=node_cls,
        route_node_cls=route_node_cls,
        phy_factory=phy_factory,
    )
    if max_slots is None:
        wake_max = int(wake_slots.max()) if dep.n else 0
        max_slots = suggested_max_slots(params, wake_max)
    sim_a, sim_b = pair.reference, pair.route
    ta, tb = sim_a.trace, sim_b.trace
    nodes_a, nodes_b = pair.reference_nodes, pair.route_nodes
    route_draws = dep.n if sim_b.vectorized else None

    def route_done(_sim: object) -> bool:
        return proto.completed(tb, nodes_b)

    ia = ib = 0  # consumed prefixes of the two event lists
    divergence: Divergence | None = None
    while sim_b.slot < max_slots:
        t0 = sim_b.slot
        stopped = sim_b.step_block(
            min(block, max_slots - t0), route_done, check_every=1
        )
        while sim_a.slot < sim_b.slot:
            sim_a.step()
        divergence = _first_divergence(
            ta.events[ia:], tb.events[ib:], ta.channel_metrics,
            tb.channel_metrics, range(t0, sim_b.slot), scenario, route_draws,
        )
        ia, ib = len(ta.events), len(tb.events)
        if divergence is not None or stopped:
            break
    done_a = proto.completed(ta, nodes_a)
    done_b = proto.completed(tb, nodes_b)
    if divergence is None and done_a != done_b:
        divergence = Divergence(sim_a.slot, None, "completed", done_a, done_b, scenario)
    if divergence is None:
        divergence = _final_divergence(pair, scenario)
    return ConformanceReport(
        scenario=scenario,
        ok=divergence is None,
        slots=sim_a.slot,
        completed=done_a and done_b,
        divergence=divergence,
        reference_totals=ta.channel_metrics.totals(),
        route_totals=tb.channel_metrics.totals(),
        population=(route_node_cls or node_cls).__name__,
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
    """Lockstep the aligned engine's per-slot loop against the
    zero-offset unaligned simulator on a scripted beacon population.

    With every offset zero, each transmission overlaps exactly one slot
    of every neighbor, so the unaligned engine's rolling buffers must
    reproduce the aligned reception rule *exactly* — same deliveries,
    same collisions, same loss draws (both engines spawn their loss
    child as the protocol stream's first spawn from identically-seeded
    generators).  The comparison is slot-lagged: the unaligned engine
    finalizes slot ``k`` during step ``k + 1`` and never finalizes the
    final slot, so slots ``0 .. max_slots - 2`` are compared — events
    in canonical form plus all six metric columns (protocol draw counts
    included: both sides' beacons draw from shared uniform sources
    outside the metered stream, so the counters must agree to the draw).
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

    compared = max_slots - 1  # the final slot is never finalized unaligned
    divergence = _first_divergence(
        [e for e in trace_a.events if e.slot < compared],
        [e for e in trace_b.events if e.slot < compared],
        trace_a.channel_metrics,
        trace_b.channel_metrics,
        range(compared),
        scenario,
    )

    def _totals(trace: TraceRecorder) -> dict[str, int]:
        arrays = trace.channel_metrics.as_arrays()
        return {name: int(arr[:compared].sum()) for name, arr in arrays.items()}  # repro: noqa RPR002 -- as_arrays() keys follow the fixed ChannelMetrics.FIELDS order and the result is compared as a dict (order-blind)

    return ConformanceReport(
        scenario=scenario,
        ok=divergence is None,
        slots=max_slots,
        completed=True,  # budget-bounded by design: beacons never decide
        divergence=divergence,
        reference_totals=_totals(trace_a),
        route_totals=_totals(trace_b),
    )
