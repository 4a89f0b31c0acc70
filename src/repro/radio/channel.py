"""The shared channel-resolution core and pluggable PHY models.

Every simulator in :mod:`repro.radio` ends a slot the same way: a set of
transmissions must be turned into per-listener outcomes (delivery,
collision, or injected loss), in a canonical order, with the always-on
channel metrics emitted.  Before this module existed that machinery
lived inline in :class:`~repro.radio.engine.RadioSimulator` and was
partially forked (without loss injection or metrics) into
:class:`~repro.radio.unaligned.UnalignedRadioSimulator`.  Now it is one
core with two cleanly separated roles:

- a :class:`PhyModel` decides *who can hear whom*: it maps a slot's
  transmission set to ``(listener, overlap count, message, eligible)``
  candidate rows in ascending listener order.
  :class:`CollisionPhy` is the paper's single-channel graph-collision
  model (Sect. 2); :class:`MultiChannelPhy` is the multi-channel model
  of the earlier unstructured-radio papers the paper contrasts itself
  with ([13, 14]) — nodes sit on a channel per slot and only same-channel
  transmissions interfere;
- the :class:`ChannelCore` applies the *model-independent* delivery
  law to those rows: exactly-one-overlap listeners receive (unless the
  injected-loss coin drops the message), two-or-more collide silently,
  and every outcome is traced and counted.

Determinism contract (every PHY must uphold it; see DESIGN.md §5.9):

1. **Canonical order** — ``resolve`` returns candidates in ascending
   listener id, so loss-draw assignment and trace event order are a
   function of the slot's transmission *set*, never of which execution
   path (or buffer geometry) produced it.
2. **Loss-stream isolation** — loss coins come from a child generator
   spawned off the protocol stream at construction
   (:meth:`numpy.random.Generator.spawn` consumes no parent draws), so a
   fixed seed yields the identical protocol trajectory at any
   ``loss_prob``.
3. **Side-stream isolation** — any extra randomness a PHY needs (e.g.
   channel hopping) must likewise come from its own spawned child,
   metered, never from the protocol stream.
4. **Empty-slot laziness** — ``resolve`` must consume no randomness when
   the outbox is empty (draw side streams lazily, like
   :class:`MultiChannelPhy` does).  The block-stepped engine advances
   runs of empty slots without calling ``resolve`` at all, so an eager
   PHY draw would silently decouple the block-stepped and per-slot
   trajectories.

Adding a new PHY model is three steps: subclass :class:`PhyModel`,
implement ``resolve`` honouring the contract above, and add a pinned
conformance scenario for it (see :mod:`repro.conform.scenarios`) so the
dual-path harness keeps it honest.  ``docs/model.md`` walks through the
interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.graphs.deployment import Deployment
from repro.radio.messages import Message, message_bits
from repro.radio.trace import TraceRecorder
from repro._util import RngMeter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.radio.node import ProtocolNode

#: one PHY candidate row: (listener, overlap count, message, eligible).
Candidate = tuple[int, int, "Message | None", bool]

__all__ = [
    "ChannelCore",
    "CollisionPhy",
    "MultiChannelPhy",
    "PhyModel",
    "SimulationResult",
    "SinrPhy",
    "SlotSteppedSimulator",
    "build_csr",
    "make_phy",
    "phy_names",
]


def build_csr(dep: Deployment) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a deployment's per-node neighbor arrays into CSR-style
    ``(indptr, indices)`` arrays: node ``v``'s neighbors are
    ``indices[indptr[v]:indptr[v+1]]``.

    Delegates to the deployment's cached :attr:`~repro.graphs.deployment.
    Deployment.csr` property, so repeated binds — every run of a seed
    sweep over one deployment, every lockstep pair — share one adjacency
    structure."""
    return dep.csr


@dataclass
class SimulationResult:
    """Outcome of :meth:`SlotSteppedSimulator.run` (any simulator)."""

    slots: int
    stopped_early: bool
    trace: TraceRecorder

    @property
    def timed_out(self) -> bool:
        """Whether the run exhausted its slot budget without stopping."""
        return not self.stopped_early


class ChannelCore:
    """Model-independent phases 3–4: loss injection, delivery, tracing.

    One instance per simulator.  The core owns the loss stream (a child
    spawned from the protocol generator, so instantiating it never
    shifts protocol draws), the ``max_message_bits`` compliance check,
    and the delivery law applied to whatever candidate rows a
    :class:`PhyModel` (or the unaligned simulator's rolling buffers)
    produces.

    Parameters
    ----------
    nodes:
        The simulator's protocol nodes, indexed by vid.
    trace:
        The run's recorder (rx/collision events and channel metrics).
    rng:
        The *metered* protocol stream; the loss child is spawned from it.
    loss_prob:
        Receiver-side i.i.d. injected loss probability in ``[0, 1)``.
    max_message_bits:
        If not ``None``, transmissions above this size raise (model
        compliance, Sect. 2).
    id_space:
        Node-id space size used by :func:`~repro.radio.messages.message_bits`
        (the deployment's ``n``).
    """

    __slots__ = (
        "nodes",
        "trace",
        "rng",
        "loss_prob",
        "_loss_rng",
        "max_message_bits",
        "id_space",
        "on_deliver",
    )

    def __init__(
        self,
        nodes: "Sequence[ProtocolNode]",
        trace: TraceRecorder,
        rng: RngMeter,
        *,
        loss_prob: float = 0.0,
        max_message_bits: int | None = None,
        id_space: int = 0,
    ) -> None:
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {loss_prob}")
        self.nodes = nodes
        self.trace = trace
        self.rng = rng
        self.loss_prob = loss_prob
        # Loss injection must not perturb the protocol stream: spawning a
        # child consumes no draws from ``rng``, so the protocol trajectory
        # at a fixed seed is identical at any loss_prob.
        self._loss_rng = RngMeter(rng.spawn(1)[0]) if loss_prob > 0.0 else None
        self.max_message_bits = max_message_bits
        self.id_space = id_space
        #: optional hook called as ``on_deliver(u, msg)`` after each
        #: successful delivery (fast-path cache refresh, unaligned
        #: decode-once bookkeeping).
        self.on_deliver: Callable[[int, Message], None] | None = None

    # ------------------------------------------------------------------
    @property
    def loss_draws(self) -> int:
        """Variates consumed from the loss stream so far."""
        return self._loss_rng.draws if self._loss_rng is not None else 0

    def record_tx(
        self, t: int, v: int, msg: Message, outbox: list[tuple[int, Message]]
    ) -> None:
        """Phase-2 exit point: size-check, log, and enqueue a transmission."""
        if self.max_message_bits is not None:
            bits = message_bits(msg, self.id_space)
            if bits > self.max_message_bits:
                raise RuntimeError(
                    f"slot {t}: node {v} sent a {bits}-bit message, "
                    f"exceeding the {self.max_message_bits}-bit bound"
                )
        outbox.append((v, msg))
        self.trace.tx(t, v, msg)

    def deliver(self, t: int, candidates: Iterable[Candidate]) -> tuple[int, int, int]:
        """Apply the delivery law to candidate rows, in the order given.

        ``candidates`` yields ``(listener, count, msg, eligible)`` rows —
        ascending listener id by the PHY contract.  Ineligible listeners
        (asleep or themselves transmitting) observe nothing; an eligible
        listener with ``count == 1`` receives unless the loss coin drops
        the message (silently, like a collision); ``count >= 2`` is a
        collision.  The loss stream is consumed one draw per
        otherwise-successful reception, so the canonical candidate order
        makes loss outcomes a function of the slot's transmission set.
        Returns ``(delivered, collided, lost)``.
        """
        nodes = self.nodes
        trace = self.trace
        loss_rng = self._loss_rng
        on_deliver = self.on_deliver
        delivered = collided = lost = 0
        for u, count, msg, eligible in candidates:
            if not eligible:
                continue
            if count == 1 and msg is not None:
                if loss_rng is not None and loss_rng.random() < self.loss_prob:
                    lost += 1  # injected fading loss: silent, like a collision
                else:
                    nodes[u].deliver(t, msg)
                    trace.rx(t, u, msg)
                    delivered += 1
                    if on_deliver is not None:
                        on_deliver(u, msg)
            else:
                trace.collision(t, u, int(count))
                collided += 1
        return delivered, collided, lost


class PhyHost(Protocol):
    """What a simulator must expose for a :class:`PhyModel` to bind to
    it: the deployment, the node list, and the metered protocol stream
    (side streams are spawned from it)."""

    deployment: Deployment
    nodes: "Sequence[ProtocolNode]"
    rng: RngMeter


class PhyModel(ABC):
    """Strategy interface: map a slot's transmission set to candidates.

    A PHY is bound to exactly one simulator (:meth:`bind` is where it
    precomputes adjacency and spawns any side streams), then asked once
    per slot to :meth:`resolve` the outbox into candidate rows for
    :meth:`ChannelCore.deliver`.  See the module docstring for the
    determinism contract every implementation must uphold.
    """

    #: short identifier used in scenario labels and CLI flags.
    name = "phy"

    # Bind-time state (set by :meth:`bind`).
    sim: PhyHost
    _nodes: "Sequence[ProtocolNode]"
    _indptr: np.ndarray
    _indices: np.ndarray
    _recv_count: np.ndarray
    _incoming: list[Message | None]
    _transmitting: np.ndarray

    def bind(self, sim: PhyHost) -> None:
        """Attach to ``sim`` (must expose ``deployment``, ``nodes`` and a
        metered ``rng``).  Called once, at simulator construction."""
        self.sim = sim
        dep = sim.deployment
        n = dep.n
        self._nodes = sim.nodes
        self._indptr, self._indices = build_csr(dep)
        # Channel state, persistent across slots, reset sparsely.
        self._recv_count = np.zeros(n, dtype=np.int64)
        self._incoming: list[Message | None] = [None] * n
        self._transmitting = np.zeros(n, dtype=bool)

    @abstractmethod
    def resolve(
        self, slot: int, outbox: list[tuple[int, Message]]
    ) -> list[Candidate]:
        """Return ``(listener, count, msg, eligible)`` rows, ascending in
        listener id.  ``count`` is the number of transmissions the
        listener's slot overlaps under this PHY; ``msg`` is the unique
        message when ``count == 1``; ``eligible`` is whether the listener
        could receive at all (awake and not transmitting)."""


class CollisionPhy(PhyModel):
    """The paper's single-channel PHY: a listener is touched by every
    transmitting graph neighbor; exactly one touch decodes, two or more
    collide (Sect. 2's no-collision-detection rule).  Transmitter-centric:
    only the neighborhoods of actual transmitters are scanned, via the
    CSR adjacency built at :meth:`bind`."""

    name = "collision"

    def resolve(
        self, slot: int, outbox: list[tuple[int, Message]]
    ) -> list[Candidate]:
        """Scatter each transmission to its neighbors; emit candidates
        in ascending listener order (the canonical-order contract)."""
        recv_count = self._recv_count
        incoming = self._incoming
        transmitting = self._transmitting
        indptr, indices = self._indptr, self._indices
        nodes = self._nodes
        touched: list[int] = []
        for v, msg in outbox:
            transmitting[v] = True
            for u in indices[indptr[v] : indptr[v + 1]]:
                if recv_count[u] == 0:
                    touched.append(u)
                    incoming[u] = msg
                recv_count[u] += 1
        touched.sort()
        candidates: list[Candidate] = []
        for u in touched:
            candidates.append(
                (u, int(recv_count[u]), incoming[u],
                 nodes[u].awake and not transmitting[u])
            )
            recv_count[u] = 0
            incoming[u] = None
        for v, _ in outbox:
            transmitting[v] = False
        return candidates


class MultiChannelPhy(PhyModel):
    """Multi-channel PHY (the [13, 14] model the paper contrasts with).

    Every node sits on one of ``channels`` channels per slot; a
    transmission is heard only by graph neighbors on the *same* channel,
    so collisions thin out while the sender–listener match probability
    drops as ``1/channels``.  Channel selection per slot and node:

    - a node exposing a ``pick_channel(slot) -> int`` method reports its
      own channel (protocol-controlled hopping);
    - every other node hops uniformly at random, drawn from the PHY's
      *own* metered side stream — a child spawned off the protocol
      generator at :meth:`bind`, so multi-channel runs keep the protocol
      trajectory contract (side-stream isolation).

    The closed-form counterpart is
    :func:`repro.radio.batch.multichannel_reception_rates`; this class
    makes the same semantics *steppable*, so full protocols (E17) run on
    a multi-channel world.
    """

    name = "multichannel"

    def __init__(self, channels: int) -> None:
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        self.channels = int(channels)

    def bind(self, sim: PhyHost) -> None:
        """Attach to ``sim`` and spawn the metered hop side stream."""
        super().bind(sim)
        # Side-stream isolation: hopping draws never touch the protocol
        # stream (metered separately; see channel_draws).
        self._hop_rng = RngMeter(sim.rng.spawn(1)[0])
        # (vid, bound pick_channel) for protocol-controlled hoppers;
        # fetched via getattr since pick_channel is an optional protocol
        # extension, not part of the ProtocolNode interface.
        self._reporters: list[tuple[int, Callable[[int], int]]] = [
            (v, getattr(node, "pick_channel"))
            for v, node in enumerate(self._nodes)
            if hasattr(node, "pick_channel")
        ]
        self._chan = np.zeros(sim.deployment.n, dtype=np.int64)

    @property
    def channel_draws(self) -> int:
        """Variates consumed from the hop stream so far."""
        return self._hop_rng.draws

    def _slot_channels(self, slot: int) -> np.ndarray:
        """This slot's per-node channel assignment (hop draws + reported
        channels).  Drawn lazily — only for slots with transmissions —
        which is deterministic because the transmission set is."""
        chan = self._chan
        n = len(chan)
        chan[:] = self._hop_rng.integers(0, self.channels, size=n)
        for v, pick in self._reporters:
            c = int(pick(slot))
            if not 0 <= c < self.channels:
                raise ValueError(
                    f"node {v} picked channel {c} outside [0, {self.channels})"
                )
            chan[v] = c
        return chan

    def resolve(
        self, slot: int, outbox: list[tuple[int, Message]]
    ) -> list[Candidate]:
        """Like :meth:`CollisionPhy.resolve`, but only same-channel
        neighbors are touched; the hop vector is drawn lazily so idle
        slots consume nothing from the side stream."""
        if not outbox:
            return []
        chan = self._slot_channels(slot)
        recv_count = self._recv_count
        incoming = self._incoming
        transmitting = self._transmitting
        indptr, indices = self._indptr, self._indices
        nodes = self._nodes
        touched: list[int] = []
        for v, msg in outbox:
            transmitting[v] = True
            cv = chan[v]
            for u in indices[indptr[v] : indptr[v + 1]]:
                if chan[u] != cv:
                    continue  # cross-channel: invisible, not even noise
                if recv_count[u] == 0:
                    touched.append(u)
                    incoming[u] = msg
                recv_count[u] += 1
        touched.sort()
        candidates: list[Candidate] = []
        for u in touched:
            candidates.append(
                (u, int(recv_count[u]), incoming[u],
                 nodes[u].awake and not transmitting[u])
            )
            recv_count[u] = 0
            incoming[u] = None
        for v, _ in outbox:
            transmitting[v] = False
        return candidates


class SinrPhy(PhyModel):
    """Physical-interference (SINR) PHY over the deployment's geometry.

    Where :class:`CollisionPhy` counts transmitting graph neighbors,
    this model computes each listener's **signal-to-interference-plus-
    noise ratio** from deployment positions: a transmission from ``v``
    reaches listener ``u`` with received power
    ``power * d(v, u) ** -alpha`` (``d`` Euclidean, clamped below by
    ``min_dist`` so coincident nodes stay finite), and ``u`` decodes
    ``v`` iff

        ``P_vu / (noise + sum of all other received powers) >= threshold``

    — the standard physical model (cf. *Simple Distributed Delta+1
    Coloring in the SINR Model*, PAPERS.md).  Two deliberate scoping
    decisions keep the model composable with the graph-based protocol
    layer:

    - **Graph-scoped decoding, global interference.**  Only graph
      neighbors of a transmitter are candidate listeners (the protocol's
      neighbor semantics — competitor lists, leader association — are
      graph facts), but the interference sum runs over *every*
      transmitter in the slot, neighbors or not: distant transmissions
      the collision model treats as invisible raise the noise floor
      here, which is exactly the phenomenon the SINR literature models.
    - **Capture effect.**  A listener touched by several transmitting
      neighbors decodes anyway if exactly one of them clears the
      threshold (e.g. one much closer than the rest) — reported as
      ``count == 1`` with the decoded message.  Zero decodable signals
      report the touch count with no message (a collision/fade, silent
      at the protocol level, like Sect. 2's rule); with
      ``threshold >= 1`` at most one signal can ever clear the bar
      (two would each need more than half the total received power), so
      raising the threshold only ever removes receptions — the
      monotonicity property the Hypothesis suite pins.

    The model consumes **no randomness** — geometry and the slot's
    transmission set decide everything — so every clause of the module
    determinism contract holds trivially, and composing ``loss_prob``
    or block execution changes nothing about which signals decode.
    """

    name = "sinr"

    def __init__(
        self,
        *,
        alpha: float = 3.0,
        noise: float = 0.01,
        threshold: float = 2.0,
        power: float = 1.0,
        min_dist: float = 1e-6,
    ) -> None:
        if alpha <= 0.0:
            raise ValueError(f"path-loss exponent alpha must be > 0, got {alpha}")
        if noise <= 0.0:
            raise ValueError(f"noise floor must be > 0, got {noise}")
        if threshold <= 0.0:
            raise ValueError(f"SINR threshold must be > 0, got {threshold}")
        if power <= 0.0:
            raise ValueError(f"transmit power must be > 0, got {power}")
        if min_dist <= 0.0:
            raise ValueError(f"min_dist must be > 0, got {min_dist}")
        self.alpha = float(alpha)
        self.noise = float(noise)
        self.threshold = float(threshold)
        self.power = float(power)
        self.min_dist = float(min_dist)

    def bind(self, sim: PhyHost) -> None:
        """Attach to ``sim``; SINR additionally needs node positions."""
        super().bind(sim)
        if sim.deployment.positions is None:
            raise ValueError(
                "the sinr phy computes path loss from node positions; "
                f"deployment {sim.deployment.kind!r} has none"
            )
        self._pos = np.asarray(sim.deployment.positions, dtype=np.float64)
        # Per-listener indices into the slot's outbox (neighbor
        # transmitters only), reset sparsely like _recv_count.
        self._touching: list[list[int] | None] = [None] * sim.deployment.n

    def resolve(
        self, slot: int, outbox: list[tuple[int, Message]]
    ) -> list[Candidate]:
        """Per-listener SINR judgement of the slot's transmission set.

        Transmissions are scattered onto graph neighbors, recording per
        listener *which* outbox rows touch it (``_recv_count`` holds the
        counts); then each touched listener (ascending) gets one row:
        exactly one neighbor signal above threshold decodes, otherwise
        the row is a collision/fade carrying the decodable (or touch)
        count.  The sparse touch state is reset as rows are emitted."""
        if not outbox:
            return []
        recv_count = self._recv_count
        touching = self._touching
        indptr, indices = self._indptr, self._indices
        touched: list[int] = []
        for k, (v, _msg) in enumerate(outbox):
            for u in indices[indptr[v] : indptr[v + 1]]:
                if recv_count[u] == 0:
                    touched.append(u)
                    touching[u] = [k]
                else:
                    rows = touching[u]
                    assert rows is not None
                    rows.append(k)
                recv_count[u] += 1
        touched.sort()
        transmitting = self._transmitting
        nodes = self._nodes
        pos = self._pos
        alpha, noise, threshold, power = (
            self.alpha, self.noise, self.threshold, self.power,
        )
        for v, _ in outbox:
            transmitting[v] = True
        tx_pos = pos[[v for v, _ in outbox]]  # (m, d): all transmitters
        candidates: list[Candidate] = []
        for u in touched:
            delta = tx_pos - pos[u]
            # Euclidean in any position dimensionality (UBG deployments
            # may embed in more than 2 dims), clamped below min_dist.
            dist = np.maximum(
                np.sqrt(np.einsum("ij,ij->i", delta, delta)), self.min_dist
            )
            gains = power * dist ** -alpha
            total = float(gains.sum())
            rows = touching[u]
            assert rows is not None
            decodable = -1
            decodable_count = 0
            for k in rows:
                g = float(gains[k])
                # Interference is everything else on the air, clamped at
                # zero against float cancellation in ``total - g``.
                interference = max(total - g, 0.0)
                if g >= threshold * (noise + interference):
                    decodable_count += 1
                    decodable = k
            eligible = nodes[u].awake and not transmitting[u]
            if decodable_count == 1:
                candidates.append((u, 1, outbox[decodable][1], eligible))
            elif decodable_count == 0:
                # All touching signals drowned: silent at the protocol
                # level, recorded as a collision with the touch count.
                candidates.append((u, int(recv_count[u]), None, eligible))
            else:
                candidates.append((u, decodable_count, None, eligible))
            recv_count[u] = 0
            touching[u] = None
        for v, _ in outbox:
            transmitting[v] = False
        return candidates


#: name -> PHY factory registry; every factory takes the channel count
#: (only ``multichannel`` uses it).
_PHY_FACTORIES: dict[str, Callable[[int], PhyModel]] = {  # repro: noqa RPR004 -- name->factory registry populated at import time and read-only thereafter; every entry builds a fresh PHY per call
    "collision": lambda channels: CollisionPhy(),
    "multichannel": lambda channels: MultiChannelPhy(channels),
    "sinr": lambda channels: SinrPhy(),
}


def phy_names() -> tuple[str, ...]:
    """The registered PHY names, in registration order."""
    return tuple(_PHY_FACTORIES)


def make_phy(name: str, channels: int = 2) -> PhyModel:
    """PHY factory by CLI/scenario name (see :func:`phy_names`).

    Raises a :class:`ValueError` naming the known choices on a bad name
    (never a bare ``KeyError``).
    """
    try:
        factory = _PHY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown phy {name!r}; pick from {phy_names()}"
        ) from None
    return factory(channels)


class SlotSteppedSimulator(ABC):
    """Shared run loop for slot-stepped simulators.

    Subclasses implement :meth:`step` (advance one slot, record that
    slot's metrics) and :attr:`all_woken`; :meth:`run` provides the
    common stop-predicate contract: ``stop_when`` is evaluated every
    ``check_every`` slots once all nodes have woken, plus once at the
    budget boundary, and the result carries ``stopped_early`` /
    ``timed_out`` semantics identical across all simulators.
    """

    slot: int
    trace: TraceRecorder

    @abstractmethod
    def step(self) -> None:
        """Advance the network by one slot."""

    @property
    @abstractmethod
    def all_woken(self) -> bool:
        """Whether every node's wake slot has passed."""

    def step_block(
        self,
        count: int,
        stop_when: Callable[["SlotSteppedSimulator"], bool] | None = None,
        check_every: int = 16,
    ) -> bool:
        """Advance up to ``count`` slots; return whether ``stop_when``
        held at a check boundary (the slot counter then sits exactly at
        the stopping slot).

        This base implementation is a plain per-slot loop — byte-for-byte
        the semantics of calling :meth:`step` ``count`` times with the
        :meth:`run` stop-check between steps.  Simulators with a bulk
        execution mode (the vectorized engine's block-stepped path)
        override it to advance many slots per Python iteration while
        preserving exactly those semantics.
        """
        for _ in range(count):
            self.step()
            if (
                stop_when is not None
                and self.all_woken
                and self.slot % check_every == 0
                and stop_when(self)
            ):
                return True
        return False

    def run(
        self,
        max_slots: int,
        stop_when: Callable[["SlotSteppedSimulator"], bool] | None = None,
        check_every: int = 16,
        block: int = 1,
    ) -> SimulationResult:
        """Run until ``stop_when`` holds (checked every ``check_every``
        slots, and only after all nodes have woken) or ``max_slots`` pass.

        ``check_every`` amortizes expensive stop predicates, at the cost
        of overshooting the exact completion slot by up to ``check_every
        - 1`` simulated slots (the reported ``slots`` then includes the
        overshoot).  Callers with an O(1) predicate — e.g. one backed by
        :attr:`TraceRecorder.decided <repro.radio.trace.TraceRecorder>` —
        should pass ``check_every=1`` to stop on, and report, the exact
        slot the condition first held.

        ``block`` is the execution granularity: slots are advanced in
        chunks of up to ``block`` via :meth:`step_block`.  Results are
        identical at any block size; on simulators with a bulk mode a
        larger block lets runs of empty slots advance without per-slot
        Python work.  With ``block > 1``, ``stop_when`` must be a
        function of *simulation state* (node state, trace counters such
        as ``trace.decided``) only: state is frozen across an empty run,
        so the predicate is evaluated once per run and localized to the
        exact check slot, rather than being re-called at every boundary
        the run spans.
        """
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        stopped = False
        while self.slot < max_slots:
            chunk = min(block, max_slots - self.slot)
            if self.step_block(chunk, stop_when, check_every):
                stopped = True
                break
        if not stopped and stop_when is not None and self.all_woken and stop_when(self):
            stopped = True
        return SimulationResult(slots=self.slot, stopped_early=stopped, trace=self.trace)
