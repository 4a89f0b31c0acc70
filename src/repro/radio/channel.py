"""The shared channel-resolution core and pluggable PHY models.

Every simulator in :mod:`repro.radio` ends a slot the same way: a set of
transmissions must be turned into per-listener outcomes (delivery,
collision, or injected loss), in a canonical order, with the always-on
channel metrics emitted.  One core does this for every simulator, with
two cleanly separated roles:

- a :class:`PhyModel` decides *who can hear whom*: it maps a
  :class:`FireRun` — the transmissions of one or more consecutive slots
  — to :class:`Candidates`, ``(slot, listener, overlap count, decodable
  transmission, eligible)`` rows in ascending ``(slot, listener)``
  order.  :class:`CollisionPhy` is the paper's
  single-channel graph-collision model (Sect. 2); :class:`MultiChannelPhy`
  is the multi-channel model of the earlier unstructured-radio papers
  the paper contrasts itself with ([13, 14]) — nodes sit on a channel
  per slot and only same-channel transmissions interfere;
- the :class:`ChannelCore` applies the *model-independent* delivery
  law to those rows: exactly-one-overlap listeners receive (unless the
  injected-loss coin drops the message), two-or-more collide silently,
  and every outcome is counted, in bulk, per node and per slot.  One
  implementation, :meth:`ChannelCore.deliver`, takes every run: any
  length, any trace level, aligned or unaligned.

Determinism contract (every PHY must uphold it; see DESIGN.md §5.9):

1. **Canonical order** — ``resolve`` returns candidates in ascending
   ``(slot, listener)``, so loss-draw assignment and trace event order
   are a function of each slot's transmission *set*, never of which
   execution path (or buffer geometry, or run length) produced it.
2. **Loss-stream isolation** — loss coins come from a child generator
   spawned off the protocol stream at construction
   (:meth:`numpy.random.Generator.spawn` consumes no parent draws), so a
   fixed seed yields the identical protocol trajectory at any
   ``loss_prob``.
3. **Side-stream isolation** — any extra randomness a PHY needs (e.g.
   channel hopping) must likewise come from its own spawned child,
   metered, never from the protocol stream.
4. **Empty-slot laziness** — ``resolve`` must consume no randomness for
   slots without transmissions (draw side streams lazily, per fire
   slot, like :class:`MultiChannelPhy` does).  The engine skips empty
   slots without calling ``resolve`` at all, so an eager PHY draw would
   silently decouple the block-stepped and per-slot trajectories.
5. **Run-length independence** — a run's rows and side-stream draws
   must equal the concatenation of its slots' one-slot runs, and
   :meth:`PhyModel.rewind` must return every side-stream variate drawn
   for slots past a cut.  The core cuts a run after the first slot
   whose deliveries change the state the run was drawn under.

Adding a new PHY model is three steps: subclass :class:`PhyModel`,
implement ``resolve`` (and ``rewind``, if it draws) honouring the
contract above, and add a pinned conformance scenario for it (see
:mod:`repro.conform.scenarios`) so the lockstep harness keeps both
routes honest on it.  ``docs/model.md`` walks through the interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.graphs.deployment import Deployment
from repro.radio.messages import Message, message_bits
from repro.radio.trace import TraceRecorder
from repro._util import RngMeter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.radio.node import ProtocolNode

__all__ = [
    "Candidates",
    "ChannelCore",
    "CollisionPhy",
    "FireRun",
    "MultiChannelPhy",
    "PhyModel",
    "SimulationResult",
    "SinrPhy",
    "SlotSteppedSimulator",
    "make_phy",
    "phy_names",
]


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


class FireRun:
    """The transmissions of the slots ``[t0, t1)``: what a PHY resolves.

    Transmission ``k`` is node ``sender[k]`` sending in slot ``slot[k]``.
    Slots ascend; within a slot, transmissions keep the order they were
    made in (ascending node id on the vectorized engine, roster order on
    the classic route).  A run covers consecutive slots whose
    transmissions were decided under one frozen state, so it may contain
    slots without transmissions.  The per-slot loop and the unaligned
    simulator make runs of one slot.

    ``msgs`` is the message table that :class:`Candidates` rows index
    into.  A *drawn* run (the vectorized engine) brings the node list
    instead: ``msgs[k]`` is transmission ``k``'s message, built by
    ``emit`` the first time something needs it.  Building messages late
    is sound because ``emit`` is pure and a transmitter receives nothing
    in its own slot.

    The first ``logged`` transmissions were logged by
    :meth:`ChannelCore.record_tx` while they were collected (all of a
    *recorded* run, none of a drawn one, the first slot's of a classic
    span); :meth:`ChannelCore.deliver` records the rest, slot by slot,
    for the slots it processes, so a transmission past a cut is never
    logged.

    ``draws`` holds, per slot of the run, the number of protocol-stream
    variates the slot consumed (``n`` per slot on the vectorized
    engine).  ``slot`` and ``sender`` are int64 numpy arrays.
    """

    __slots__ = ("t0", "t1", "slot", "sender", "draws", "msgs", "nodes", "logged")

    def __init__(
        self,
        t0: int,
        t1: int,
        slot: np.ndarray,
        sender: np.ndarray,
        draws: Sequence[int],
        msgs: "list[Message | None] | None" = None,
        nodes: "Sequence[Any] | None" = None,
        logged: int = 0,
    ) -> None:
        self.t0 = t0
        self.t1 = t1
        self.slot = slot
        self.sender = sender
        self.draws = draws
        self.nodes = nodes
        self.logged = logged
        self.msgs: list[Message | None] = (
            [None] * len(sender) if msgs is None else msgs
        )

    @classmethod
    def recorded(
        cls, t: int, outbox: list[tuple[int, Message]], draws: int
    ) -> "FireRun":
        """Slot ``t``'s outbox, already logged by :meth:`ChannelCore.record_tx`."""
        return cls(
            t,
            t + 1,
            np.full(len(outbox), t, dtype=np.int64),
            np.array([v for v, _ in outbox], dtype=np.int64),
            [draws],
            msgs=[msg for _, msg in outbox],
            logged=len(outbox),
        )

    def __len__(self) -> int:
        """Number of transmissions in the run."""
        return len(self.sender)

    def message(self, k: int) -> Message:
        """Entry ``k`` of the message table, emitted on first use on a
        drawn run."""
        msg = self.msgs[k]
        if msg is None:
            assert self.nodes is not None, "recorded runs carry every message"
            v, slot = int(self.sender[k]), int(self.slot[k])
            msg = self.nodes[v].emit(slot)
            if msg is None:
                raise RuntimeError(f"slot {slot}: node {v} fired but emitted nothing")
            self.msgs[k] = msg
        return msg


class Candidates:
    """A PHY's verdict on a :class:`FireRun`: one row per ``(slot,
    listener)`` pair its transmissions touch, ascending in ``(slot,
    listener)`` — the canonical order.

    ``count`` is the number of transmissions the listener's slot
    overlaps under the PHY; ``tx`` indexes ``run.msgs`` with the unique
    decodable transmission (``count`` is then 1), ``-1`` when there is
    none (a collision); ``eligible`` is whether the listener could
    receive at all (awake and not transmitting itself).  ``len()`` is
    the row count.  The columns are numpy arrays (int64, ``eligible``
    bool), for a run of any length.
    """

    __slots__ = ("run", "slot", "listener", "count", "tx", "eligible")

    def __init__(
        self,
        run: FireRun,
        slot: np.ndarray,
        listener: np.ndarray,
        count: np.ndarray,
        tx: np.ndarray,
        eligible: np.ndarray,
    ) -> None:
        self.run = run
        self.slot = slot
        self.listener = listener
        self.count = count
        self.tx = tx
        self.eligible = eligible

    def __len__(self) -> int:
        """Number of candidate rows."""
        return len(self.listener)


_NONE = np.empty(0, dtype=np.int64)

#: What :meth:`ChannelCore.deliver` makes of each candidate row: a
#: reception the receiver is called for, a collision, a reception the
#: delivery keys filter out, one lost to its loss coin, or nothing (the
#: listener was asleep or transmitting).  The values matter: an eligible
#: row is first coded ``tx < 0``, and at trace level 2 the loop visits
#: the rows coded up to ``_FILTERED``.  ``_SENT`` marks a transmission
#: the loop records.
_HEARD, _COLLIDED, _FILTERED, _LOST, _SILENT, _SENT = range(6)


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
        "keys",
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
        #: optional hook called as ``on_deliver(slot, u, msg, report)``
        #: after each delivery, ``report`` being what the node's
        #: ``deliver`` returned; a true result cuts the run after the
        #: current slot (the engine's cache re-reads, unaligned
        #: decode-once bookkeeping).
        self.on_deliver: Callable[[int, int, Message, bool | None], bool] | None = None
        #: optional ``(listen, send_a, send_b)`` per-node key arrays: a
        #: delivery reaches ``node.deliver`` only if the receiver's listen
        #: key equals one of the sender's two message keys.  ``None``
        #: (nodes without delivery keys, the unaligned simulator)
        #: delivers everything.
        self.keys: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def loss_draws(self) -> int:
        """Variates consumed from the loss stream so far."""
        return self._loss_rng.draws if self._loss_rng is not None else 0

    def _check_bits(self, t: int, v: int, msg: Message) -> None:
        """Raise if ``msg`` exceeds ``max_message_bits`` (Sect. 2)."""
        if self.max_message_bits is not None:
            bits = message_bits(msg, self.id_space)
            if bits > self.max_message_bits:
                raise RuntimeError(
                    f"slot {t}: node {v} sent a {bits}-bit message, "
                    f"exceeding the {self.max_message_bits}-bit bound"
                )

    def record_tx(
        self, t: int, v: int, msg: Message, outbox: list[tuple[int, Message]]
    ) -> None:
        """Phase-2 exit point: size-check, log, and enqueue a transmission."""
        self._check_bits(t, v, msg)
        outbox.append((v, msg))
        self.trace.tx(t, v, msg)

    def deliver(self, t: int, candidates: Candidates) -> int:
        """Apply the delivery law to a run's candidate rows; return the
        end of the processed span.

        ``t`` is the run's first slot.  Ineligible listeners (asleep or
        transmitting) observe nothing; an eligible listener with a
        decodable transmission receives unless its loss coin drops the
        message (silently, like a collision); every other eligible row
        is a collision.  The loss coins are drawn in one call, one per
        otherwise-successful reception in canonical row order, so loss
        outcomes are a function of the transmission set.

        Receivers are called in canonical order, and only where
        :attr:`keys` say the message can matter; each call is reported
        to :attr:`on_deliver`, and a true result there means the state
        the run was drawn under changed, so the run is cut after that
        slot: everything past the cut is dropped, its loss coins are
        rewound, and the returned end tells the caller where to resume.
        At trace level 2, or under ``max_message_bits``, the same loop
        first records each processed slot's transmissions not yet
        logged (see :class:`FireRun`: size check, ``tx`` event), and at
        level 2 it logs the slot's ``rx`` and ``collision`` rows after
        them: the per-slot event order.  The per-node counters and the
        :class:`~repro.radio.trace.ChannelMetrics` rows of the processed
        slots are written once, from the arrays.
        """
        run = candidates.run
        t0, t1 = run.t0, run.t1
        trace = self.trace
        slot, listener, tx = candidates.slot, candidates.listener, candidates.tx
        # An eligible row is _COLLIDED (1) where tx < 0, else _HEARD (0).
        outcome = np.where(candidates.eligible, tx < 0, _SILENT)
        ok = (outcome == _HEARD).nonzero()[0]
        kept = ok
        loss_rng = self._loss_rng
        mark: tuple[dict[str, Any], int, int] | None = None
        if loss_rng is not None and ok.size:
            mark = loss_rng.checkpoint()
            dropped = loss_rng.random(ok.size) < self.loss_prob
            outcome[ok[dropped]] = _LOST
            kept = ok[~dropped]
        heard = kept
        if self.keys is not None and kept.size:
            listen, send_a, send_b = self.keys
            lk = listen[listener[kept]]
            sender = run.sender[tx[kept]]
            match = (lk == send_a[sender]) | (lk == send_b[sender])
            heard = kept[match]
            outcome[kept[~match]] = _FILTERED
        log = trace.level >= 2
        visit = (outcome <= _FILTERED).nonzero()[0] if log else heard
        items = [slot[visit], outcome[visit], listener[visit], tx[visit], candidates.count[visit]]
        if run.logged < len(run) and (log or self.max_message_bits is not None):
            # Each slot's transmissions to record go before its rows (the
            # last column, a row's overlap count, is unused for them).
            j = np.arange(run.logged, len(run))
            sent = [run.slot[j], np.full(j.size, _SENT), run.sender[j], j, j]
            items = [np.concatenate(pair) for pair in zip(sent, items)]
            order = items[0].argsort(kind="stable")
            items = [column[order] for column in items]
        nodes = self.nodes
        on_deliver = self.on_deliver
        dirty = False
        cur = t0
        for s, what, u, k, count in zip(*[column.tolist() for column in items]):
            if s != cur:
                if dirty:
                    break
                cur = s
            if what == _HEARD:
                msg = run.message(k)
                report = nodes[u].deliver(s, msg)
                if on_deliver is not None and on_deliver(s, u, msg, report):
                    dirty = True
                if log:
                    trace.log(s, u, "rx", {"msg": msg})
            elif what == _FILTERED:
                trace.log(s, u, "rx", {"msg": run.message(k)})
            elif what == _COLLIDED:
                trace.log(s, u, "collision", {"senders": count})
            else:  # _SENT
                msg = run.message(k)
                self._check_bits(s, u, msg)
                if log:
                    trace.log(s, u, "tx", {"msg": msg})
        end = cur + 1 if dirty else t1

        ntx = len(run)
        if end < t1:
            rows = slot.searchsorted(end)
            slot, listener, outcome = slot[:rows], listener[:rows], outcome[:rows]
            ntx = int(run.slot.searchsorted(end))
            kept = kept[: kept.searchsorted(rows)]
            if mark is not None and loss_rng is not None:
                loss_rng.rewind(mark)
                coins = int(ok.searchsorted(rows))
                if coins:
                    loss_rng.skip(coins)
        np.add.at(trace.rx_count, listener[kept], 1)
        np.add.at(trace.collision_count, listener[outcome == _COLLIDED], 1)
        if ntx > run.logged:
            np.add.at(trace.tx_count, run.sender[run.logged : ntx], 1)
        span = end - t0
        counts = np.bincount((slot - t0) * 5 + outcome, minlength=5 * span).reshape(span, 5).T
        columns = np.empty((6, span), dtype=np.int32)
        columns[0] = np.bincount(run.slot[:ntx] - t0, minlength=span)
        columns[1] = counts[_HEARD] + counts[_FILTERED]
        columns[2] = counts[_COLLIDED]
        columns[3] = counts[_LOST]
        columns[4] = run.draws[:span]
        columns[5] = columns[1] + columns[3] if loss_rng is not None else 0
        trace.channels(t0, *[array("i", column.tobytes()) for column in columns])
        return end


class PhyHost(Protocol):
    """What a simulator must expose for a :class:`PhyModel` to bind to
    it: the deployment, the node list, the per-node wake slots (a node
    is awake in slot ``t`` iff its wake slot is ``<= t``), and the
    metered protocol stream (side streams are spawned from it)."""

    deployment: Deployment
    nodes: "Sequence[ProtocolNode]"
    wake_slots: np.ndarray
    rng: RngMeter


class PhyModel(ABC):
    """Strategy interface: map a run's transmissions to candidate rows.

    A PHY is bound to exactly one simulator (:meth:`bind` is where it
    precomputes adjacency and spawns any side streams), then asked to
    :meth:`resolve` each :class:`FireRun` into :class:`Candidates` for
    :meth:`ChannelCore.deliver`.  When the core cuts a run short, the
    simulator calls :meth:`rewind` so side-stream draws made for slots
    past the cut are returned.  See the module docstring for the
    determinism contract every implementation must uphold.
    """

    #: short identifier used in scenario labels and CLI flags.
    name = "phy"

    # Bind-time state (set by :meth:`bind`).
    sim: PhyHost
    _nodes: "Sequence[ProtocolNode]"
    _n: int
    _neighbors: list[np.ndarray]
    _degree: np.ndarray
    _wake_slots: np.ndarray

    def bind(self, sim: PhyHost) -> None:
        """Attach to ``sim`` (must expose ``deployment``, ``nodes``,
        ``wake_slots`` and a metered ``rng``).  Called once, at simulator
        construction."""
        self.sim = sim
        dep = sim.deployment
        self._nodes = sim.nodes
        self._n = dep.n
        self._neighbors = dep.neighbors
        self._degree = np.diff(dep.csr[0])
        self._wake_slots = sim.wake_slots

    @abstractmethod
    def resolve(self, slot: int, run: FireRun) -> Candidates:
        """Return the candidate rows of ``run`` (whose first slot is
        ``slot``), ascending in ``(slot, listener)``."""

    def rewind(self, end: int) -> None:
        """The core processed the last resolved run only up to slot
        ``end``: return any side-stream variates drawn for later slots.
        PHYs without a side stream have nothing to return."""

    def _touches(self, run: FireRun) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(transmission, graph neighbor)`` pair of ``run``,
        transmission-major."""
        if not run:
            return _NONE, _NONE
        neighbors = self._neighbors
        sender = run.sender
        listener = np.concatenate([neighbors[v] for v in sender.tolist()])
        k_of = np.arange(len(run)).repeat(self._degree[sender])
        return k_of, listener

    def _rows(
        self, run: FireRun, k_of: np.ndarray, listener: np.ndarray
    ) -> Candidates:
        """Group touch pairs (transmission ``k_of[i]`` reaches
        ``listener[i]``) into candidate rows.  Sorting on the ``(slot,
        listener)`` key costs O(P log P) in the P touched pairs, whatever
        the run's length or ``n``."""
        pairs = k_of.size
        if pairs == 0:
            return Candidates(run, _NONE, _NONE, _NONE, _NONE, np.zeros(0, dtype=bool))
        base = (run.slot - run.t0) * self._n  # key of (slot, node 0), per transmission
        key = base[k_of] + listener
        order = key.argsort()
        key = key[order]
        new = np.empty(pairs + 1, dtype=bool)
        new[0] = new[pairs] = True
        np.not_equal(key[1:], key[:-1], out=new[1:pairs])
        edge = new.nonzero()[0]  # row starts, then the end
        head = edge[:-1]
        count = edge[1:] - head
        first = order[head]  # each row's first touch pair
        lis = listener[first]
        tx = k_of[first]
        slot = run.slot[tx]
        tx[count != 1] = -1
        # A listener transmitting in the same slot hears nothing.
        own = base + run.sender
        own.sort()
        row_key = key[head]
        on_air = own.take(own.searchsorted(row_key), mode="clip") == row_key
        eligible = (self._wake_slots[lis] <= slot) & ~on_air
        return Candidates(run, slot, lis, count, tx, eligible)


class CollisionPhy(PhyModel):
    """The paper's single-channel PHY: a listener is touched by every
    transmitting graph neighbor; exactly one touch decodes, two or more
    collide (Sect. 2's no-collision-detection rule).  Transmitter-centric:
    only the neighborhoods of actual transmitters are expanded, from the
    neighbor arrays read at :meth:`bind`."""

    name = "collision"

    def resolve(self, slot: int, run: FireRun) -> Candidates:
        """Every transmission touches all graph neighbors of its sender."""
        return self._rows(run, *self._touches(run))


class MultiChannelPhy(PhyModel):
    """Multi-channel PHY (the [13, 14] model the paper contrasts with).

    Every node sits on one of ``channels`` channels per slot; a
    transmission is heard only by graph neighbors on the *same* channel,
    so collisions thin out while the sender–listener match probability
    drops as ``1/channels``.  Every node hops uniformly at random each
    slot, drawn from the PHY's *own* metered side stream — a child
    spawned off the protocol generator at :meth:`bind`, so multi-channel
    runs keep the protocol trajectory contract (side-stream isolation).

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
        # The last run's fire slots and the hop stream before their draw,
        # for rewind().
        self._hop_slots = _NONE
        self._hop_mark: tuple[dict[str, Any], int, int] | None = None

    @property
    def channel_draws(self) -> int:
        """Variates consumed from the hop stream so far."""
        return self._hop_rng.draws

    def _channels(self, fire_slots: np.ndarray) -> np.ndarray:
        """Per fire slot (row) and node (column), the hopped channel.  One
        ``(m, n)`` draw consumes the stream exactly like ``m`` per-slot
        draws of ``n``; drawing only for slots with transmissions is
        deterministic because the transmission set is."""
        self._hop_mark = self._hop_rng.checkpoint()
        self._hop_slots = fire_slots
        chan: np.ndarray = self._hop_rng.integers(
            0, self.channels, size=(fire_slots.size, self._n)
        )
        return chan

    def resolve(self, slot: int, run: FireRun) -> Candidates:
        """Like :meth:`CollisionPhy.resolve`, but only same-channel
        neighbors are touched; hop vectors are drawn for the run's fire
        slots only, so idle slots consume nothing from the side stream."""
        if not run:
            return self._rows(run, _NONE, _NONE)
        fire_slots = np.unique(run.slot)
        row = fire_slots.searchsorted(run.slot)
        chan = self._channels(fire_slots)
        k_of, listener = self._touches(run)
        r = row[k_of]
        same = chan[r, run.sender[k_of]] == chan[r, listener]
        return self._rows(run, k_of[same], listener[same])

    def rewind(self, end: int) -> None:
        """Redraw the hop stream up to the cut: rewind to before the run's
        draw, then draw the rows of the fire slots before ``end`` again."""
        keep = int(np.searchsorted(self._hop_slots, end))
        if keep < self._hop_slots.size and self._hop_mark is not None:
            self._hop_rng.rewind(self._hop_mark)
            if keep:
                self._hop_rng.integers(0, self.channels, size=(keep, self._n))


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
      ``count == 1`` with the decoded transmission.  Zero decodable
      signals report the touch count with no transmission (a
      collision/fade, silent at the protocol level, like Sect. 2's
      rule); with ``threshold >= 1`` at most one signal can ever clear
      the bar (two would each need more than half the total received
      power), so raising the threshold only ever removes receptions —
      the monotonicity property the Hypothesis suite pins.

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

    def resolve(self, slot: int, run: FireRun) -> Candidates:
        """Per-slot SINR judgement of each fire slot of ``run``."""
        rows: list[tuple[int, int, int, int, bool]] = []
        slots = run.slot.tolist()
        senders = run.sender.tolist()
        a = 0
        while a < len(slots):
            b = a + 1
            while b < len(slots) and slots[b] == slots[a]:
                b += 1
            self._judge(slots[a], senders, a, b, rows)
            a = b
        if not rows:
            return self._rows(run, _NONE, _NONE)
        s, u, count, tx, eligible = zip(*rows)
        return Candidates(
            run,
            np.array(s, dtype=np.int64),
            np.array(u, dtype=np.int64),
            np.array(count, dtype=np.int64),
            np.array(tx, dtype=np.int64),
            np.array(eligible, dtype=bool),
        )

    def _judge(
        self,
        slot: int,
        senders: list[int],
        a: int,
        b: int,
        rows: list[tuple[int, int, int, int, bool]],
    ) -> None:
        """Append slot ``slot``'s rows, whose transmissions are ``a..b-1``.

        Transmissions are scattered onto graph neighbors, recording per
        listener *which* transmissions touch it; then each touched
        listener (ascending) gets one row: exactly one neighbor signal
        above threshold decodes, otherwise the row is a collision/fade
        carrying the decodable (or touch) count."""
        neighbors = self._neighbors
        touching: dict[int, list[int]] = {}
        for k in range(a, b):
            for u in neighbors[senders[k]].tolist():
                touching.setdefault(u, []).append(k)
        pos = self._pos
        alpha, noise, threshold, power = (
            self.alpha, self.noise, self.threshold, self.power,
        )
        on_air = set(senders[a:b])
        tx_pos = pos[senders[a:b]]  # (m, d): all transmitters of the slot
        for u in sorted(touching):
            delta = tx_pos - pos[u]
            # Euclidean in any position dimensionality (UBG deployments
            # may embed in more than 2 dims), clamped below min_dist.
            dist = np.maximum(
                np.sqrt(np.einsum("ij,ij->i", delta, delta)), self.min_dist
            )
            gains = power * dist ** -alpha
            total = float(gains.sum())
            decodable = -1
            decodable_count = 0
            for k in touching[u]:
                g = float(gains[k - a])
                # Interference is everything else on the air, clamped at
                # zero against float cancellation in ``total - g``.
                interference = max(total - g, 0.0)
                if g >= threshold * (noise + interference):
                    decodable_count += 1
                    decodable = k
            eligible = bool(self._wake_slots[u] <= slot) and u not in on_air
            if decodable_count == 1:
                rows.append((slot, u, 1, decodable, eligible))
            elif decodable_count == 0:
                # All touching signals drowned: silent at the protocol
                # level, recorded as a collision with the touch count.
                rows.append((slot, u, len(touching[u]), -1, eligible))
            else:
                rows.append((slot, u, decodable_count, -1, eligible))


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

    def _set_population(
        self,
        deployment: Deployment,
        nodes: "Sequence[ProtocolNode]",
        wake_slots: "Sequence[int] | np.ndarray",
    ) -> None:
        """Check and keep the inputs every simulator takes: one node per
        deployment node, each at the index of its ``vid``, and one
        non-negative whole wake slot per node (kept as int64)."""
        n = deployment.n
        if len(nodes) != n:
            raise ValueError(f"{len(nodes)} nodes for {n}-node deployment")
        for vid, node in enumerate(nodes):
            if node.vid != vid:
                raise ValueError(f"node at index {vid} has vid {node.vid}")
        given = np.asarray(wake_slots)
        if given.shape != (n,):
            raise ValueError(f"wake_slots must have shape ({n},)")
        wake = given.astype(np.int64)
        if (wake != given).any():
            raise ValueError("wake_slots must be whole slot numbers")
        if n and wake.min() < 0:
            raise ValueError("wake_slots must be non-negative")
        self.deployment = deployment
        self.nodes = list(nodes)
        self.wake_slots = wake

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
        execution mode (the engine's block-stepped routes) override it
        to advance many slots per Python iteration while preserving
        exactly those semantics.
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
        larger block lets spans of slots advance without per-slot
        Python work.  With ``block > 1``, ``stop_when`` must be a
        function of *simulation state* (node state, trace counters such
        as ``trace.decided``) that changes only at a node's scheduled
        event or at a delivery that reports a change: that state is
        frozen across a span until such a delivery, so the predicate is
        evaluated once per span and localized to the exact check slot,
        rather than being re-called at every boundary the span covers.
        """
        if max_slots < 0:
            raise ValueError(f"max_slots must be >= 0, got {max_slots}")
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
