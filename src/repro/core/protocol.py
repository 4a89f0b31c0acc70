"""Orchestration: build nodes, run the radio simulation, collect results.

:func:`run_coloring` is the main entry point of the library::

    from repro import run_coloring
    from repro.graphs import random_udg

    dep = random_udg(100, expected_degree=12, seed=1)
    result = run_coloring(dep, seed=2)
    assert result.completed and result.proper

It measures the deployment's ``kappa`` values (unless explicit
:class:`~repro.core.params.Parameters` are given), runs until every node
has irrevocably decided (leaders keep transmitting forever — the paper's
"until protocol stopped" — so completion of the *coloring* is the stop
condition), and returns a :class:`ColoringResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.node import UNDECIDED, ColoringNode
from repro.core.params import Parameters, suggested_max_slots
from repro.core.strategy import ColoringProtocol, resolve_protocol
from repro.graphs.deployment import Deployment
from repro.radio.channel import PhyModel
from repro.radio.engine import RadioSimulator
from repro.radio.trace import TraceRecorder
from repro._util import spawn_generator

__all__ = ["ColoringResult", "run_coloring", "build_simulator"]

#: ``run_coloring``'s default ``block`` (slots per ``step_block`` chunk).
#: A chunk boundary also ends a span, so it sits far above the engine's
#: 128-slot span cap.
DEFAULT_BLOCK = 4096


@dataclass
class ColoringResult:
    """Outcome of one protocol execution."""

    deployment: Deployment
    params: Parameters
    colors: np.ndarray  #: per-node color, UNDECIDED (-1) if never decided
    tcs: np.ndarray  #: per-node intra-cluster color (-1 for leaders/undecided)
    slots: int  #: total slots simulated
    completed: bool  #: every node decided before the slot cap
    trace: TraceRecorder
    nodes: list[ColoringNode] = field(repr=False, default_factory=list)
    #: name of the protocol strategy that produced this result.
    protocol: str = "mw05"

    @property
    def proper(self) -> bool:
        """No two adjacent decided nodes share a color (correctness,
        restricted to decided nodes)."""
        from repro.analysis.verify import check_proper_coloring

        return not check_proper_coloring(self.deployment, self.colors)

    @property
    def num_colors(self) -> int:
        """Number of distinct colors assigned."""
        used = self.colors[self.colors != UNDECIDED]
        return int(np.unique(used).size)

    @property
    def max_color(self) -> int:
        """Highest color assigned (-1 if nothing decided)."""
        used = self.colors[self.colors != UNDECIDED]
        return int(used.max()) if used.size else -1

    @property
    def leaders(self) -> np.ndarray:
        """Boolean mask of nodes that became leaders (color 0)."""
        return self.colors == 0

    def decision_times(self) -> np.ndarray:
        """Per-node ``T_v`` (slots from own wake-up to decision; the
        paper's time-complexity measure)."""
        return self.trace.decision_times()

    def summary(self) -> dict[str, object]:
        """Headline numbers of the run (counts, times, verdicts)."""
        times = self.decision_times()
        decided = times[times >= 0]
        return {
            "n": self.deployment.n,
            "completed": self.completed,
            "proper": self.proper,
            "colors": self.num_colors,
            "max_color": self.max_color,
            "leaders": int(self.leaders.sum()),
            "slots": self.slots,
            "T_max": int(decided.max()) if decided.size else -1,
            "T_mean": float(decided.mean()) if decided.size else float("nan"),
        }


def build_simulator(
    dep: Deployment,
    params: Parameters,
    wake_slots: np.ndarray | None = None,
    *,
    seed: int | None = 0,
    trace_level: int = 1,
    enforce_message_bits: bool = False,
    loss_prob: float = 0.0,
    node_cls: type[ColoringNode] | None = None,
    per_node_params: list[Parameters] | None = None,
    unaligned: bool = False,
    offsets: np.ndarray | None = None,
    channels: int = 1,
    protocol: ColoringProtocol | str | None = None,
    phy: PhyModel | str | None = None,
) -> tuple[RadioSimulator, list[ColoringNode]]:
    """Construct (but do not run) a simulator wired with protocol nodes.

    Exposed separately so tests and experiments can step manually or
    inject observers between slots.

    ``protocol`` selects the node-logic strategy (a
    :class:`~repro.core.strategy.ColoringProtocol`, a registry name, or
    ``None`` for the paper's ``mw05``); it supplies the default
    ``node_cls`` when none is given.  ``phy`` selects the channel model
    by instance or registry name (``None`` keeps the historical
    selection: multichannel when ``channels > 1``, else collision).
    """
    proto = resolve_protocol(protocol)
    if node_cls is None:
        node_cls = proto.node_cls()
    trace = TraceRecorder(dep.n, level=trace_level)
    if per_node_params is not None and len(per_node_params) != dep.n:
        raise ValueError("per_node_params must have one entry per node")
    nodes = [
        node_cls(v, params if per_node_params is None else per_node_params[v], trace)
        for v in range(dep.n)
    ]
    if wake_slots is None:
        wake_slots = np.zeros(dep.n, dtype=np.int64)
    max_bits = None
    if enforce_message_bits:
        # Generous multiple of log2(n): IDs are 3 log2 n bits, plus a
        # couple of bounded numeric fields (Sect. 2's O(log n) messages).
        max_bits = int(16 * np.log2(max(dep.n, 4)) + 64)
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if channels > 1 and isinstance(phy, str) and phy != "multichannel":
        raise ValueError(
            f"channels={channels} requires the 'multichannel' phy, got {phy!r}"
        )
    if unaligned:
        from repro.radio.unaligned import UnalignedRadioSimulator

        if channels > 1:
            raise ValueError(
                "multi-channel resolution is not implemented on the "
                "unaligned engine (pick one of unaligned / channels)"
            )
        if phy is not None:
            raise ValueError(
                "the unaligned engine has its own slot-fraction resolution "
                "and does not accept a phy"
            )
        sim = UnalignedRadioSimulator(
            dep,
            nodes,
            wake_slots,
            rng=spawn_generator(seed, 0xC0108),
            trace=trace,
            max_message_bits=max_bits,
            loss_prob=loss_prob,
            offsets=offsets,
        )
    else:
        phy_model = None
        if phy is not None:
            from repro.radio.channel import make_phy

            phy_model = phy if not isinstance(phy, str) else make_phy(phy, channels)
        elif channels > 1:
            from repro.radio.channel import MultiChannelPhy

            phy_model = MultiChannelPhy(channels)
        sim = RadioSimulator(
            dep,
            nodes,
            wake_slots,
            rng=spawn_generator(seed, 0xC0108),
            trace=trace,
            max_message_bits=max_bits,
            loss_prob=loss_prob,
            phy=phy_model,
        )
    return sim, nodes


def run_coloring(
    dep: Deployment,
    params: Parameters | None = None,
    wake_slots: np.ndarray | None = None,
    *,
    seed: int | None = 0,
    max_slots: int | None = None,
    trace_level: int = 1,
    enforce_message_bits: bool = False,
    loss_prob: float = 0.0,
    node_cls: type[ColoringNode] | None = None,
    per_node_params: list[Parameters] | None = None,
    unaligned: bool = False,
    offsets: np.ndarray | None = None,
    channels: int = 1,
    block: int = DEFAULT_BLOCK,
    protocol: ColoringProtocol | str | None = None,
    phy: PhyModel | str | None = None,
) -> ColoringResult:
    """Run the full coloring protocol on ``dep`` and return the result.

    Parameters
    ----------
    params:
        Algorithm parameters; measured-``kappa`` practical defaults when
        omitted.
    wake_slots:
        Asynchronous wake-up pattern; synchronous when omitted.
    max_slots:
        Simulation cap; defaults to twice the Theorem 3 bound (the run
        normally stops far earlier, as soon as all nodes have decided).
    loss_prob:
        Receiver-side injected message-loss probability (failure
        injection; see :class:`~repro.radio.engine.RadioSimulator`).
    node_cls:
        Node implementation (default the optimized ColoringNode; the
        executable-spec :class:`~repro.core.reference.ReferenceColoringNode`
        and baseline variants are drop-in).
    per_node_params:
        Optional per-node parameter list (e.g. locally parameterized
        Delta, the Sect. 6 future-work direction explored in E12);
        overrides ``params`` per node when given.
    unaligned:
        Run on :class:`~repro.radio.unaligned.UnalignedRadioSimulator`
        (per-node phase offsets; the paper's "non-aligned case").
    offsets:
        Phase offsets for the unaligned engine (uniform random, from a
        spawned child generator, when omitted).
    channels:
        Run on a ``channels``-channel PHY
        (:class:`~repro.radio.channel.MultiChannelPhy`: nodes hop
        channels per slot; only same-channel transmissions interfere or
        deliver).  ``1`` (default) is the paper's single-channel model.
        Mutually exclusive with ``unaligned``.
    block:
        Execution granularity for
        :meth:`~repro.radio.channel.SlotSteppedSimulator.run`: the engine
        advances up to ``block`` slots per chunk, in spans of slots
        resolved and delivered together.  On the vectorized fast path
        (batched ``node_cls``, e.g.
        :class:`~repro.core.vector_node.BernoulliColoringNode`) a span's
        transmit Bernoullis come from one draw; on the classic route
        (``ColoringNode`` and its variants) the node steps due in a span
        are taken ahead of its deliveries, and those a state-changing
        delivery overtakes are taken back.  The result is identical at
        any block size, and the completion stop is still localized to
        the exact slot; ``block=1`` runs spans of one slot through the
        same loop (only populations with neither interface run the
        engine's per-slot loop).
    protocol:
        Node-logic strategy (a
        :class:`~repro.core.strategy.ColoringProtocol` instance, a
        registry name such as ``"mis"``, or ``None`` for the paper's
        ``mw05``).  Supplies the node class (when ``node_cls`` is not
        given), the completion predicate, and result finalization.
    phy:
        Channel model by instance or registry name (``"collision"``,
        ``"multichannel"``, ``"sinr"``); ``None`` keeps the historical
        selection from ``channels``.
    """
    if dep.n == 0:
        raise ValueError("cannot color an empty deployment")
    if params is None:
        params = Parameters.for_deployment(dep)
    proto = resolve_protocol(protocol)
    sim, nodes = build_simulator(
        dep,
        params,
        wake_slots,
        seed=seed,
        trace_level=trace_level,
        enforce_message_bits=enforce_message_bits,
        loss_prob=loss_prob,
        node_cls=node_cls,
        per_node_params=per_node_params,
        unaligned=unaligned,
        offsets=offsets,
        channels=channels,
        protocol=proto,
        phy=phy,
    )
    if max_slots is None:
        wake_max = int(sim.wake_slots.max()) if dep.n else 0
        # Multi-channel thins the sender-listener match rate by ~1/k, so
        # the slot budget scales with the channel count.
        max_slots = suggested_max_slots(params, wake_max) * max(1, channels)

    # The protocol's completion predicate is a pure function of trace /
    # node state (for mw05, the O(1) decided counter), checked every
    # ``proto.check_every`` slots — ``1`` by default, so the run stops at
    # and reports the *exact* completion slot instead of overshooting to
    # the next periodic check (which inflated time curves and tx/energy
    # counts by up to 15 slots).
    trace = sim.trace
    res = sim.run(
        max_slots,
        stop_when=lambda s: proto.completed(trace, nodes),
        check_every=proto.check_every,
        block=block,
    )

    colors, tcs, completed = proto.finalize(nodes)
    return ColoringResult(
        deployment=dep,
        params=params,
        colors=colors,
        tcs=tcs,
        slots=res.slots,
        completed=completed,
        trace=sim.trace,
        nodes=nodes,
        protocol=proto.name,
    )
