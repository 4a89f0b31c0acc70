"""Protocol strategies: pluggable node logic over one channel core.

PR 3 split *channel resolution* into a strategy
(:class:`~repro.radio.channel.PhyModel`), so the engine can run the
paper's collision model, a multi-channel world, or a geometry-aware SINR
model without changing a line of engine code.  This module does the same
for the *node-logic* layer: a :class:`ColoringProtocol` bundles the
three protocol-specific decisions that were hard-wired into
:func:`~repro.core.protocol.run_coloring` —

- the **per-node behavior factory**: which node class implements the
  protocol on the classic per-node path (the node flips its own
  transmit coin in ``step``) and which on the vectorized fast path
  (the engine flips it; the class adds ``tx_prob`` and the delivery
  keys to the same state machine);
- the **completion predicate**: when a run is finished — all nodes
  color-decided for the paper's algorithm, all nodes covered by a
  leader for plain MIS;
- the **result finalization**: how terminal node state maps onto the
  ``(colors, tcs, completed)`` triple of a
  :class:`~repro.core.protocol.ColoringResult`.

Protocols are registered by name in :data:`PROTOCOLS` and selected via
``run_coloring(..., protocol="mis")`` / ``repro color --protocol mis``,
mirroring the PHY registry (:func:`repro.radio.channel.make_phy`).  Two
ship today:

- ``mw05`` — the paper's full coloring algorithm (Algorithms 1-3),
  byte-identical to the pre-strategy hard-wired path;
- ``mis`` — the companion-paper leader election ([21]; the ``A_0``/
  ``C_0`` competition) promoted from the :func:`repro.core.mis.run_mis`
  wrapper to a full engine-runnable protocol: same node machinery, but
  the run stops as soon as every node is *covered* (entered ``C_0`` or
  learned its leader), and finalization keeps only the elected set.

Determinism contract (DESIGN.md §5.12): a protocol owns *policy*, never
*randomness* — node behaviors draw from the engine's metered protocol
stream exactly as before, the completion predicate and finalization
must be pure functions of node/trace state, and the default ``mw05``
protocol must reproduce the pre-strategy orchestration byte for byte
(the full pinned conformance wall and every golden enforce this).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.core.node import UNDECIDED, ColoringNode
from repro.core.vector_node import BernoulliColoringNode
from repro.radio.trace import TraceRecorder

__all__ = [
    "ColoringProtocol",
    "MisProtocol",
    "Mw05Protocol",
    "PROTOCOLS",
    "make_protocol",
    "protocol_names",
    "resolve_protocol",
]


class ColoringProtocol(ABC):
    """Strategy interface: the protocol-specific third of a run.

    One instance is stateless and reusable across runs; everything it is
    asked about is a pure function of its arguments (node list, trace),
    so a protocol can never leak state between runs or lockstep sides.
    """

    #: short identifier used in registries, scenario labels, CLI flags.
    name = "protocol"

    #: one-line description for ``repro color --list-protocols``.
    description = ""

    #: how often (in slots) the engine evaluates :meth:`completed` during
    #: a run.  ``1`` stops at — and reports — the exact completion slot,
    #: which every pinned scenario relies on.
    check_every = 1

    @abstractmethod
    def node_cls(self, *, vectorized: bool = False) -> type[ColoringNode]:
        """Per-node behavior class for one engine path.

        ``vectorized=True`` selects the class whose transmit coin the
        engine draws (it has ``tx_prob``, which routes the population
        onto the fast path); ``False`` the class that draws its own
        coin in ``step``.  Both run the same state machine.
        """

    @abstractmethod
    def completed(self, trace: TraceRecorder, nodes: Sequence[ColoringNode]) -> bool:
        """Whether the run is finished, as a pure function of state."""

    @abstractmethod
    def finalize(
        self, nodes: Sequence[ColoringNode]
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Map terminal node state to ``(colors, tcs, completed)``."""


class Mw05Protocol(ColoringProtocol):
    """The paper's coloring algorithm (Algorithms 1-3), as a strategy.

    This is a pure extraction: the node classes, the O(1)
    ``trace.decided`` completion counter, and the color/tc readout are
    exactly what :func:`~repro.core.protocol.run_coloring` hard-wired
    before the strategy layer existed, so the default protocol is
    byte-identical to every pinned matrix and golden.
    """

    name = "mw05"
    description = "the paper's full coloring protocol (Algorithms 1-3)"

    def node_cls(self, *, vectorized: bool = False) -> type[ColoringNode]:
        """The MW05 node; its engine-drawn-coin subclass when vectorized."""
        return BernoulliColoringNode if vectorized else ColoringNode

    def completed(self, trace: TraceRecorder, nodes: Sequence[ColoringNode]) -> bool:
        """Every node has irrevocably decided its color (O(1) counter)."""
        return trace.decided >= len(nodes)

    def finalize(
        self, nodes: Sequence[ColoringNode]
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Read out per-node colors and intra-cluster colors."""
        colors = np.array([node.color for node in nodes], dtype=np.int64)
        tcs = np.array(
            [UNDECIDED if node.tc is None else node.tc for node in nodes],
            dtype=np.int64,
        )
        return colors, tcs, bool((colors != UNDECIDED).all())


def _covered(node: ColoringNode) -> bool:
    """MIS coverage: the node entered ``C_0`` or learned its leader."""
    return node.color == 0 or node.leader is not None


class MisProtocol(ColoringProtocol):
    """Leader election (MIS) as a full engine-runnable protocol.

    Runs the same node machinery as ``mw05`` — the ``A_0``/``C_0``
    competition *is* the protocol's first stage — but declares the run
    finished as soon as every node is covered, long before intra-cluster
    colors or verification complete.  Finalization keeps the elected
    set: leaders get color ``0``, everyone else stays ``UNDECIDED``, so
    :attr:`~repro.core.protocol.ColoringResult.proper` is exactly
    *independence* of the elected set and
    :attr:`~repro.core.protocol.ColoringResult.leaders` is the MIS.

    The standalone primitive :func:`repro.core.mis.run_mis` runs this
    protocol through :func:`~repro.core.protocol.run_coloring` and reads
    the result out as a :class:`~repro.core.mis.MisResult` (which also
    reports per-node cover slots); through the shared orchestration MIS
    runs on every engine path — per-slot and blocked — and over every
    PHY.
    """

    name = "mis"
    description = "leader election only (the A_0/C_0 stage; MIS of [21])"

    def node_cls(self, *, vectorized: bool = False) -> type[ColoringNode]:
        """Same node machinery as ``mw05`` (MIS is its first stage)."""
        return BernoulliColoringNode if vectorized else ColoringNode

    def completed(self, trace: TraceRecorder, nodes: Sequence[ColoringNode]) -> bool:
        """Every node covered: in ``C_0`` or associated with a leader."""
        return all(_covered(node) for node in nodes)

    def finalize(
        self, nodes: Sequence[ColoringNode]
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Keep the elected set: leaders color 0, the rest UNDECIDED."""
        colors = np.array(
            [0 if node.color == 0 else UNDECIDED for node in nodes],
            dtype=np.int64,
        )
        tcs = np.full(len(nodes), UNDECIDED, dtype=np.int64)
        return colors, tcs, all(_covered(node) for node in nodes)


#: name -> protocol class registry (mirrors the PHY registry in
#: :mod:`repro.radio.channel`).
PROTOCOLS: dict[str, type[ColoringProtocol]] = {  # repro: noqa RPR004 -- name->class registry populated at import time and read-only thereafter; factories build a fresh stateless instance per call
    Mw05Protocol.name: Mw05Protocol,
    MisProtocol.name: MisProtocol,
}


def protocol_names() -> tuple[str, ...]:
    """The registered protocol names, in registration order."""
    return tuple(PROTOCOLS)


def make_protocol(name: str) -> ColoringProtocol:
    """Protocol factory by CLI/scenario name.

    Raises a :class:`ValueError` naming the known choices on a bad name
    (never a bare ``KeyError``).
    """
    try:
        cls = PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; pick from {protocol_names()}"
        ) from None
    return cls()


def resolve_protocol(
    protocol: ColoringProtocol | str | None,
) -> ColoringProtocol:
    """Normalize a protocol argument: instance, registry name, or
    ``None`` (the default ``mw05``)."""
    if protocol is None:
        return Mw05Protocol()
    if isinstance(protocol, ColoringProtocol):
        return protocol
    return make_protocol(protocol)
