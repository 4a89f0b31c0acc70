"""Frame-based random-color-pick coloring (Busch et al. [2], one-hop
restriction, reconstructed in spirit).

Sect. 3: *"When appropriately restricting the techniques developed in
[2] to the one-hop coloring scenario, their randomized algorithm
achieves an O(Delta)-coloring in time O(Delta^3 log n)"* (plus an extra
log factor without collision detection).

We reconstruct the *shape* of that protocol from its published
interface (the full DISC'04 construction is not reproducible from the
paper under study alone — see DESIGN.md):

- every node repeatedly picks a uniformly random candidate color from a
  frame of ``frame_factor * Delta`` colors;
- it then *verifies* the candidate for a window of
  ``window_factor * Delta * log n`` slots, transmitting a claim with
  probability ``1/Delta`` (their slot-per-frame transmission pattern);
- hearing a *decided* neighbor with the same color, or an undecided
  same-color claimant with a larger ID, aborts the candidate: the node
  re-picks (excluding colors it knows to be taken) and verifies anew;
- surviving a full window means deciding; decided nodes keep announcing
  forever, like ``C_i`` nodes in the main algorithm.

Simplifications vs [2]: no distance-2 machinery (one-hop restriction,
as the comparison in Sect. 3 prescribes), no explicit collision-
detection workaround (claims are simply repeated, costing the same
extra log factor in the window), IDs break symmetric ties.  The E9
bench measures the empirical time scaling in ``Delta``, which grows
polynomially steeper than the main algorithm's — the qualitative claim
the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.verify import check_proper_coloring
from repro.graphs.deployment import Deployment
from repro.radio.engine import RadioSimulator
from repro.radio.messages import Message
from repro.radio.node import ProtocolNode
from repro.radio.trace import TraceRecorder
from repro._util import ceil_log, spawn_generator

__all__ = ["FrameColoringNode", "FrameColoringResult", "run_frame_coloring"]


@dataclass(frozen=True, slots=True)
class ClaimMessage(Message):
    """A candidate/final color claim."""

    color: int
    decided: bool


class FrameColoringNode(ProtocolNode):
    """One node of the frame-based protocol."""

    __slots__ = (
        "delta",
        "n_est",
        "frame",
        "window",
        "p_tx",
        "trace",
        "color",
        "decided",
        "taken",
        "_window_end",
        "_conflict",
        "_next_tx",
        "repicks",
    )

    def __init__(
        self,
        vid: int,
        *,
        delta: int,
        n_est: int,
        frame_factor: int = 4,
        window_factor: float = 3.0,
        trace: TraceRecorder | None = None,
    ) -> None:
        super().__init__(vid)
        self.delta = max(2, delta)
        self.n_est = max(2, n_est)
        self.frame = frame_factor * self.delta  # candidate colors 0..frame-1
        self.window = ceil_log(window_factor * self.delta, self.n_est)
        self.p_tx = 1.0 / self.delta
        self.trace = trace
        self.color = -1
        self.decided = False
        self.taken: set[int] = set()  # colors known to be finally claimed
        self._window_end = -1
        self._conflict = False
        self._next_tx = -1
        self.repicks = 0

    # ------------------------------------------------------------------
    def on_wake(self, slot: int) -> None:
        """Start with a listen-only window collecting taken colors."""
        # Initial listen-only window to collect already-taken colors
        # (the asynchronous-wake analogue of our algorithm's Alg.1 L4).
        self.color = -1
        self._window_end = slot + self.window

    def _pick(self, slot: int, rng: np.random.Generator) -> None:
        free = [c for c in range(self.frame) if c not in self.taken]
        if not free:  # frame exhausted (cannot happen with frame >= 2*Delta)
            free = list(range(self.frame))
        self.color = int(free[rng.integers(len(free))])
        self._conflict = False
        self._window_end = slot + self.window
        self._next_tx = slot + int(rng.geometric(self.p_tx))

    def step(self, slot: int, rng: np.random.Generator) -> Message | None:
        """Advance the verify-window state machine and maybe claim."""
        if not self.decided and slot >= self._window_end:
            if self.color >= 0 and not self._conflict:
                self.decided = True
                if self.trace is not None:
                    self.trace.decide(slot, self.vid, self.color)
                self._next_tx = slot - 1 + int(rng.geometric(self.p_tx))
            else:
                if self.color >= 0:
                    self.repicks += 1
                self._pick(slot, rng)
        if self.color >= 0 and slot >= self._next_tx:
            self._next_tx = slot + int(rng.geometric(self.p_tx))
            return ClaimMessage(sender=self.vid, color=self.color, decided=self.decided)
        return None

    def deliver(self, slot: int, msg: Message) -> None:
        """Record taken colors and detect same-color conflicts."""
        if not isinstance(msg, ClaimMessage):
            return
        if msg.decided:
            self.taken.add(msg.color)
        if self.decided or self.color < 0:
            return
        if msg.color == self.color:
            # Decided neighbors always win; among undecided claimants the
            # larger ID keeps the candidate (IDs exist in the model).
            if msg.decided or msg.sender > self.vid:
                self._conflict = True

    @property
    def done(self) -> bool:
        return self.decided


@dataclass
class FrameColoringResult:
    """Outcome of :func:`run_frame_coloring` (API mirrors ColoringResult)."""

    deployment: Deployment
    colors: np.ndarray
    slots: int
    completed: bool
    trace: TraceRecorder
    repicks: int

    @property
    def proper(self) -> bool:
        """No two adjacent decided nodes share a color."""
        return not check_proper_coloring(self.deployment, self.colors)

    @property
    def max_color(self) -> int:
        used = self.colors[self.colors >= 0]
        return int(used.max()) if used.size else -1

    def decision_times(self) -> np.ndarray:
        """Per-node slots from wake-up to decision (paper's T_v)."""
        return self.trace.decision_times()


def run_frame_coloring(
    dep: Deployment,
    *,
    seed: int | None = 0,
    wake_slots: np.ndarray | None = None,
    frame_factor: int = 4,
    window_factor: float = 3.0,
    max_slots: int | None = None,
) -> FrameColoringResult:
    """Run the frame-based baseline end-to-end."""
    if dep.n == 0:
        raise ValueError("cannot color an empty deployment")
    delta = max(2, dep.max_degree)
    n = max(2, dep.n)
    trace = TraceRecorder(dep.n, level=1)
    nodes = [
        FrameColoringNode(
            v,
            delta=delta,
            n_est=n,
            frame_factor=frame_factor,
            window_factor=window_factor,
            trace=trace,
        )
        for v in range(dep.n)
    ]
    if wake_slots is None:
        wake_slots = np.zeros(dep.n, dtype=np.int64)
    sim = RadioSimulator(
        dep, nodes, wake_slots, rng=spawn_generator(seed, 0xB5C4), trace=trace
    )
    if max_slots is None:
        # Expected O(Delta) verification attempts of window O(Delta log n)
        # each, generously capped.
        max_slots = int(np.max(wake_slots)) + 200 * nodes[0].window * delta
    decide_slot = trace.decide_slot
    sim_res = sim.run(max_slots, stop_when=lambda s: bool((decide_slot >= 0).all()))
    colors = np.array([nd.color if nd.decided else -1 for nd in nodes], dtype=np.int64)
    return FrameColoringResult(
        deployment=dep,
        colors=colors,
        slots=sim_res.slots,
        completed=bool((colors >= 0).all()),
        trace=trace,
        repicks=sum(nd.repicks for nd in nodes),
    )
