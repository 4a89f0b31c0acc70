"""Divergence localization: turn "the sides differ" into slot/node/field.

The lockstep harness compares a route's trace with its per-slot
reference's, slot by slot.  When a slot disagrees, :func:`localize_slot`
pins the *first* divergent (node, event-kind, field) triple — in the
canonical ascending node order the engine guarantees — and packages it
with the scenario into a :class:`Divergence`: a self-contained,
minimized reproducer (the scenario record replays the exact run, and
``max_slots`` is trimmed to the divergent slot, so the reproduction
stops right where the bug manifests instead of simulating thousands of
post-divergence slots).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.radio.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.conform.scenarios import Scenario

__all__ = ["ConformanceReport", "Divergence", "canonical_slot_events", "localize_slot"]


def _freeze(value: Any) -> Any:
    """Hashable, comparable stand-in for event payload values."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def canonical_slot_events(
    events: list[TraceEvent],
) -> dict[tuple[int, str], tuple]:
    """Events recorded during one engine step, keyed by ``(node, kind)``.

    Each value is the ordered tuple of that node's events of that kind:
    ``(stamped_slot, frozen_payload)`` pairs.  A node can legitimately
    record several events of one kind within a single engine step (e.g.
    waking into ``A_0`` and being knocked into ``R`` by a delivery are
    two ``state`` events), and some transitions stamp the *next* slot
    (re-entering verification), so the stamp is part of the canonical
    form rather than an index into it.
    """
    out: dict[tuple[int, str], list] = {}
    for e in events:
        out.setdefault((e.node, e.kind), []).append((e.slot, _freeze(e.data)))
    return {k: tuple(v) for k, v in out.items()}  # repro: noqa RPR002 -- rebuilds a dict that callers compare key-by-key over sorted(keys | keys); its iteration order never reaches an observable


@dataclass(frozen=True)
class Divergence:
    """First point where a route and its per-slot reference disagree.

    ``field`` names what diverged: an event kind (``"tx"``, ``"rx"``,
    ``"collision"``, ``"decide"``, ...) optionally suffixed with the
    payload key (``"tx.msg"``), a metric column (``"metrics.rx"``), or a
    terminal check (``"final.colors"``, ``"completed"``).
    ``reference`` / ``route`` carry each side's value (``None`` = the
    side had no such event).
    """

    slot: int
    node: int | None
    field: str
    reference: Any
    route: Any
    scenario: "Scenario | None" = None

    def reproducer(self) -> dict[str, Any]:
        """Minimized machine-readable reproducer: every field of the
        scenario record plus the slot budget needed to reach the
        divergence (``Scenario(**spec)`` without ``max_slots`` rebuilds
        the scenario exactly)."""
        out: dict[str, Any] = {"max_slots": self.slot + 1}
        if self.scenario is not None:
            out.update(asdict(self.scenario))
        return out

    def describe(self) -> str:
        """Human-readable slot/node-level report with the replay command."""
        where = f"slot {self.slot}"
        if self.node is not None:
            where += f", node {self.node}"
        lines = [
            f"DIVERGENCE at {where}: field {self.field!r}",
            f"  per-slot reference: {self.reference!r}",
            f"  route:              {self.route!r}",
        ]
        if self.scenario is not None:
            lines.append(f"  scenario: {self.scenario.label()}")
            lines.append(
                "  replay:   repro conform "
                f"{self.scenario.cli_args()} --max-slots {self.slot + 1}"
            )
        return "\n".join(lines)


def localize_slot(
    slot: int,
    reference_events: list[TraceEvent],
    route_events: list[TraceEvent],
    scenario: "Scenario | None" = None,
) -> Divergence | None:
    """First (node, kind, field) where one slot's canonical events differ.

    Returns ``None`` when the slots agree.  Ordering: the smallest
    divergent ``(node, kind)`` key — deterministic, so a given bug
    always localizes to the same report.
    """
    if reference_events == route_events:
        return None  # the common case: same events in the same order
    a = canonical_slot_events(reference_events)
    b = canonical_slot_events(route_events)
    if a == b:
        return None
    for key in sorted(set(a) | set(b)):
        node, kind = key
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        fld = kind
        if va is not None and vb is not None and len(va) == 1 == len(vb):
            # One event each, payloads differ: name the exact field.
            (sa, da), (sb, db) = va[0], vb[0]
            if sa == sb and isinstance(da, tuple) and isinstance(db, tuple):
                da, db = dict(da), dict(db)
                for pk in sorted(set(da) | set(db)):
                    if da.get(pk) != db.get(pk):
                        fld = f"{kind}.{pk}"
                        va, vb = da.get(pk), db.get(pk)
                        break
        return Divergence(
            slot=slot,
            node=node,
            field=fld,
            reference=va,
            route=vb,
            scenario=scenario,
        )
    raise AssertionError("canonical maps differ but no divergent key found")


@dataclass
class ConformanceReport:
    """Outcome of one lockstep conformance run."""

    scenario: "Scenario | None"
    ok: bool
    slots: int  #: lockstep slots executed
    completed: bool  #: both sides finished the protocol within the budget
    divergence: Divergence | None = None
    #: per-side channel totals (tx/rx/collisions/lost/..., from the
    #: always-on metrics) — the counters-first summary.
    reference_totals: dict[str, int] = field(default_factory=dict)
    route_totals: dict[str, int] = field(default_factory=dict)
    #: the node class the route ran (an aligned scenario runs once per
    #: population); empty for the unaligned comparison.
    population: str = ""

    def describe(self) -> str:
        """One-line OK summary, or the divergence's full report."""
        label = self.scenario.label() if self.scenario is not None else "(ad hoc)"
        if self.population:
            label += f" [{self.population}]"
        if self.ok:
            status = "conform" if self.completed else "conform (slot budget hit)"
            ct = self.reference_totals
            extra = (
                f" tx={ct.get('tx', 0)} rx={ct.get('rx', 0)}"
                f" coll={ct.get('collisions', 0)} lost={ct.get('lost', 0)}"
            )
            return f"OK   {label}: {status}, {self.slots} slots,{extra}"
        assert self.divergence is not None
        return f"FAIL {label}\n{self.divergence.describe()}"
