"""Per-layer tracing for the benchmark's traced pass.

The traced pass wraps public layer methods of the simulator at class
level (and the module attribute ``repro.core.protocol.build_simulator``)
from this package; nothing under ``src/`` is edited.  :func:`installed`
puts the wrappers in place before a run builds its simulator and always
restores the original attributes afterwards, so untraced runs in the
same process execute the unmodified code.

Accounting, per layer:

- ``busy``: time inside the layer's outermost calls.  A call that nests
  inside a call of the same layer (the classic path's ``run ->
  step_block -> step``) is passed straight through and counted once.
- ``self``: ``busy`` minus the time of wrapped calls of other layers
  nested inside it.  Self times partition the traced time, so their sum
  over all layers divided by the traced wall time is the coverage.
- ``calls``: number of outermost calls, always exact.

Calls made once per transmission, per fire slot or per classic slot are
timed on every :data:`SAMPLE`-th call: such a call's own time (minus the
estimates its wrapped children reported) is scaled by :data:`SAMPLE`,
and the caller subtracts the same estimate, so the self times still sum
to the traced time exactly.  Timing every such call costs more than the
work it measures on the smaller fire slots.

Spans (name, start, end, parent, run id) are stored at per-run
granularity (setup, build, engine, verify) and per timed fire slot (a
``phy.resolve`` or ``core.deliver`` call with a non-empty outbox or
candidate list).  Per-delivery calls (``ColoringNode.deliver``, the
engine's refresh hook, loss coins) are never wrapped: they run inside
``core.deliver``.
"""

from __future__ import annotations

import inspect
import json
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter
from typing import Any

import repro.core.protocol
from repro._util import RngMeter
from repro.core.strategy import Mw05Protocol
from repro.core.vector_node import BernoulliColoringNode
from repro.radio.channel import ChannelCore, CollisionPhy, MultiChannelPhy
from repro.radio.engine import RadioSimulator
from repro.radio.node import ProtocolNode
from repro.radio.trace import ChannelMetrics

__all__ = ["LAYERS", "SAMPLE", "Tracer", "installed", "targets"]

#: every layer the traced pass accounts for, in report order.
LAYERS = (
    "setup.graphs",
    "setup.params",
    "protocol.build",
    "engine",
    "rng",
    "node.emit",
    "node.event",
    "core.record_tx",
    "phy.resolve",
    "core.deliver",
    "trace",
    "stop",
    "verify",
)
_ID = {name: i for i, name in enumerate(LAYERS)}

#: timing period of leaf calls made per transmission or per fire slot.
SAMPLE = 32

#: layers stored as a span on every call (they run once per run).
_RUN_SPANS = {_ID["setup.graphs"], _ID["setup.params"], _ID["protocol.build"], _ID["engine"], _ID["verify"]}
#: layers stored as a span on timed calls whose third argument (the
#: slot's outbox or candidate rows) is non-empty.
_FIRE_SPANS = {_ID["phy.resolve"], _ID["core.deliver"]}


def targets() -> list[tuple[str, object, tuple[str, ...], int]]:
    """``(layer, owner, attribute names, timing period)`` wrapped by
    :func:`installed`.  Period 1 (every call timed) is for calls made once
    per run, rare calls, and calls that nest in their own layer.

    On the classic path (per-node ``step``, ``block=1``) the node layer's
    transmit phase is the per-slot step loop ``_collect_classic``; on the
    fast path it is ``emit``, once per transmission.  Wake-ups count as
    node events on both paths.  The trace layer is accounted at the
    ``ChannelMetrics`` rows that ``TraceRecorder.channel`` and
    ``channel_empty`` append.
    """
    return [
        ("protocol.build", repro.core.protocol, ("build_simulator",), 1),
        ("engine", RadioSimulator, ("run", "step_block", "step"), 1),
        ("node.emit", RadioSimulator, ("_collect_classic",), SAMPLE),
        ("rng", RngMeter, ("fill", "skip", "geometric"), SAMPLE),
        ("node.emit", BernoulliColoringNode, ("emit",), SAMPLE),
        ("node.event", BernoulliColoringNode, ("on_event",), 1),
        ("node.event", ProtocolNode, ("wake",), 1),
        ("core.record_tx", ChannelCore, ("record_tx",), SAMPLE),
        ("phy.resolve", CollisionPhy, ("resolve",), SAMPLE),
        ("phy.resolve", MultiChannelPhy, ("resolve",), SAMPLE),
        ("core.deliver", ChannelCore, ("deliver",), SAMPLE),
        ("trace", ChannelMetrics, ("append", "extend_empty"), SAMPLE),
        ("stop", Mw05Protocol, ("completed",), SAMPLE),
    ]


def _forwarder(fn: Callable[..., Any], guard: str, slow: Callable[..., Any], names: dict[str, Any]) -> Callable[..., Any]:
    """A wrapper with ``fn``'s own signature that calls ``fn`` directly
    when the ``guard`` statement's condition holds and ``slow`` otherwise.

    A wrapper declared ``*args, **kwargs`` builds a keyword dict on every
    call, several times the cost of the small calls it wraps, so the
    signature is copied (variadic signatures are forwarded as they are).
    """
    params, call = [], []
    namespace = dict(names, _t_fn=fn, _t_slow=slow)
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        if p.kind is not p.POSITIONAL_OR_KEYWORD:
            params, call = ["*args", "**kwargs"], ["*args", "**kwargs"]
            break
        call.append(p.name)
        if p.default is p.empty:
            params.append(p.name)
        else:
            namespace[f"_t_default{i}"] = p.default
            params.append(f"{p.name}=_t_default{i}")
    sig, args = ", ".join(params), ", ".join(call)
    exec(
        f"def {fn.__name__}({sig}):\n    {guard}\n        return _t_fn({args})\n    return _t_slow({args})\n",
        namespace,
    )
    return update_wrapper(namespace[fn.__name__], fn)


class Tracer:
    """Per-layer time and call accounting plus the span store of one
    traced pass.  Set :attr:`run` to the run index before each run."""

    def __init__(self) -> None:
        k = len(LAYERS)
        self.busy = [0.0] * k
        self.self_time = [0.0] * k
        self._calls = [0] * k
        # Call counters of the sampled wrappers, per layer.
        self._ticks: list[tuple[int, list[int]]] = []
        #: candidate rows returned by ``phy.resolve`` (scaled estimate).
        self.candidates = 0.0
        self.run = 0
        self._active = [False] * k
        # Time spent in wrapped calls nested inside the innermost open
        # call: each call saves it on entry and adds its duration to the
        # saved value on exit, so no per-call frame is allocated.
        self._acc = [0.0]
        # Indices of the per-run spans that are open, innermost last.
        self._open: list[int] = []
        # Per-run spans, flattened (run, layer id, start, end, parent);
        # fire-slot spans, flattened (layer id, start, end).
        self._spans = array("d")
        self._fire = array("d")

    def _begin(self, lid: int) -> tuple[float, float, int]:
        """Open an exactly timed call of layer ``lid``."""
        self._active[lid] = True
        outer = self._acc[0]
        self._acc[0] = 0.0
        t0 = perf_counter()
        idx = -1
        if lid in _RUN_SPANS:
            idx = len(self._spans) // 5
            self._spans.extend((self.run, lid, t0, t0, self._open[-1] if self._open else -1))
            self._open.append(idx)
        return outer, t0, idx

    def _end(self, lid: int, outer: float, t0: float, idx: int) -> None:
        """Close the call :meth:`_begin` opened."""
        t1 = perf_counter()
        if idx >= 0:
            self._open.pop()
            self._spans[5 * idx + 3] = t1
        dur = t1 - t0
        self._active[lid] = False
        self.busy[lid] += dur
        self.self_time[lid] += dur - self._acc[0]
        self._calls[lid] += 1
        self._acc[0] = outer + dur

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Stored span around a call the benchmark makes itself."""
        lid = _ID[layer]
        token = self._begin(lid)
        try:
            yield
        finally:
            self._end(lid, *token)

    def wrap(self, layer: str, fn: Callable[..., Any], every: int = 1) -> Callable[..., Any]:
        """Return ``fn`` wrapped with this tracer's accounting for
        ``layer``, timing every ``every``-th call (see :func:`targets`)."""
        lid = _ID[layer]
        if every == 1:

            def exact(*args: Any, **kwargs: Any) -> Any:
                token = self._begin(lid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._end(lid, *token)

            # A call nested in a call of the same layer counts once.
            return _forwarder(fn, "if _t_active[_t_lid]:", exact, {"_t_active": self._active, "_t_lid": lid})

        tick = [0]
        self._ticks.append((lid, tick))
        acc, busy, self_time = self._acc, self.busy, self.self_time
        fire = self._fire.extend if lid in _FIRE_SPANS else None
        count_rows = layer == "phy.resolve"

        def sampled(*args: Any, **kwargs: Any) -> Any:
            outer = acc[0]
            acc[0] = 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                # Wrapped calls inside report their own (already scaled)
                # estimates: scale only this call's own time.
                inner = acc[0]
                own = (t1 - t0 - inner) * every
                busy[lid] += own + inner * every
                self_time[lid] += own
                acc[0] = outer + own + inner
            if fire is not None and len(args) > 2 and args[2]:
                fire((lid, t0, t1))
            if count_rows:
                self.candidates += len(result) * every
            return result

        return _forwarder(fn, "_t_tick[0] += 1\n    if _t_tick[0] % _t_every:", sampled, {"_t_tick": tick, "_t_every": every})

    # -- reporting --------------------------------------------------------
    def layer(self, name: str) -> tuple[float, float, int]:
        """``(busy, self, calls)`` of one layer, summed over all runs."""
        lid = _ID[name]
        calls = self._calls[lid] + sum(t[0] for i, t in self._ticks if i == lid)
        return self.busy[lid], self.self_time[lid], calls

    def covered(self) -> float:
        """Sum of all layers' self times (the traced time accounted for)."""
        return sum(self.self_time)

    def dump_spans(self, path: str, origin: float) -> None:
        """Write every stored span as one JSON object per line, times in
        seconds since ``origin``; ``parent`` is a line index or -1.
        Per-run spans come first; each fire-slot span's parent is the
        engine span of its run."""
        runs = [self._spans[i : i + 5] for i in range(0, len(self._spans), 5)]
        engines = sorted((s[2], i) for i, s in enumerate(runs) if int(s[1]) == _ID["engine"])
        starts = [start for start, _ in engines]

        def line(run: float, lid: float, start: float, end: float, parent: float) -> str:
            return json.dumps(
                {
                    "run": int(run),
                    "name": LAYERS[int(lid)],
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": int(parent),
                }
            )

        with open(path, "w", encoding="utf-8") as out:
            for s in runs:
                out.write(line(*s) + "\n")
            for i in range(0, len(self._fire), 3):
                lid, start, end = self._fire[i : i + 3]
                parent = engines[bisect_right(starts, start) - 1][1]
                out.write(line(runs[parent][0], lid, start, end, parent) + "\n")


_MISSING = object()


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install ``tracer``'s wrappers on every :func:`targets` attribute for
    the duration of the block, then restore each owner's own attributes
    exactly (an inherited attribute is deleted again, not shadowed)."""
    saved: list[tuple[object, str, object]] = []
    try:
        for layer, owner, names, every in targets():
            for name in names:
                fn = getattr(owner, name, None)
                if fn is None:
                    continue  # absent in this version of the program: reads 0
                saved.append((owner, name, vars(owner).get(name, _MISSING)))
                setattr(owner, name, tracer.wrap(layer, fn, every))
        yield
    finally:
        for owner, name, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
