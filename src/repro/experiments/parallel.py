"""Parallel seed-sweep execution for the experiment harness.

Every headline table is a few hundred seeded, mutually independent
simulation runs.  :func:`run_sweep` executes them on a
:class:`~concurrent.futures.ProcessPoolExecutor` with the *same* seed
derivation as the serial path (one :class:`~repro._util.RngStream` child
seed per run, drawn in the parent before dispatch), so serial and
parallel sweeps produce **byte-identical** row lists — parallelism is an
execution detail, never an experimental condition.

Guarantees and behaviour:

- **Determinism.** Seeds are derived serially up front; results are
  returned in seed order regardless of worker scheduling.
- **Chunked dispatch.** Seeds are grouped into chunks (amortizing
  pickling/IPC overhead for sub-second runs) and each chunk is one pool
  task.
- **Graceful fallback.** ``workers=1``, a single seed, an unpicklable
  ``fn`` (e.g. a lambda), or a platform where the pool cannot start all
  fall back to plain in-process execution.
- **Crash containment.** A chunk whose worker dies (OOM-killed,
  segfaulted interpreter, broken pool) is re-run serially in the parent;
  one bad seed never loses a sweep.  Deterministic exceptions raised by
  ``fn`` itself still propagate — they would fail serially too.
- **Shared scenarios.** Sweeps that run many seeds of *one* scenario
  (E6/E13 ``replicas=``) build the deployment once per scenario key per
  process through :func:`shared_build` instead of once per seed.
- **Telemetry.** Every run records wall time plus the ``slots``/``tx``
  counters its row carries (when present); see :func:`collect_telemetry`
  and :func:`repro.experiments.io.save_sweep_telemetry`.

The default worker count comes from the ``REPRO_SWEEP_WORKERS``
environment variable (``0`` means "all cores"), so the CLI
(``--workers``), the benchmark harness (``--sweep-workers``), and any
script can widen every sweep without threading a parameter through all
seventeen experiment modules.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pickle
import time
from collections.abc import Callable, Hashable, Iterable, Iterator
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro._util import RngStream

__all__ = [
    "RunTelemetry",
    "collect_telemetry",
    "default_workers",
    "resolve_seeds",
    "run_sweep",
    "shared_build",
    "shared_build_stats",
]


@dataclass(frozen=True)
class RunTelemetry:
    """Wall-time and cost counters for one run of a sweep.

    ``slots``, ``tx``, ``rx``, and ``collisions`` are lifted from the
    run's result row when it is a dict carrying ``slots`` /
    ``tx_total`` (or ``tx``) / ``rx_total`` (or ``rx``) /
    ``collision_total`` (or ``collisions``) keys; ``None`` otherwise.
    """

    seed: int
    wall_s: float
    slots: int | None = None
    tx: int | None = None
    rx: int | None = None
    collisions: int | None = None


#: Ambient telemetry sink (set by :func:`collect_telemetry`); a context
#: variable so nested sweeps and worker pools cannot cross-talk.
_SINK: contextvars.ContextVar[list[RunTelemetry] | None] = contextvars.ContextVar(
    "repro_sweep_telemetry", default=None
)


@contextlib.contextmanager
def collect_telemetry() -> Iterator[list[RunTelemetry]]:
    """Collect :class:`RunTelemetry` for every sweep run in the block::

        with collect_telemetry() as telemetry:
            table = e2_time_scaling.run(workers=4)
        total_wall = sum(t.wall_s for t in telemetry)
    """
    sink: list[RunTelemetry] = []
    token = _SINK.set(sink)
    try:
        yield sink
    finally:
        _SINK.reset(token)


def default_workers() -> int:
    """Worker count from ``REPRO_SWEEP_WORKERS`` (0 = all cores; unset,
    empty, or invalid = 1, the serial in-process path)."""
    raw = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    try:
        value = int(raw) if raw else 1
    except ValueError:
        return 1
    return value if value > 0 else (os.cpu_count() or 1)


def resolve_seeds(seeds: Iterable[int] | int, master_seed: int = 0) -> list[int]:
    """Expand a seed spec — an explicit iterable, or a count expanded
    from ``master_seed`` via :class:`RngStream` child spawning — into the
    concrete per-run seed list (the serial harness's exact derivation)."""
    if isinstance(seeds, int):
        stream = RngStream(master_seed)
        return [stream.child_seed() for _ in range(seeds)]
    return [int(s) for s in seeds]


#: Process-local scenario memo: one entry per scenario hash (see
#: :func:`shared_build`).  Worker processes each grow their own copy.
_BUILD_CACHE: dict[Any, Any] = {}
_BUILD_CACHE_MAX = 32
_BUILD_STATS = {"hits": 0, "misses": 0}


def shared_build(key: Any, build: Callable[[], Any]) -> Any:
    """Build an expensive, deterministic scenario once per process.

    Replica sweeps run many seeds of the *same* scenario (one
    deployment, one wake schedule, one parameter set); without a memo,
    every seed — and, across worker processes, every chunk — would
    rebuild the scenario from scratch.  This memo keys the built
    scenario on a caller-chosen hashable ``key``: within one process the
    first call under a key runs ``build()`` and every later call returns
    the cached object.

    ``build`` must be deterministic (same key, same value) — the cache
    makes rebuild-vs-reuse unobservable only under that contract, which
    is the same contract the seeded experiment harness already relies
    on.  The cache holds at most ``_BUILD_CACHE_MAX`` scenarios,
    evicting the oldest; :func:`shared_build_stats` exposes hit/miss
    counters for the regression tests.
    """
    try:
        value = _BUILD_CACHE[key]
    except (KeyError, TypeError):
        if not isinstance(key, Hashable):
            raise TypeError(f"scenario key must be hashable, got {key!r}") from None
        _BUILD_STATS["misses"] += 1
        value = _BUILD_CACHE[key] = build()
        while len(_BUILD_CACHE) > _BUILD_CACHE_MAX:
            _BUILD_CACHE.pop(next(iter(_BUILD_CACHE)))
        return value
    _BUILD_STATS["hits"] += 1
    return value


def shared_build_stats(*, reset: bool = False) -> dict[str, int]:
    """This process's scenario-memo hit/miss counters (test hook)."""
    stats = dict(_BUILD_STATS)
    if reset:
        _BUILD_STATS["hits"] = _BUILD_STATS["misses"] = 0
        _BUILD_CACHE.clear()
    return stats


def _timed_run(fn: Callable[[int], Any], seed: int) -> tuple[Any, float]:
    t0 = time.perf_counter()
    result = fn(seed)
    return result, time.perf_counter() - t0


def _run_chunk(fn: Callable[[int], Any], chunk: list[int]) -> list[tuple[Any, float]]:
    """Worker entry point: run one chunk of seeds, timing each run."""
    return [_timed_run(fn, s) for s in chunk]


def _lift_counter(row: dict, *keys: str) -> int | None:
    """First of ``keys`` present in ``row`` with a numeric value."""
    for key in keys:
        value = row.get(key)
        if isinstance(value, (int, float)):
            return int(value)
    return None


def _telemetry_of(seed: int, result: Any, wall_s: float) -> RunTelemetry:
    slots = tx = rx = collisions = None
    if isinstance(result, dict):
        slots = _lift_counter(result, "slots")
        tx = _lift_counter(result, "tx_total", "tx")
        rx = _lift_counter(result, "rx_total", "rx")
        collisions = _lift_counter(result, "collision_total", "collisions")
    return RunTelemetry(
        seed=seed, wall_s=wall_s, slots=slots, tx=tx, rx=rx, collisions=collisions
    )


def _can_dispatch(fn: Callable[[int], Any]) -> bool:
    """Whether ``fn`` can cross a process boundary (lambdas and closures
    cannot; module-level functions and partials of them can)."""
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


def run_sweep(
    fn: Callable[[int], Any],
    *,
    seeds: Iterable[int] | int,
    master_seed: int = 0,
    workers: int | None = None,
    chunksize: int | None = None,
    telemetry: list[RunTelemetry] | None = None,
) -> list[Any]:
    """Run ``fn(seed)`` over a seed set, optionally across processes.

    Parameters
    ----------
    fn:
        Per-run callable; must be picklable (a module-level function or a
        :func:`functools.partial` of one) for the pool to be used —
        otherwise the sweep silently runs in-process.
    seeds, master_seed:
        Seed spec, exactly as in the serial harness (see
        :func:`resolve_seeds`).
    workers:
        Process count; ``None`` reads ``REPRO_SWEEP_WORKERS`` (default
        1), ``0`` means all cores.  ``1`` runs in-process.
    chunksize:
        Seeds per pool task; default splits the sweep into about four
        chunks per worker.
    telemetry:
        Optional list to append per-run :class:`RunTelemetry` to (the
        ambient :func:`collect_telemetry` sink is always fed as well).

    Returns the per-run results in seed order — byte-identical to the
    serial path for any worker count.
    """
    seed_list = resolve_seeds(seeds, master_seed)
    if workers is None:
        workers = default_workers()
    elif workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")

    timed: list[tuple[Any, float] | None]
    if workers > 1 and len(seed_list) > 1 and _can_dispatch(fn):
        timed = _dispatch(fn, seed_list, workers, chunksize)
    else:
        timed = [None] * len(seed_list)

    results: list[Any] = []
    sink = _SINK.get()
    for i, seed in enumerate(seed_list):
        entry = timed[i] if i < len(timed) else None
        if entry is None:  # serial path, or a chunk lost to a worker crash
            entry = _timed_run(fn, seed)
        result, wall_s = entry
        record = _telemetry_of(seed, result, wall_s)
        if telemetry is not None:
            telemetry.append(record)
        if sink is not None:
            sink.append(record)
        results.append(result)
    return results


def _dispatch(
    fn: Callable[[int], Any],
    seed_list: list[int],
    workers: int,
    chunksize: int | None,
) -> list[tuple[Any, float] | None]:
    """Chunked pool dispatch of a picklable per-seed ``fn``; failed or
    crashed chunks come back as ``None`` entries for the caller's serial
    retry."""
    runner = partial(_run_chunk, fn)
    if chunksize is None:
        chunksize = max(1, -(-len(seed_list) // (4 * workers)))
    chunks = [seed_list[i : i + chunksize] for i in range(0, len(seed_list), chunksize)]
    out: list[tuple[Any, float] | None] = [None] * len(seed_list)
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            futures = [pool.submit(runner, chunk) for chunk in chunks]
            pos = 0
            for chunk, future in zip(chunks, futures):
                try:
                    chunk_out = future.result()
                    out[pos : pos + len(chunk)] = chunk_out
                except (BrokenExecutor, OSError, pickle.PickleError):
                    pass  # worker died: leave the chunk for serial retry
                pos += len(chunk)
    except (BrokenExecutor, OSError, RuntimeError, NotImplementedError):
        # The pool itself could not start (or broke during teardown) on
        # this platform; every unfilled entry is retried serially.
        pass
    return out
