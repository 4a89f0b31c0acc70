"""Seeded random-number management.

Every stochastic object in the library draws from a
:class:`numpy.random.Generator` handed to it explicitly — there is no
hidden global state.  A single integer seed therefore pins down an entire
simulation run bit-for-bit, which the test-suite and the experiment
harness rely on.

:func:`spawn_generator` builds child generators from a parent seed using
``numpy``'s :class:`~numpy.random.SeedSequence` spawning so that parallel
sweeps (one child per run) remain statistically independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["RngMeter", "RngStream", "spawn_generator", "stable_seed"]

#: shape argument accepted by the metered sampling methods.
_Size = int | tuple[int, ...] | None


def spawn_generator(seed: int | None, *keys: int) -> np.random.Generator:
    """Return a generator derived from ``seed`` and an optional key path.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` yields fresh OS entropy (non-reproducible).
    keys:
        Integer path elements; the same ``(seed, *keys)`` always yields the
        same stream, and distinct key paths yield independent streams.

    Examples
    --------
    >>> g1 = spawn_generator(7, 0)
    >>> g2 = spawn_generator(7, 0)
    >>> g1.integers(1 << 30) == g2.integers(1 << 30)
    True
    """
    if seed is None:
        return np.random.default_rng()
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in keys))
    return np.random.Generator(np.random.PCG64(ss))


def stable_seed(*parts: object, modulo: int = 10_000) -> int:
    """A process-independent integer seed derived from ``parts``.

    Built on CRC-32 of the parts' repr, NOT Python's ``hash()``: string
    hashing is salted per interpreter (PYTHONHASHSEED), so ``hash()``-
    derived seeds silently differ between runs *and* between a sweep's
    parent and its spawned workers — breaking the "tables identical at
    any worker count" contract.  Same ``parts`` here always yield the
    same seed, in every process.
    """
    import zlib

    return zlib.crc32(repr(parts).encode()) % modulo


class RngMeter:
    """A transparent draw-counting proxy around a :class:`numpy.random.Generator`.

    Wrapping changes nothing about the stream — every call delegates to
    the underlying generator — but :attr:`draws` counts the number of
    *variates* consumed (``random(n)`` counts ``n``), so the engine can
    expose "RNG draws consumed per stream" as a cheap per-slot channel
    metric.  A drift in the consumption count is the earliest observable
    symptom of an RNG-coupling regression (two code paths silently
    consuming the stream differently), which is why the golden tests pin
    these counters exactly.

    Only the sampling methods the simulator and protocol nodes use are
    metered explicitly; any other attribute falls through unmetered (and
    uncounted) to the wrapped generator.
    """

    __slots__ = ("generator", "draws", "calls")

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator
        self.draws = 0  #: variates consumed so far
        self.calls = 0  #: sampling calls made so far

    @staticmethod
    def _size_of(size: _Size) -> int:
        if size is None:
            return 1
        if isinstance(size, tuple):
            out = 1
            for s in size:
                out *= int(s)
            return out
        return int(size)

    def _count(self, size: _Size) -> None:
        self.calls += 1
        self.draws += self._size_of(size)

    # -- metered sampling methods (the ones the hot paths use) ----------
    def random(self, size: _Size = None, *args: Any, **kwargs: Any) -> Any:
        """Metered :meth:`numpy.random.Generator.random`."""
        self._count(size)
        return self.generator.random(size, *args, **kwargs)

    def geometric(self, p: float | np.ndarray, size: _Size = None) -> Any:
        """Metered :meth:`numpy.random.Generator.geometric`."""
        self._count(size)
        return self.generator.geometric(p, size)

    def integers(
        self,
        low: int | np.ndarray,
        high: int | np.ndarray | None = None,
        size: _Size = None,
        **kwargs: Any,
    ) -> Any:
        """Metered :meth:`numpy.random.Generator.integers`."""
        self._count(size)
        return self.generator.integers(low, high, size, **kwargs)

    def uniform(
        self, low: float = 0.0, high: float = 1.0, size: _Size = None
    ) -> Any:
        """Metered :meth:`numpy.random.Generator.uniform`."""
        self._count(size)
        return self.generator.uniform(low, high, size)

    def exponential(self, scale: float = 1.0, size: _Size = None) -> Any:
        """Metered :meth:`numpy.random.Generator.exponential`."""
        self._count(size)
        return self.generator.exponential(scale, size)

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Metered in-place :meth:`numpy.random.Generator.random` (``out=``).

        Fills ``out`` (C-contiguous float64) with uniforms, consuming the
        stream exactly like ``random(out.size)`` — same variates, same
        post-call state — but without allocating.  The block-stepped
        engine path reuses one buffer across segment draws; fresh
        multi-megabyte allocations per segment cost ~3x the generator's
        own throughput in page faults.
        """
        self.calls += 1
        self.draws += int(out.size)
        return self.generator.random(out=out)

    def skip(self, count: int) -> None:
        """Consume ``count`` ``random()`` variates without generating them.

        Advances the underlying PCG64 state by exactly ``count`` steps —
        :meth:`numpy.random.Generator.random` consumes one 64-bit output
        per double, so the post-skip state is bit-identical to the state
        after ``random(count)`` — and meters the draws as consumed.  The
        engine's block-stepped path uses this to fast-forward spans in
        which no node can transmit (every send probability is zero):
        the uniforms would be compared against 0.0 and discarded, so the
        stream is advanced, not generated.  Only valid for bit
        generators supporting ``advance`` (PCG64, the library default).
        """
        self.calls += 1
        self.draws += int(count)
        self.generator.bit_generator.advance(int(count))

    # -- rewinding ---------------------------------------------------------
    def checkpoint(self) -> tuple[dict[str, Any], int, int]:
        """Snapshot the stream position and both meters, for :meth:`rewind`."""
        return self.generator.bit_generator.state, self.draws, self.calls

    def rewind(self, checkpoint: tuple[dict[str, Any], int, int]) -> None:
        """Return the stream and its meters to ``checkpoint``.

        The engine resolves a run of fire slots before it knows where a
        state change cuts the run; it draws the side streams (loss coins,
        channel hops) for the whole run, then rewinds here and redraws
        the part before the cut.  Restoring the bit generator's full
        state, not stepping it back, keeps any buffered 32-bit half of a
        previous ``integers`` call exact.
        """
        state, self.draws, self.calls = checkpoint
        self.generator.bit_generator.state = state

    # -- unmetered structural methods -----------------------------------
    def spawn(self, n_children: int) -> list[np.random.Generator]:
        """Spawn independent children (consumes no draws; not metered)."""
        return self.generator.spawn(n_children)

    def __getattr__(self, name: str) -> Any:
        # Fallback for anything else (permutation, choice, bit_generator,
        # ...): delegate, uncounted.
        return getattr(self.generator, name)


@dataclass
class RngStream:
    """A forkable stream of generators rooted at one seed.

    Used by sweep runners: each call to :meth:`child` returns a fresh,
    independent generator while keeping the whole sweep reproducible.

    >>> s = RngStream(seed=42)
    >>> a, b = s.child(), s.child()
    >>> a is not b
    True
    """

    seed: int | None
    _counter: int = field(default=0, init=False)

    def child(self) -> np.random.Generator:
        """Return the next independent child generator."""
        g = spawn_generator(self.seed, self._counter)
        self._counter += 1
        return g

    def child_seed(self) -> int:
        """Return a fresh integer seed (for APIs that want seeds, not rngs)."""
        g = self.child()
        return int(g.integers(0, 2**63 - 1))
