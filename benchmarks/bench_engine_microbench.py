"""Micro-benchmarks of the simulation substrate itself.

Not a paper table — these time the engine's raw throughput (slots/sec)
and the protocol's end-to-end cost, so drift in the hot path
(transmitter-centric collision resolution, lazy counters, geometric
transmission skips) shows up as printed numbers.  They gate nothing on
wall time: the fast path's work is pinned exactly, host-independently,
by the counter pins in ``tests/test_radio_engine_blocks.py``, and
end-to-end timing claims come from ``bench/``.
"""

import time

import pytest

from repro.core import Parameters, run_coloring
from repro.core.protocol import build_simulator
from repro.graphs import random_udg


def test_engine_slot_throughput(benchmark):
    """Slots/second with a full protocol population (idle-heavy load)."""
    dep = random_udg(100, expected_degree=12, seed=1, connected=True)
    params = Parameters.for_deployment(dep)

    def run_slots():
        sim, _ = build_simulator(dep, params, seed=2)
        for _ in range(2000):
            sim.step()
        return sim.slot

    slots = benchmark(run_slots)
    assert slots == 2000


def test_full_coloring_run(benchmark):
    """End-to-end protocol cost on a mid-size UDG."""
    dep = random_udg(60, expected_degree=10, seed=4, connected=True)

    result = benchmark.pedantic(
        lambda: run_coloring(dep, seed=44), rounds=1, iterations=1
    )
    assert result.completed


@pytest.mark.parametrize("layer", ["kappas", "for_deployment"])
def test_kappa_computation(benchmark, layer):
    """Exact kappa_1/kappa_2 measurement cost: a branch-and-bound MIS per
    neighborhood over bitmasks read from the deployment's CSR rows, pruned
    by the greedy clique-cover bound.  ``kappas`` times the search on a
    150-node UDG; ``for_deployment`` times the whole parameter layer
    (2-hop CSR, exact kappa; the neighbor CSR is built with the
    deployment) on fresh copies of an ``e1-sweep``-shaped input, as the
    ``bench/`` harness pays it once per input."""
    from repro.graphs import kappas

    if layer == "kappas":
        dep = random_udg(150, expected_degree=14, seed=9, connected=True)
        k1, k2 = benchmark(lambda: kappas(dep))
    else:

        def fresh():
            return (random_udg(60, expected_degree=14, seed=5, connected=True),), {}

        params = benchmark.pedantic(Parameters.for_deployment, setup=fresh, rounds=50)
        k1, k2 = params.kappa1, params.kappa2
    assert 1 <= k1 <= 5 and k1 <= k2 <= 18


def test_batch_beacon_throughput(benchmark):
    """Vectorized Monte-Carlo throughput (slots x nodes per second)."""
    import numpy as np

    from repro.radio.batch import simulate_beacons

    dep = random_udg(100, expected_degree=12, seed=3, connected=True)
    probs = np.full(dep.n, 1 / 80)

    res = benchmark(lambda: simulate_beacons(dep, probs, 5000, seed=6))
    assert res.slots == 5000


def test_unaligned_engine_throughput(benchmark):
    """Non-aligned-slots engine cost relative to the aligned engine."""
    from repro.core.protocol import build_simulator

    dep = random_udg(100, expected_degree=12, seed=1, connected=True)
    params = Parameters.for_deployment(dep)

    def run_slots():
        sim, _ = build_simulator(dep, params, seed=2, unaligned=True)
        for _ in range(2000):
            sim.step()
        return sim.slot

    slots = benchmark(run_slots)
    assert slots == 2000


def test_unaligned_delegation_overhead(benchmark):
    """The unaligned simulator now delegates message recording, loss,
    delivery, and metrics to the shared ChannelCore; this tracks what
    that delegation (plus the rolling two-buffer geometry it keeps
    locally) costs relative to the aligned engine, and what switching
    the core's loss stream on costs.  Timing only: the signal is the
    printed ratios drifting across commits (the exact work counts are
    pinned in tests/test_radio_engine_blocks.py)."""
    dep = random_udg(100, expected_degree=12, seed=1, connected=True)
    params = Parameters.for_deployment(dep)
    n_slots = 1500

    def run_slots(**kwargs):
        sim, _ = build_simulator(dep, params, seed=2, **kwargs)
        t0 = time.perf_counter()
        for _ in range(n_slots):
            sim.step()
        return n_slots / (time.perf_counter() - t0)

    def measure():
        aligned_rate = run_slots()
        unaligned_rate = run_slots(unaligned=True)
        lossy_rate = run_slots(unaligned=True, loss_prob=0.1)
        return aligned_rate, unaligned_rate, lossy_rate

    aligned_rate, unaligned_rate, lossy_rate = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print(
        f"\naligned {aligned_rate:,.0f} slots/s; "
        f"unaligned {unaligned_rate:,.0f} slots/s "
        f"({unaligned_rate / aligned_rate:.2f}x); "
        f"unaligned+loss {lossy_rate:,.0f} slots/s "
        f"({lossy_rate / unaligned_rate:.2f}x of unaligned)"
    )


def test_metrics_overhead_and_consistency(benchmark):
    """The always-on channel metrics must stay cheap (they ride inside
    the hot loop) and their totals must agree with the trace's per-node
    counters — the consistency gate the conformance harness leans on."""
    dep = random_udg(100, expected_degree=12, seed=1, connected=True)
    params = Parameters.for_deployment(dep)

    def run_slots():
        sim, _ = build_simulator(dep, params, seed=2)
        for _ in range(2000):
            sim.step()
        return sim.trace

    trace = benchmark(run_slots)
    totals = trace.channel_metrics.totals()
    assert len(trace.channel_metrics) == 2000
    assert totals["tx"] == int(trace.tx_count.sum())
    assert totals["rx"] == int(trace.rx_count.sum())
    assert totals["collisions"] == int(trace.collision_count.sum())


def test_large_network_soak(benchmark):
    """Scale check: a 250-node protocol run, verified end to end."""
    from repro.analysis import verify_run

    dep = random_udg(250, expected_degree=14, seed=12, connected=True)

    result = benchmark.pedantic(
        lambda: run_coloring(dep, seed=121), rounds=1, iterations=1
    )
    assert result.completed
    assert verify_run(result).ok
