"""Active-set sparse stepping: byte identity.

The sparse path (``build_simulator(..., sparse=True)``) walks only the
awake-and-undecided columns of each slot, advancing the PCG64 stream
across the skipped lattice positions so every consumed variate sits at
exactly the offset the dense path would have read it from.  It promises
a *byte-identical trajectory* to the dense blocked path: same colors,
same slot counts, same six channel-metric columns slot-for-slot, same
protocol-stream draw totals.

The conformance SPARSE_MATRIX pins specific scenarios; the Hypothesis
property here walks random deployments, wake schedules
(including the all-asleep span where nobody wakes inside the horizon),
loss rates, channel counts, block sizes, and stop granularities.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BernoulliColoringNode, Parameters, run_coloring
from repro.core.node import ColoringNode
from repro.core.protocol import build_simulator
from repro.graphs import random_udg
from repro.wakeup import uniform_random


def _world(n, degree, graph_seed, wake_seed, wake_window):
    dep = random_udg(n, expected_degree=degree, seed=graph_seed)
    params = Parameters.practical(n, max(2, dep.max_degree), 5, 18)
    if wake_window == 0:
        wake = np.zeros(n, dtype=np.int64)
    else:
        wake = uniform_random(n, window=wake_window, seed=wake_seed)
    return dep, params, wake


def _run(dep, params, wake, *, seed, block, sparse=False, loss_prob=0.0,
         channels=1, max_slots=400, check_every=16, stop=False):
    sim, nodes = build_simulator(
        dep,
        params,
        wake,
        seed=seed,
        node_cls=BernoulliColoringNode,
        trace_level=2,
        loss_prob=loss_prob,
        channels=channels,
        sparse=sparse,
    )
    stop_when = (lambda s: s.trace.decided >= dep.n) if stop else None
    res = sim.run(max_slots, stop_when=stop_when, check_every=check_every,
                  block=block)
    return sim, nodes, res


def _assert_identical(a, b):
    sim_a, nodes_a, res_a = a
    sim_b, nodes_b, res_b = b
    assert res_a.slots == res_b.slots
    assert res_a.stopped_early == res_b.stopped_early
    cols_a = sim_a.trace.channel_metrics.as_arrays()
    cols_b = sim_b.trace.channel_metrics.as_arrays()
    assert set(cols_a) == set(cols_b)
    for name in cols_a:
        assert np.array_equal(cols_a[name], cols_b[name]), f"column {name}"
    for attr in ("tx_count", "rx_count", "collision_count"):
        assert np.array_equal(getattr(sim_a.trace, attr), getattr(sim_b.trace, attr))
    assert sim_a.trace.events == sim_b.trace.events
    assert [n.color for n in nodes_a] == [n.color for n in nodes_b]
    # Meter totals are position totals: on early-stopped runs the dense
    # blocked path may have advanced past the stop slot (post-stop
    # generator position is out-of-contract; the *per-slot* draw columns
    # above are the binding check), so require equality only when the
    # run went the full horizon.
    if not res_a.stopped_early:
        assert sim_a.rng.draws == sim_b.rng.draws


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 14),
    degree=st.floats(3.0, 7.0),
    graph_seed=st.integers(0, 10**6),
    wake_seed=st.integers(0, 10**6),
    sim_seed=st.integers(0, 10**6),
    wake_window=st.sampled_from([0, 25, 120]),
    block=st.sampled_from([1, 3, 17, 64, 1_000_000]),
    loss_prob=st.sampled_from([0.0, 0.15]),
    channels=st.sampled_from([1, 2]),
    check_every=st.sampled_from([1, 4, 16]),
    stop=st.booleans(),
)
def test_sparse_equals_dense_blocked_property(
    n, degree, graph_seed, wake_seed, sim_seed, wake_window, block,
    loss_prob, channels, check_every, stop,
):
    """Random world, random stepping knobs: sparse == dense blocked."""
    dep, params, wake = _world(n, degree, graph_seed, wake_seed, wake_window)
    kwargs = dict(seed=sim_seed, loss_prob=loss_prob, channels=channels,
                  max_slots=350, check_every=check_every, stop=stop)
    _assert_identical(
        _run(dep, params, wake, block=block, **kwargs),
        _run(dep, params, wake, block=block, sparse=True, **kwargs),
    )


def test_sparse_all_asleep_span_is_byte_identical():
    """No node wakes inside the horizon: the whole run is one all-passive
    span on both paths — same per-slot empty metrics, same stream skip."""
    dep, params, _ = _world(10, 4.0, 7, 8, 30)
    wake = np.full(10, 10_000, dtype=np.int64)  # far beyond max_slots
    for block in (1, 64, 4096):
        dense = _run(dep, params, wake, seed=2, block=block, max_slots=500)
        sparse = _run(dep, params, wake, seed=2, block=block, sparse=True,
                      max_slots=500)
        _assert_identical(dense, sparse)
        assert dense[2].slots == 500 and not dense[2].stopped_early


def test_sparse_last_node_finishes_at_same_slot():
    """Full coloring to completion: the run must stop at exactly the slot
    the last node decides on both paths, for every check granularity."""
    dep = random_udg(20, expected_degree=6, seed=9, connected=True)
    for check_every in (1, 7, 32):
        params = Parameters.for_deployment(dep)
        wake = uniform_random(20, window=200, seed=1)
        dense = _run(dep, params, wake, seed=11, block=256, max_slots=100_000,
                     check_every=check_every, stop=True)
        sparse = _run(dep, params, wake, seed=11, block=256, sparse=True,
                      max_slots=100_000, check_every=check_every, stop=True)
        _assert_identical(dense, sparse)
        assert sparse[2].stopped_early
        # The stop slot is pinned to the last decision's check boundary.
        decide_max = int(sparse[0].trace.decide_slot.max())
        assert sparse[2].slots >= decide_max


def test_run_coloring_sparse_end_to_end():
    """run_coloring(sparse=True) reproduces the dense run to the end."""
    dep = random_udg(24, expected_degree=6, seed=3, connected=True)
    base = run_coloring(dep, seed=7, node_cls=BernoulliColoringNode, block=64)
    sparse = run_coloring(
        dep, seed=7, node_cls=BernoulliColoringNode, block=64, sparse=True
    )
    assert sparse.completed and sparse.proper
    assert np.array_equal(base.colors, sparse.colors)
    assert base.slots == sparse.slots
    assert (
        base.trace.channel_metrics.totals() == sparse.trace.channel_metrics.totals()
    )


def test_sparse_requires_vectorized_path():
    """sparse on an explicitly classic node class is a clear error, not
    silent dense execution; with no node_cls the protocol supplies its
    batched class and the sparse path engages."""
    dep = random_udg(8, expected_degree=4, seed=1)
    params = Parameters.practical(8, 4, 5, 18)
    with pytest.raises(ValueError, match="vectorized"):
        build_simulator(dep, params, seed=0, sparse=True, node_cls=ColoringNode)
    sim, _ = build_simulator(dep, params, seed=0, sparse=True)
    assert sim.vectorized
