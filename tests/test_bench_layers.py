"""Guard for the benchmark's per-layer split (``bench/layers.py``).

The traced benchmark pass wraps simulator methods by name and reads a
layer as 0 when a wrapped name no longer exists on its owner.  A rename
or removal in the engine would therefore zero a layer silently; this
test turns it into a failure.
"""

from bench.layers import targets


def test_every_wrapped_layer_method_resolves():
    missing = [
        f"{layer}: {getattr(owner, '__name__', owner)}.{name}"
        for layer, owner, names, _every in targets()
        for name in names
        if not callable(getattr(owner, name, None))
    ]
    assert not missing, f"bench.layers wraps names that no longer exist: {missing}"


def test_traced_fast_path_run_counts_the_fire_run_layers():
    """A traced small ``sync-contended`` run must count calls of the three
    layers that do a fire run's work, so the per-layer split cannot read
    zero for them after a signature change."""
    from dataclasses import replace

    from bench.layers import Tracer, installed
    from bench.run import WORKLOADS, run_once

    workload = replace(WORKLOADS["sync-contended"], n=30)
    tracer = Tracer()
    with installed(tracer):
        run = run_once(workload, 0, 0, tracer=tracer)
    assert not run.problem
    for layer in ("phy.resolve", "core.deliver", "node.emit"):
        assert tracer.layer(layer)[2] > 0, f"{layer} recorded no calls"
