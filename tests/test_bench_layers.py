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
