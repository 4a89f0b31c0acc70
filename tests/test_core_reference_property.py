"""Property-based differential testing: optimized vs reference node.

The scripted differential tests in ``test_core_reference.py`` cover
hand-picked scenarios; here Hypothesis generates *arbitrary* message
scripts and slot interleavings and requires the optimized
:class:`ColoringNode`, a :class:`BernoulliColoringNode` driven the way
the vectorized engine drives it, and the executable-spec
:class:`ReferenceColoringNode` to remain in lockstep at every step —
same transmissions (type, payload), same state labels, same counters,
same instrumentation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BernoulliColoringNode, ColoringNode, Parameters
from repro.core.reference import ReferenceColoringNode
from repro.radio import AssignMessage, ColorMessage, CounterMessage, RequestMessage


class AlwaysTransmit:
    def geometric(self, p):
        return 1

    def random(self):
        return 0.0


def params():
    return Parameters(
        n=12, delta=3, kappa1=2, kappa2=3, alpha=1, beta=2, gamma=1, sigma=3
    )


def messages_strategy():
    counter_msg = st.builds(
        CounterMessage,
        sender=st.integers(20, 26),
        color=st.integers(0, 5),
        counter=st.integers(-60, 80),
    )
    color_msg = st.builds(
        ColorMessage, sender=st.integers(20, 26), color=st.integers(0, 5)
    )
    assign_msg = st.builds(
        AssignMessage,
        sender=st.integers(20, 23),
        color=st.just(0),
        target=st.sampled_from([0, 21]),  # sometimes for us, sometimes not
        tc=st.integers(1, 3),
    )
    request_msg = st.builds(
        RequestMessage, sender=st.integers(20, 26), leader=st.sampled_from([0, 99])
    )
    return st.one_of(counter_msg, color_msg, assign_msg, request_msg)


def engine_step(node, slot):
    """One slot of ``node`` as the vectorized engine drives it: the due
    scheduled transitions, then a transmit coin that always fires (the
    engine-side twin of :class:`AlwaysTransmit`)."""
    if node.next_event_slot() <= slot:
        node.on_event(slot)
    return node.emit(slot) if node.tx_prob() > 0 else None


# A script: per step either advance the slot or deliver a message.
script_strategy = st.lists(
    st.one_of(st.none(), messages_strategy()), min_size=1, max_size=160
)


def observe(node, slot, msg):
    return (
        slot,
        type(msg).__name__ if msg else None,
        getattr(msg, "counter", None),
        getattr(msg, "color", None),
        getattr(msg, "target", None),
        getattr(msg, "tc", None),
        node.state.label,
        node.color,
        node.tc,
        node.leader,
        node.resets,
        node.min_counter,
    )


@settings(max_examples=300, deadline=None)
# A quiet lead-in of 30 or more slots after the wake-up slot makes the
# node a leader (active from slot 8, threshold 23 reached at slot 30)
# before the script starts, so queued requests, serving windows and
# assignments are exercised too; scripts alone almost never get there.
@given(st.integers(0, 40), script_strategy)
def test_lockstep_under_arbitrary_scripts(lead_in, script):
    p = params()
    opt = ColoringNode(0, p)
    ref = ReferenceColoringNode(0, p)
    vec = BernoulliColoringNode(0, p)
    rng = AlwaysTransmit()
    for node in (opt, ref, vec):
        node.wake(0)
    # Engine slot order: a slot's transmit phase (step) comes first and
    # its receptions (deliver) follow under the same slot number, as in
    # the scripted tests.  The leading None steps the wake-up slot.
    slot = -1
    for action in [None] * (1 + lead_in) + script:
        if action is None:
            slot += 1
            a = observe(opt, slot, opt.step(slot, rng))
            b = observe(ref, slot, ref.step(slot, rng))
            c = observe(vec, slot, engine_step(vec, slot))
            assert a == b, f"diverged at slot {slot}: {a} != {b}"
            assert c == b, f"batched node diverged at slot {slot}: {c} != {b}"
        else:
            for node in (opt, ref, vec):
                node.deliver(slot, action)
            assert opt.state.label == ref.state.label == vec.state.label
            assert opt.resets == ref.resets == vec.resets
    assert opt.states_visited == ref.states_visited == vec.states_visited
