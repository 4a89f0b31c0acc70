"""The fast path's delivery filter and change flag must be conservative.

The vectorized engine calls ``node.deliver`` only when the receiver's
``listen_key()`` equals one of the sender's two ``message_keys()``, and
re-reads a node's cached ``tx_prob`` / ``next_event_slot`` / keys only
when ``deliver`` does not return ``False``.  Both shortcuts are sound
only if

- a delivery the filter drops would have left the receiver untouched
  (every ``__slots__`` field unchanged), and
- a delivery reported as "no change" really left the four cached
  quantities unchanged.

Every :class:`BernoulliColoringNode` state is crossed with every kind
of message, each built by a real sender node so its keys are the ones
the engine would use.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import BernoulliColoringNode, Parameters
from repro.radio import AssignMessage, ColorMessage, CounterMessage, RequestMessage

RECEIVER = 5
LEADER = 7  # the receiver's leader in state R

# n=2 floors log n at 1: wait = 2 slots, critical ranges 1 (A_0) and 2
# (A_i), threshold 6, serve window 1.
PARAMS = Parameters(n=2, delta=2, kappa1=1, kappa2=2, alpha=1, beta=1, gamma=1, sigma=3)


def _verify(vid, i, *, active):
    """A node in ``A_i`` entered at slot 10 (active from slot 12)."""
    node = BernoulliColoringNode(vid, PARAMS)
    node.wake(10)
    if i:
        node._enter_verify(i, 10)
    if active:
        node.on_event(node.next_event_slot())
    return node


def _requester(vid, leader):
    node = _verify(vid, 0, active=False)
    node.deliver(10, ColorMessage(sender=leader, color=0))
    return node


def _leader(vid, serving=None):
    node = BernoulliColoringNode(vid, PARAMS)
    node.wake(0)
    node._enter_colored(0, 10)
    if serving is not None:
        node.deliver(10, RequestMessage(sender=serving, leader=vid))
        node.on_event(node.next_event_slot())
    return node


def _colored(vid, i):
    node = BernoulliColoringNode(vid, PARAMS)
    node.wake(0)
    node._enter_colored(i, 10)
    return node


RECEIVERS = {
    "A0-passive": lambda: _verify(RECEIVER, 0, active=False),
    "A0-active": lambda: _verify(RECEIVER, 0, active=True),
    "A2-passive": lambda: _verify(RECEIVER, 2, active=False),
    "A2-active": lambda: _verify(RECEIVER, 2, active=True),
    "R": lambda: _requester(RECEIVER, LEADER),
    "C0-idle": lambda: _leader(RECEIVER),
    "C0-serving": lambda: _leader(RECEIVER, serving=11),
    "C3": lambda: _colored(RECEIVER, 3),
}


def _far_counter(i):
    """An active ``A_i`` sender whose counter is far outside every
    critical range of the receiver."""
    node = _verify(8, i, active=True)
    node._set_counter(-500, 12)
    return node


SENDERS = {
    **{f"counter{i}": (lambda i=i: _verify(8, i, active=True)) for i in (0, 2, 3)},
    **{f"counter{i}-far": (lambda i=i: _far_counter(i)) for i in (0, 2, 3)},
    "color0": lambda: _leader(9),
    **{f"color{i}": (lambda i=i: _colored(9, i)) for i in (2, 3)},
    "assign-self-own-leader": lambda: _leader(LEADER, serving=RECEIVER),
    "assign-self-other-leader": lambda: _leader(9, serving=RECEIVER),
    "assign-other": lambda: _leader(LEADER, serving=12),
    "request-self": lambda: _requester(13, RECEIVER),
    "request-other": lambda: _requester(13, 14),
}

SLOT = 13  # after every state above settled; before any A_i decides


def _fields(node):
    """Every ``__slots__`` field, deep-copied."""
    names = [
        name
        for cls in type(node).__mro__
        for name in getattr(cls, "__slots__", ())
    ]
    return {name: copy.deepcopy(getattr(node, name)) for name in names}


def _cached(node):
    """What the engine caches per node."""
    return (node.tx_prob(), node.next_event_slot(), node.listen_key(), node.message_keys())


@pytest.mark.parametrize("sender", sorted(SENDERS))
@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_filter_and_change_flag_are_conservative(receiver, sender):
    node = RECEIVERS[receiver]()
    src = SENDERS[sender]()
    msg = src.emit(SLOT)
    heard = node.listen_key() in src.message_keys()
    before, cached = _fields(node), _cached(node)
    changed = node.deliver(SLOT, msg)
    if not heard:
        assert _fields(node) == before, "the filter dropped a delivery that matters"
    if changed is False:
        assert _cached(node) == cached, "deliver() reported no change, but one happened"


def test_senders_emit_the_intended_messages():
    """The sender table covers every message kind and addressing case."""
    msgs = {name: make().emit(SLOT) for name, make in SENDERS.items()}
    assert isinstance(msgs["counter2"], CounterMessage) and msgs["counter2"].color == 2
    assert type(msgs["color0"]) is ColorMessage and msgs["color0"].color == 0
    assert isinstance(msgs["assign-self-own-leader"], AssignMessage)
    assert (msgs["assign-self-own-leader"].sender, msgs["assign-self-own-leader"].target) == (LEADER, RECEIVER)
    assert msgs["assign-other"].target != RECEIVER
    assert isinstance(msgs["request-self"], RequestMessage)
    assert msgs["request-self"].leader == RECEIVER
    assert msgs["request-other"].leader != RECEIVER


@pytest.mark.parametrize(
    "receiver,sender",
    [
        ("A0-passive", "color0"),
        ("A2-active", "color2"),
        ("A0-active", "counter0"),
        ("R", "assign-self-own-leader"),
        ("C0-idle", "request-self"),
    ],
)
def test_state_changing_deliveries_pass_and_report(receiver, sender):
    """The filter is not vacuous: the deliveries the protocol reacts to
    pass it and report a change."""
    node = RECEIVERS[receiver]()
    src = SENDERS[sender]()
    assert node.listen_key() in src.message_keys()
    cached = _cached(node)
    assert node.deliver(SLOT, src.emit(SLOT)) is True
    assert _cached(node) != cached
