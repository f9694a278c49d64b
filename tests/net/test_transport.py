"""Unit tests for the Network transport and BroadcastChannel."""

import numpy as np
import pytest

from repro.net import (
    BroadcastChannel,
    ConstantLatency,
    MessageKind,
    Network,
    NetworkFaults,
    SwitchedEthernet,
)
from repro.net.message import DEFAULT_SIZES
from repro.sim import Simulator
from repro.sim.monitor import StepRecorder


def make_net(latency=150e-6):
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(latency))
    return sim, net


def test_send_delivers_after_latency():
    sim, net = make_net(latency=1e-3)
    delivered = []
    net.send(MessageKind.REQUEST, 0, 1, "payload", delivered.append)
    sim.run()
    assert len(delivered) == 1
    message = delivered[0]
    assert message.payload == "payload"
    assert message.src == 0 and message.dst == 1
    assert sim.now == pytest.approx(1e-3)


def test_send_time_recorded():
    sim, net = make_net()
    sim.after(0.5, lambda: net.send(MessageKind.POLL, 1, 2, None, lambda m: None))
    sim.run()
    assert net.message_counts[MessageKind.POLL] == 1


def test_per_kind_latency_override():
    sim, net = make_net(latency=1.0)
    net.set_latency(MessageKind.POLL, ConstantLatency(1e-6))
    times = {}
    net.send(MessageKind.POLL, 0, 1, None, lambda m: times.setdefault("poll", sim.now))
    net.send(MessageKind.REQUEST, 0, 1, None, lambda m: times.setdefault("req", sim.now))
    sim.run()
    assert times["poll"] == pytest.approx(1e-6)
    assert times["req"] == pytest.approx(1.0)


def test_extra_delay_added():
    sim, net = make_net(latency=1e-3)
    times = []
    net.send(MessageKind.POLL_REPLY, 0, 1, None, lambda m: times.append(sim.now),
             extra_delay=5e-3)
    sim.run()
    assert times == [pytest.approx(6e-3)]


def test_message_and_byte_accounting():
    sim, net = make_net()
    for _ in range(3):
        net.send(MessageKind.POLL, 0, 1, None, lambda m: None)
    net.send(MessageKind.REQUEST, 0, 1, None, lambda m: None, size_bytes=2048)
    assert net.message_counts[MessageKind.POLL] == 3
    assert net.message_counts[MessageKind.REQUEST] == 1
    assert net.byte_counts[MessageKind.REQUEST] == 2048
    assert net.total_messages() == 4
    net.reset_counters()
    assert net.total_messages() == 0


def test_drop_filter_suppresses_delivery_but_counts():
    sim, net = make_net()
    net.drop_filter = lambda m: m.dst == 9
    delivered = []
    net.send(MessageKind.REQUEST, 0, 9, None, delivered.append)
    net.send(MessageKind.REQUEST, 0, 1, None, delivered.append)
    sim.run()
    assert len(delivered) == 1 and delivered[0].dst == 1
    assert net.dropped_counts[MessageKind.REQUEST] == 1
    assert net.message_counts[MessageKind.REQUEST] == 2


def test_broadcast_fanout():
    sim, net = make_net(latency=1e-3)
    channel = BroadcastChannel(net)
    received = []
    for node in (1, 2, 3):
        channel.subscribe(node, lambda m, n=node: received.append((n, m.payload)))
    count = channel.publish(src=0, payload=7)
    sim.run()
    assert count == 3
    assert sorted(received) == [(1, 7), (2, 7), (3, 7)]
    assert net.message_counts[MessageKind.BROADCAST] == 3


def test_broadcast_unsubscribe():
    sim, net = make_net()
    channel = BroadcastChannel(net)
    received = []
    channel.subscribe(1, lambda m: received.append(1))
    channel.subscribe(2, lambda m: received.append(2))
    channel.unsubscribe(1)
    channel.publish(src=0, payload=None)
    sim.run()
    assert received == [2]
    assert channel.subscriber_count == 1


def test_broadcast_channel_custom_kind():
    sim, net = make_net()
    channel = BroadcastChannel(net, kind=MessageKind.PUBLISH)
    channel.subscribe(1, lambda m: None)
    channel.publish(src=0, payload=None)
    assert net.message_counts[MessageKind.PUBLISH] == 1


#: (send time, kind, src, dst, size_bytes, extra_delay); dst 9 is the
#: drop filter's target
_SENDS = (
    (0.0, MessageKind.REQUEST, 0, 1, 1250, 0.0),
    (0.0, MessageKind.POLL, 0, 2, None, 0.0),
    (0.01, MessageKind.RESPONSE, 1, 0, 1250, 2e-3),
    (0.01, MessageKind.REQUEST, 0, 9, 1250, 0.0),
    (0.02, MessageKind.POLL_REPLY, 2, 0, None, 0.0),
)
_LATENCY = {MessageKind.POLL: 1e-4, MessageKind.POLL_REPLY: 1e-4}

#: hook name -> installer(sim, net, traced); each returns the switch's
#: serialization delay function when it adds one, else None
_HOOKS = {
    "none": lambda sim, net, traced: None,
    "drop_filter": lambda sim, net, traced: setattr(
        net, "drop_filter", lambda m: m.dst == 9
    ),
    "faults_duplicate": lambda sim, net, traced: setattr(
        net, "faults", NetworkFaults(np.random.default_rng(1), duplicate=1.0)
    ),
    "switch": lambda sim, net, traced: setattr(
        net, "switch", SwitchedEthernet(sim, n_ports=16, propagation=0.0)
    ),
    "deliver_trace": lambda sim, net, traced: setattr(
        net, "deliver_trace", traced.append
    ),
    "inflight_recorder": lambda sim, net, traced: setattr(
        net, "inflight_recorder", StepRecorder(initial=0.0)
    ),
}


@pytest.mark.parametrize("install_at", [None, 0.005])
@pytest.mark.parametrize("hook", sorted(_HOOKS))
def test_send_accounting_and_timing_under_every_hook(hook, install_at):
    """One message sequence under each hook. ``install_at=None`` installs
    the hook right after the network is built; ``0.005`` installs it
    between sends, so the first two messages take the hook-free fast
    path and the rest see the hook (the choice is made per send)."""
    sim = Simulator()
    net = Network(sim, np.random.default_rng(0), ConstantLatency(1e-3))
    for kind, latency in _LATENCY.items():
        net.set_latency(kind, ConstantLatency(latency))
    traced, delivered = [], []
    if install_at is None:
        _HOOKS[hook](sim, net, traced)
    else:
        sim.at(install_at, lambda: _HOOKS[hook](sim, net, traced))
    for t, kind, src, dst, size, extra in _SENDS:
        sim.at(t, lambda a=(kind, src, dst, size, extra): net.send(
            a[0], a[1], a[2], None,
            lambda m: delivered.append((sim.now, m.kind, m.dst)),
            size_bytes=a[3], extra_delay=a[4],
        ))
    sim.run()

    hooked = [install_at is None or t > install_at for t, *_ in _SENDS]
    expected = []
    for (t, kind, src, dst, size, extra), on in zip(_SENDS, hooked):
        size = DEFAULT_SIZES[kind] if size is None else size
        if on and hook == "drop_filter" and dst == 9:
            continue
        arrival = t + _LATENCY.get(kind, 1e-3) + extra
        if on and hook == "switch":
            arrival += net.switch.serialization_delay(size)
        copies = 2 if on and hook == "faults_duplicate" else 1
        expected += [(arrival, kind, dst)] * copies
    expected.sort(key=lambda d: d[0])
    assert [(k, d) for _, k, d in delivered] == [(k, d) for _, k, d in expected]
    assert [t for t, *_ in delivered] == pytest.approx([t for t, *_ in expected])

    assert net.message_counts == {
        MessageKind.REQUEST: 2, MessageKind.POLL: 1,
        MessageKind.RESPONSE: 1, MessageKind.POLL_REPLY: 1,
    }
    assert net.byte_counts == {
        MessageKind.REQUEST: 2500, MessageKind.POLL: 64,
        MessageKind.RESPONSE: 1250, MessageKind.POLL_REPLY: 64,
    }
    dropped = {MessageKind.REQUEST: 1} if hook == "drop_filter" else {}
    assert net.dropped_counts == dropped
    n_hooked = sum(hooked)
    if hook == "deliver_trace":
        assert len(traced) == n_hooked
    if hook == "faults_duplicate":
        assert sum(net.faults.duplicated_counts.values()) == n_hooked
    if hook == "inflight_recorder":
        times, values = net.inflight_recorder.breakpoints()
        assert len(values) == 2 * n_hooked  # one rise + one fall each
        assert values[-1] == 0.0
