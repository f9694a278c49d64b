"""Which entry points the traced run wraps, layer by layer.

Each ``install_*`` patches classes through :class:`tracer.Tracer`, which
restores them on ``uninstall()``. Install before the cluster is built,
so hooks the program binds at construction (the oracle's engine trace
hook, callbacks scheduled while loading) go through the wrappers too.
"""

from __future__ import annotations

from repro.cluster.autoscaler import Autoscaler
from repro.cluster.availability import ServiceMappingTable, ServicePublisher
from repro.cluster.dispatcher import Dispatcher, DispatcherTier
from repro.cluster.failures import ChaosInjector, FailureInjector
from repro.cluster.overload import OverloadController
from repro.cluster.reliability import CircuitBreaker, ReliabilityEngine
from repro.cluster.server import ServerNode
from repro.cluster.system import ServiceCluster
from repro.core.base import LoadBalancer
from repro.core.registry import make_policy
from repro.net.faults import NetworkFaults
from repro.net.transport import BroadcastChannel, Network
from repro.prototype.overhead import PollDelayModel, PrototypeOverheadModel
from repro.sim.engine import Simulator
from repro.telemetry.collector import TelemetryCollector
from repro.verify.oracle import InvariantOracle

#: classes whose every method is a span of one layer
WHOLE_CLASSES = (
    (ServerNode, "cluster.server"),
    (PrototypeOverheadModel, "prototype"),
    (PollDelayModel, "prototype"),
    (ServiceMappingTable, "cluster.availability"),
    (ServicePublisher, "cluster.availability"),
    (ReliabilityEngine, "cluster.reliability"),
    (CircuitBreaker, "cluster.reliability"),
    (OverloadController, "cluster.overload"),
    (DispatcherTier, "cluster.dispatcher"),
    (Dispatcher, "cluster.dispatcher"),
    (Autoscaler, "cluster.autoscaler"),
    (FailureInjector, "cluster.failures"),
    (ChaosInjector, "cluster.failures"),
    (NetworkFaults, "net"),
    (TelemetryCollector, "telemetry"),
    (InvariantOracle, "verify"),
)


def policy_classes(name: str, params: dict) -> list[type]:
    """The policy's class and its bases up to ``LoadBalancer``."""
    cls = type(make_policy(name, **params))
    return [c for c in cls.__mro__ if issubclass(c, LoadBalancer)]


def install_sim(tracer, config) -> None:
    tracer.patch_scheduler(Simulator, "sim", ["at"])
    tracer.patch_methods(Simulator, "sim", ["after", "call_soon", "cancel", "run"])
    tracer.patch_scheduler(Network, "net", ["send"], callback_index=4, callback_name="on_delivery")
    tracer.patch_methods(BroadcastChannel, "net", ["publish"])
    tracer.patch_methods(
        ServiceCluster, "cluster.system", ["run", "dispatch", "available_servers", "poll_server"]
    )
    for cls in policy_classes(config.policy, config.policy_params):
        tracer.patch_methods(cls, "core")
    for cls, layer in WHOLE_CLASSES:
        tracer.patch_methods(cls, layer, counted=("available",) if cls is ServiceMappingTable else ())


def install_live(tracer) -> None:
    import repro.live.client as client_module
    import repro.live.server as server_module
    import repro.live.wire as wire_module
    from repro.live.client import LiveCluster
    from repro.live.clock import WallClock
    from repro.live.server import LiveServer
    from workloads import LIVE

    tracer.patch_scheduler(WallClock, "live.client", ["at"])
    tracer.patch_methods(
        LiveCluster, "live.client",
        ["datagram_received", "dispatch", "poll_server", "available_servers"],
    )
    tracer.patch_methods(LiveServer, "live.server", ["datagram_received", "send_datagram"])
    tracer.patch(LiveServer, "_serve", tracer.traced_coroutine(LiveServer.__dict__["_serve"], "live.server"))
    for name in ("encode_message", "decode_message"):
        traced = tracer.traced(
            getattr(wire_module, name), "live.wire",
            count_as=name if name == "encode_message" else None,
        )
        for module in (wire_module, client_module, server_module):
            tracer.patch(module, name, traced)
    for cls in policy_classes(LIVE["policy"], LIVE["policy_params"]):
        tracer.patch_methods(cls, "core")
