"""``LiveCluster`` — the client/drive agent of the live runtime.

This is the wall-clock counterpart of
:class:`~repro.cluster.system.ServiceCluster`: it exposes the *same*
policy-context surface (``rng`` / ``available_servers`` /
``poll_server`` / ``dispatch`` / ``sim`` / ``constants`` / ``servers``
/ ``telemetry``) so registry policies, the
:class:`~repro.cluster.reliability.ReliabilityEngine`, the
:class:`~repro.cluster.availability.ServiceMappingTable`,
:class:`~repro.cluster.system.ClusterMetrics`, and the
:class:`~repro.telemetry.collector.TelemetryCollector` all run
**unmodified** — time comes from a
:class:`~repro.live.clock.WallClock` and messages travel over real
UDP datagrams instead of simulated deliveries.

The request lifecycle (arrival → select → dispatch → response /
reject / timeout → retry → terminal record) mirrors
``ServiceCluster`` line for line, including every stale-delivery
guard; the race-parity tests assert the same exactly-once invariants
under injected loss/delay/duplication.

Deliberate divergences from the sim (documented in DESIGN.md §15):

- hedged requests are not supported live (the hedge path reaches into
  simulated delivery internals); constructing with a hedge-enabled
  reliability policy raises;
- overload/admission state lives in the *server* process; the client
  sees only REJECT NACKs (so ``overload`` stays ``None`` here and
  rejection counters are per-server);
- network accounting counts datagrams as seen at the client socket
  (sends for REQUEST/POLL, receipts for the rest).
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.cluster.availability import ServiceMappingTable
from repro.cluster.client import ClientNode
from repro.cluster.request import Request
from repro.cluster.system import ClusterMetrics
from repro.core.base import LoadBalancer, NoCandidatesError
from repro.live.clock import WallClock
from repro.live.faults import LoopbackFaults
from repro.live.server import DEFAULT_SERVICE_NAME
from repro.live.wire import WireError, decode_message, encode_message
from repro.net.latency import PAPER_NET, PaperNetworkConstants
from repro.net.message import MessageKind
from repro.sim.rng import RngHub

__all__ = ["LiveCluster", "LiveServerProxy"]

_WIRE_KIND_TO_SIM = {
    "request": MessageKind.REQUEST,
    "response": MessageKind.RESPONSE,
    "reject": MessageKind.REJECT,
    "poll": MessageKind.POLL,
    "poll_reply": MessageKind.POLL_REPLY,
    "publish": MessageKind.PUBLISH,
}


class LiveServerProxy:
    """Client-side view of a remote server (the ``ctx.servers`` surface).

    ``queue_recorder`` is populated from POLL replies when telemetry is
    on — the live series are *observed* queue lengths, not the server's
    ground truth (which lives in another bookkeeping domain).
    """

    __slots__ = ("node_id", "addr", "speed", "workers", "queue_recorder")

    def __init__(self, node_id: int, addr: Tuple[str, int], workers: int = 1):
        self.node_id = node_id
        self.addr = addr
        self.speed = 1.0
        self.workers = workers
        self.queue_recorder = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveServerProxy {self.node_id} @ {self.addr}>"


class _LiveNetwork:
    """Datagram accounting with the ``Network`` stats surface the
    telemetry collector and sampler expect."""

    __slots__ = ("message_counts", "byte_counts", "dropped_counts",
                 "inflight_recorder", "drops_recorder")

    def __init__(self) -> None:
        self.message_counts: Dict[MessageKind, int] = {}
        self.byte_counts: Dict[MessageKind, int] = {}
        self.dropped_counts: Dict[MessageKind, int] = {}
        self.inflight_recorder = None
        self.drops_recorder = None

    def count(self, wire_kind: str, n_bytes: int) -> None:
        kind = _WIRE_KIND_TO_SIM.get(wire_kind)
        if kind is None:
            return
        self.message_counts[kind] = self.message_counts.get(kind, 0) + 1
        self.byte_counts[kind] = self.byte_counts.get(kind, 0) + n_bytes


class _PublishShim:
    """Duck-typed ``Message`` for ``ServiceMappingTable._on_publish``."""

    __slots__ = ("payload",)

    def __init__(self, payload: Any):
        self.payload = payload


class LiveCluster(asyncio.DatagramProtocol):
    """Drives a workload against live UDP servers with shared policy code."""

    def __init__(
        self,
        server_addrs: Dict[int, Tuple[str, int]],
        policy: LoadBalancer,
        clock: WallClock,
        *,
        seed: int = 0,
        n_clients: int = 6,
        constants: PaperNetworkConstants = PAPER_NET,
        request_timeout: Optional[float] = None,
        max_retries: int = 5,
        reselect_delay: Optional[float] = None,
        reliability=None,
        availability: bool = False,
        availability_ttl: float = 3.0,
        workers_per_server: int = 1,
        faults: Optional[LoopbackFaults] = None,
    ) -> None:
        if not server_addrs:
            raise ValueError("server_addrs must not be empty")
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        # The Clock seam: ``sim`` IS the wall clock. Policy, reliability,
        # and soft-state code consult ``ctx.sim.now``/``after`` exactly
        # as they do in simulation.
        self.sim = clock
        self.clock = clock
        self.rng_hub = RngHub(seed)
        self.constants = constants
        self.overhead = None
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        if reselect_delay is not None and reselect_delay <= 0:
            raise ValueError(f"reselect_delay must be > 0, got {reselect_delay}")
        self._reselect_delay = reselect_delay
        self._derived_reselect_delay = 0.1
        self.faults = faults

        ids = sorted(server_addrs)
        self.n_servers = len(ids)
        self.n_clients = n_clients
        self.servers = [
            LiveServerProxy(i, server_addrs[i], workers=workers_per_server) for i in ids
        ]
        self._addr_by_id = {proxy.node_id: proxy.addr for proxy in self.servers}
        self._static_members = ids
        # Client node ids continue after server ids (sim convention).
        base = max(ids) + 1
        self.clients = [ClientNode(clock, base + j) for j in range(n_clients)]

        self.network = _LiveNetwork()
        self.transport: Optional[asyncio.DatagramTransport] = None

        # Availability: one shared soft-state table (all clients share
        # the drive socket, hence one subscription).
        self.availability_enabled = availability
        self.mapping_tables: Dict[int, ServiceMappingTable] = {}
        self._shared_table: Optional[ServiceMappingTable] = None
        if availability:
            table = ServiceMappingTable(clock, ttl=availability_ttl)
            self._shared_table = table
            for client in self.clients:
                self.mapping_tables[client.node_id] = table

        self.overload = None
        self.telemetry = None
        self.chaos = None
        self.reliability = None
        # The live runtime has no dispatcher tier or autoscaler; the
        # clients themselves are the selector agents (policies address
        # per-selector state through this attribute).
        self.dispatchers = None
        self.autoscaler = None
        if reliability is not None and reliability.enabled:
            if reliability.hedge_quantile is not None:
                raise ValueError(
                    "hedged requests are not supported by the live runtime "
                    "(set hedge_quantile=None for repro drive)"
                )
            from repro.cluster.reliability import ReliabilityEngine

            self.reliability = ReliabilityEngine(self, reliability)

        # Workload slots + lifecycle state (mirrors ServiceCluster).
        self.n_requests = 0
        self._arrival_times: Optional[np.ndarray] = None
        self._service_times: Optional[np.ndarray] = None
        self.metrics: Optional[ClusterMetrics] = None
        self._completed = 0
        self._t0 = 0.0
        self._requests: Dict[int, Request] = {}
        self._timeout_handles: Dict[int, Any] = {}
        self._selecting_request: Optional[Request] = None
        self._polls: Dict[int, Tuple[int, Callable[[int, int, float], None], float]] = {}
        self._next_poll_id = 0
        self._done_event = asyncio.Event()

        # Resilience counters (same names as ServiceCluster).
        self.request_timeouts_fired = 0
        self.server_loss_retries = 0
        self.duplicate_deliveries_ignored = 0
        self.stale_responses_ignored = 0
        self.rejects_sent = 0
        self.stale_rejects_ignored = 0
        self.stale_poll_replies_ignored = 0
        self.wire_errors = 0

        self.policy = policy
        policy.bind(self)

    # ------------------------------------------------------------------
    # asyncio protocol plumbing
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:  # type: ignore[override]
        self.transport = transport
        if self.availability_enabled:
            sub = encode_message("subscribe", client=self.clients[0].node_id)
            for proxy in self.servers:
                transport.sendto(sub, proxy.addr)

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    def _send(self, wire_kind: str, data: bytes, addr: Tuple[str, int]) -> None:
        if self.transport is None:
            return
        self.network.count(wire_kind, len(data))
        if self.faults is None:
            self.transport.sendto(data, addr)
            return
        plan = self.faults.plan()
        if plan is None:
            return
        for delay in plan:
            if delay <= 0.0:
                self.transport.sendto(data, addr)
            else:
                self.clock.after(delay, self._late_send, (data, addr))

    def _late_send(self, item: Tuple[bytes, Tuple[str, int]]) -> None:
        if self.transport is not None:
            self.transport.sendto(*item)

    # ------------------------------------------------------------------
    # policy context API (same surface as ServiceCluster)
    # ------------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        return self.rng_hub.stream(name)

    def available_servers(self, client: ClientNode) -> list[int]:
        if not self.availability_enabled:
            members = self._static_members
        else:
            members = self.mapping_tables[client.node_id].available(DEFAULT_SERVICE_NAME, 0)
        selecting = self._selecting_request
        if selecting is not None and selecting.last_rejected_by >= 0:
            filtered = [s for s in members if s != selecting.last_rejected_by]
            if filtered:
                members = filtered
        if self.reliability is not None:
            return list(self.reliability.filter_candidates(members))
        return list(members)

    def client_for(self, request: Request) -> ClientNode:
        base = self.clients[0].node_id
        return self.clients[(request.client_id - base) % self.n_clients]

    @property
    def selector_agents(self) -> list:
        """Policy-state owners (sim convention): no dispatcher tier in
        the live runtime, so the clients select for themselves."""
        return self.clients

    @property
    def reselect_delay(self) -> float:
        if self._reselect_delay is not None:
            return self._reselect_delay
        if self.request_timeout is not None:
            return self.request_timeout
        return self._derived_reselect_delay

    def poll_server(
        self,
        client: ClientNode,
        server_id: int,
        on_reply: Callable[[int, int, float], None],
    ) -> None:
        """Send a real POLL datagram; the reply carries the server's
        queue length and its read time (shared wall clock)."""
        self._next_poll_id += 1
        pid = self._next_poll_id
        self._polls[pid] = (server_id, on_reply, self.clock.now)
        self._send("poll", encode_message("poll", pid=pid), self._addr_by_id[server_id])

    def dispatch(self, client: ClientNode, request: Request, server_id: int) -> None:
        if request.done:
            # A stale poll round decided after the request already
            # finished through another path (timeout retry + loss).
            return
        request.last_rejected_by = -1
        request.dispatch_time = self.clock.now
        self.policy.notify_dispatch(client, request, server_id)
        self._requests[request.index] = request
        data = encode_message(
            "request",
            id=request.index,
            attempt=request.retries,
            client=client.node_id,
            service=request.service_time,
        )
        self._send("request", data, self._addr_by_id[server_id])
        self._arm_attempt_timeout(request)
        if self.reliability is not None:
            self.reliability.on_dispatch(client, request, server_id)

    def _arm_attempt_timeout(self, request: Request) -> None:
        timeout = (
            self.request_timeout
            if self.reliability is None
            else self.reliability.attempt_timeout(request)
        )
        if timeout is None:
            return
        old = self._timeout_handles.pop(request.index, None)
        if old is not None:
            self.clock.cancel(old)
        self._timeout_handles[request.index] = self.clock.after(
            timeout, self._on_request_timeout, request
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def load_workload(self, interarrival: np.ndarray, service: np.ndarray) -> None:
        gaps = np.ascontiguousarray(interarrival, dtype=np.float64)
        service_times = np.ascontiguousarray(service, dtype=np.float64)
        if gaps.shape != service_times.shape or gaps.ndim != 1 or gaps.size == 0:
            raise ValueError("interarrival and service must be equal-length non-empty 1-D")
        self.n_requests = int(gaps.shape[0])
        self._arrival_times = np.cumsum(gaps)
        self._service_times = service_times
        mean_service = float(service_times.mean())
        if mean_service > 0.0:
            self._derived_reselect_delay = 5.0 * mean_service
        self.metrics = ClusterMetrics(self.n_requests)
        self._completed = 0
        self._done_event = asyncio.Event()

    async def run(self) -> ClusterMetrics:
        """Drive the loaded workload to completion; returns the metrics.

        Callers own the hard timeout (``asyncio.wait_for``) — a live
        run must never hang the suite.
        """
        if self._arrival_times is None or self.metrics is None:
            raise RuntimeError("load_workload() must be called before run()")
        self._t0 = self.clock.now
        self.clock.at(self._t0 + float(self._arrival_times[0]), self._on_arrival, 0)
        await self._done_event.wait()
        return self.metrics

    def _on_arrival(self, index: int) -> None:
        assert self._arrival_times is not None and self._service_times is not None
        if index + 1 < self.n_requests:
            self.clock.at(
                self._t0 + float(self._arrival_times[index + 1]),
                self._on_arrival,
                index + 1,
            )
        client = self.clients[index % self.n_clients]
        request = Request(
            index=index,
            client_id=client.node_id,
            service_time=float(self._service_times[index]),
            arrival_time=self.clock.now,
        )
        self._safe_select(client, request)

    def _safe_select(self, client: ClientNode, request: Request) -> None:
        self._arm_attempt_timeout(request)
        self._selecting_request = request
        try:
            self.policy.select(client, request)
        except NoCandidatesError:
            handle = self._timeout_handles.pop(request.index, None)
            if handle is not None:
                self.clock.cancel(handle)
            self.clock.after(self.reselect_delay, self._retry, request)
        finally:
            self._selecting_request = None

    # ------------------------------------------------------------------
    # datagram handling
    # ------------------------------------------------------------------
    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:  # type: ignore[override]
        try:
            msg = decode_message(data)
        except WireError:
            self.wire_errors += 1
            return
        kind = msg["k"]
        if kind != "request":  # client never *receives* requests
            self.network.count(kind, len(data))
        if kind == "poll_reply":
            self._on_poll_reply(msg)
        elif kind == "response":
            self._on_response(msg)
        elif kind == "reject":
            self._on_reject(msg)
        elif kind == "publish":
            self._on_publish(msg)

    def _on_poll_reply(self, msg: Dict[str, Any]) -> None:
        entry = self._polls.pop(msg["pid"], None)
        if entry is None:
            # Duplicated or late reply for a poll already consumed.
            self.stale_poll_replies_ignored += 1
            return
        server_id, on_reply, _sent_at = entry
        queue_length = int(msg["q"])
        # Shared wall clock across the loopback harness: the server's
        # read time is directly comparable (telemetry staleness).
        observed_at = float(msg["at"])
        proxy = self.servers[self._proxy_index(server_id)]
        recorder = proxy.queue_recorder
        if recorder is not None:
            now = self.clock.now
            times = recorder.breakpoints()[0]
            if times.size == 0 or now >= times[-1]:
                recorder.record(now, float(queue_length))
        on_reply(server_id, queue_length, observed_at)

    def _proxy_index(self, server_id: int) -> int:
        # Server ids are dense from 0 in practice; fall back to scan.
        if server_id < len(self.servers) and self.servers[server_id].node_id == server_id:
            return server_id
        for i, proxy in enumerate(self.servers):
            if proxy.node_id == server_id:
                return i
        raise KeyError(f"unknown server id {server_id}")

    def _on_response(self, msg: Dict[str, Any]) -> None:
        request = self._requests.get(msg["id"])
        if request is None or request.done:
            # Duplicated RESPONSE, or a late response for a request that
            # already completed/failed via a retry path.
            self.stale_responses_ignored += 1
            return
        request.done = True
        handle = self._timeout_handles.pop(request.index, None)
        if handle is not None:
            self.clock.cancel(handle)
        request.server_id = int(msg["server"])
        request.enqueue_time = float(msg["enq"])
        request.start_time = float(msg["start"])
        request.completion_time = float(msg["done"])
        request.response_time = self.clock.now - request.arrival_time
        assert self.metrics is not None
        self.metrics.record(request)
        if self.telemetry is not None:
            self.telemetry.on_request_complete(request)
        self._completed += 1
        client = self.client_for(request)
        self.policy.notify_complete(client, request)
        if self.reliability is not None:
            self.reliability.on_complete(request, request)
        self._maybe_finish()

    def _on_reject(self, msg: Dict[str, Any]) -> None:
        request = self._requests.get(msg["id"])
        if request is None or request.done or request.queued_at >= 0 \
                or request.retries != msg["attempt"]:
            self.stale_rejects_ignored += 1
            return
        request.rejects += 1
        request.last_rejected_by = int(msg["server"])
        handle = self._timeout_handles.pop(request.index, None)
        if handle is not None:
            self.clock.cancel(handle)
        if self.reliability is not None:
            self.reliability.on_reject(request, int(msg["server"]))
        self._retry(request)

    def _on_publish(self, msg: Dict[str, Any]) -> None:
        if self._shared_table is None:
            return
        entries = tuple((str(s), int(p)) for s, p in msg["entries"])
        payload = (int(msg["server"]), entries, float(msg["at"]))
        self._shared_table._on_publish(_PublishShim(payload))  # noqa: SLF001

    # ------------------------------------------------------------------
    # timeout / retry path (mirrors ServiceCluster)
    # ------------------------------------------------------------------
    def _on_request_timeout(self, request: Request) -> None:
        self._timeout_handles.pop(request.index, None)
        if request.done:
            return
        self.request_timeouts_fired += 1
        if self.reliability is not None:
            self.reliability.on_attempt_failure(request)
        self._retry(request)

    def _retry(self, request: Request) -> None:
        if request.done:
            return
        request.retries += 1
        client = self.client_for(request)
        if request.retries > self.max_retries or (
            self.reliability is not None
            and self.reliability.should_fail_fast(request)
        ):
            request.done = True
            request.failed = True
            request.response_time = math.nan
            assert self.metrics is not None
            self.metrics.record(request)
            if self.telemetry is not None:
                self.telemetry.on_request_complete(request)
            # Terminal failures release per-selector policy state too
            # (least-connections charges), in the simulator's order.
            self.policy.notify_complete(client, request)
            if self.reliability is not None:
                self.reliability.on_terminal(request)
            self._completed += 1
            self._maybe_finish()
            return
        if self.reliability is not None:
            self.reliability.on_retry(request)
            delay = self.reliability.backoff_delay(request)
            if delay > 0.0:
                self.clock.after(delay, self._reselect, request)
                return
        self._safe_select(client, request)

    def _reselect(self, request: Request) -> None:
        if request.done:
            return
        self._safe_select(self.client_for(request), request)

    def _maybe_finish(self) -> None:
        if self._completed >= self.n_requests:
            self._done_event.set()

    def resilience_counters(self) -> Dict[str, float]:
        out = {
            "request_timeouts_fired": float(self.request_timeouts_fired),
            "stale_responses_ignored": float(self.stale_responses_ignored),
            "stale_rejects_ignored": float(self.stale_rejects_ignored),
            "stale_poll_replies_ignored": float(self.stale_poll_replies_ignored),
            "wire_errors": float(self.wire_errors),
        }
        if self.reliability is not None:
            out.update(
                {k: float(v) for k, v in self.reliability.counters().items()}
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveCluster servers={self.n_servers} clients={self.n_clients} "
            f"policy={self.policy.describe()} completed={self._completed}/{self.n_requests}>"
        )
