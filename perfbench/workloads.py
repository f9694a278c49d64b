"""The four benchmark workloads, assembled through the program's public API.

The benchmark makes every workload's request arrays itself from its seed
(``generate``); the program only receives those arrays. Simulated
workloads are assembled by ``build_cluster`` and run by
``ServiceCluster.run``; the live workload is the ``run_loopback``
assembly (``LiveServer``s and one ``LiveCluster`` on one asyncio
loop over 127.0.0.1 UDP), rebuilt here so that set-up, run and
per-request timing can be measured apart.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.registry import make_policy
from repro.experiments.autoscale import (
    autoscale_cluster_params,
    autoscale_dispatcher_params,
    autoscale_scaling_params,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.overload import overload_control_params
from repro.experiments.runner import build_cluster, full_load_rho_for
from repro.live.client import LiveCluster
from repro.live.clock import WallClock
from repro.live.server import LiveServer
from repro.workload.workloads import make_workload

SIM_WORKLOADS = ("paper", "hardened", "observed")
WORKLOADS = SIM_WORKLOADS + ("live",)

#: requests in each schedule of a simulated run (two to four seconds of
#: host time); fixed, so a seed always yields one digest
SIM_REQUESTS = {"paper": 20_000, "observed": 12_000, "hardened": 12_000}
#: schedules of the seed a simulated invocation cycles through (``sim_arrays``)
SIM_PARTS = 4

POLLING = {"poll_size": 3, "discard_slow": True}

HARDENED_RELIABILITY = {
    "deadline": 2.0,
    "hedge_quantile": 0.95,
    "breaker_threshold": 4,
    "breaker_cooldown": 0.3,
}
HARDENED_CHAOS = {
    "loss": 0.01,
    "storms": 1,
    "storm_size": 2,
    "dispatcher_storms": 1,
    "dispatcher_storm_size": 1,
    "dispatcher_storm_frac": 0.2,
}


def sim_config(name: str, seed: int) -> SimulationConfig:
    """The simulated workload ``name``; ``seed`` seeds the cluster's own
    random streams (policy choices, network, chaos schedule)."""
    common = dict(
        policy="polling",
        policy_params=dict(POLLING),
        load=0.9,
        n_servers=16,
        n_clients=6,
        n_requests=SIM_REQUESTS[name],
        seed=seed,
        engine="heap",
    )
    if name in ("paper", "observed"):
        config = SimulationConfig(workload="fine_grain", model="prototype", **common)
        if name == "observed":
            config = config.with_updates(
                telemetry={"spans": True}, verify_params={"enabled": True}
            )
        return config
    if name == "hardened":
        return SimulationConfig(
            workload="poisson_exp",
            model="simulation",
            cluster_params=autoscale_cluster_params(),
            reliability_params=dict(HARDENED_RELIABILITY),
            overload_params=overload_control_params(),
            dispatcher_params=autoscale_dispatcher_params(),
            autoscaler_params=autoscale_scaling_params(16),
            chaos_params=dict(HARDENED_CHAOS),
            **common,
        )
    raise KeyError(f"unknown simulated workload {name!r}")


def generate(workload: str, params: dict[str, Any], seed: int | list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled (gaps, services) arrays for ``n`` requests, from ``seed``."""
    return make_workload(workload, **params).generate(np.random.default_rng(seed), n)


def sim_arrays(config: SimulationConfig, seed: int, part: int) -> tuple[np.ndarray, np.ndarray]:
    """Schedule ``part`` of the simulated workload ``config`` for ``seed``."""
    return generate(config.workload, config.workload_params, [seed, part], config.n_requests)


def scale_to_load(gaps: np.ndarray, services: np.ndarray, n_servers: int, rho: float) -> np.ndarray:
    """Rescale arrival gaps so ``n_servers`` run at nominal utilization ``rho``."""
    target_interval = float(services.mean()) / (n_servers * rho)
    return gaps * (target_interval / float(gaps.mean()))


def calibrate(config: SimulationConfig) -> float:
    """The prototype model's full-load calibration (a no-op for the
    simulation model); cached per process by the program."""
    if config.model != "prototype":
        return config.load
    return full_load_rho_for(config)


def build_sim(config: SimulationConfig, gaps: np.ndarray, services: np.ndarray):
    """A ready-to-run cluster holding the benchmark's arrays.

    ``build_cluster`` assembles the cluster from a placeholder-sized
    config; the arrays are installed next, and only then the chaos,
    telemetry and oracle layers, whose schedules depend on the arrival
    horizon (the order ``build_cluster`` itself uses).
    """
    placeholder = config.with_updates(
        n_requests=10, chaos_params={}, telemetry={}, verify_params={}
    )
    cluster, rho = build_cluster(placeholder)
    cluster.load_workload(scale_to_load(gaps, services, config.n_servers, rho), services)
    if config.chaos_params:
        from repro.cluster.failures import ChaosInjector, ChaosSpec

        cluster.chaos = ChaosInjector(cluster, spec=ChaosSpec(**config.chaos_params))
    if config.telemetry:
        from repro.telemetry import TelemetryCollector

        cluster.telemetry = TelemetryCollector(cluster, **config.telemetry)
    if config.verify_params:
        from repro.verify import InvariantOracle

        oracle = InvariantOracle(cluster, **config.verify_params)
        if oracle.enabled:
            cluster.oracle = oracle
    return cluster


# ----------------------------------------------------------------------
# live loopback
# ----------------------------------------------------------------------
#: 20 ms mean service on 16 servers offers the same 400 req/s as 5 ms on
#: 4, but the modelled (slept) service is most of each response time, so
#: host wake-up delays, which other tenants of a shared host move by up
#: to 2 ms, shift the percentiles by a few percent instead of a third
LIVE = {
    "n_servers": 16,
    "n_clients": 6,
    "load": 0.5,
    "workload": "poisson_exp",
    "workload_params": {"mean_service": 0.02},
    "policy": "polling",
    "policy_params": {"poll_size": 3},
    "request_timeout": 1.0,
    "max_retries": 5,
}
#: offered rate of the live open loop: n_servers * load / mean_service
LIVE_RATE = LIVE["n_servers"] * LIVE["load"] / LIVE["workload_params"]["mean_service"]
#: wall seconds of schedule in each live run
LIVE_RUN_SECONDS = 3.0


def live_run_count(seconds: float) -> int:
    """Measured live runs in an invocation of ``seconds``: fixed by the
    argument, not by how fast the host is, so one seed and one duration
    always measure the same schedules. A warm-up run comes before them."""
    return max(3, round(seconds / LIVE_RUN_SECONDS) - 1)


@dataclass
class LiveRig:
    """One loopback deployment: servers, the drive agent, their sockets."""

    clock: WallClock
    servers: list = field(default_factory=list)
    transports: list = field(default_factory=list)
    cluster: Any = None

    def close(self) -> None:
        for server in self.servers:
            server.close()
        for transport in self.transports:
            transport.close()


def live_arrays(seed: int, part: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Schedule ``part`` of the live workload for ``seed``: each measured
    run gets its own schedule, so one invocation samples several."""
    gaps, services = generate(LIVE["workload"], LIVE["workload_params"], [seed, part], n)
    return scale_to_load(gaps, services, LIVE["n_servers"], LIVE["load"]), services


async def build_live(seed: int, gaps: np.ndarray, services: np.ndarray) -> LiveRig:
    """Bind the servers and the drive socket and load the arrays."""
    loop = asyncio.get_running_loop()
    rig = LiveRig(clock=WallClock(loop))
    try:
        for i in range(LIVE["n_servers"]):
            server = LiveServer(
                i, rig.clock, mode="sleep", poll_spin=0.0,
                rng=np.random.default_rng([seed, i]),
            )
            transport, _ = await loop.create_datagram_endpoint(
                lambda s=server: s, local_addr=("127.0.0.1", 0)
            )
            rig.servers.append(server)
            rig.transports.append(transport)
        rig.cluster = LiveCluster(
            {s.node_id: s.address for s in rig.servers},
            make_policy(LIVE["policy"], **LIVE["policy_params"]),
            rig.clock,
            seed=seed,
            n_clients=LIVE["n_clients"],
            request_timeout=LIVE["request_timeout"],
            max_retries=LIVE["max_retries"],
        )
        transport, _ = await loop.create_datagram_endpoint(
            lambda: rig.cluster, local_addr=("127.0.0.1", 0)
        )
        rig.transports.append(transport)
        rig.cluster.load_workload(gaps, services)
    except BaseException:
        rig.close()
        raise
    return rig


async def run_live(rig: LiveRig, time_limit: float):
    """Run the loaded open loop; returns (t0, metrics) where ``t0`` is the
    clock reading the arrival schedule is offset from."""

    async def drive():
        t0 = rig.clock.now
        metrics = await rig.cluster.run()
        return t0, metrics

    return await asyncio.wait_for(drive(), timeout=time_limit)
