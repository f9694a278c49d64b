"""One fresh benchmark process: set up a workload, then measure or trace it.

Run by ``run.py`` (never imported by it). Prints one JSON object as its
last stdout line. Roles:

- ``setup``: set up and stop (a set-up time sample);
- ``measure``: set up, then run the workload untraced for ``--seconds``;
- ``trace``: set up, one untraced run, then the same run traced.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

from reference import reference_seconds  # noqa: E402

#: the reference kernel's time as set-up begins, and the seconds spent
#: on it (``mark_ready`` times it again once set-up is done)
REF_BEFORE = reference_seconds()
REF_PAUSE = time.monotonic() - STARTED

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from helpers import due_time_latency, tail_percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: policy attributes exported as counters (``SimulationResult.policy_counters``)
POLICY_COUNTERS = (
    "polls_sent", "replies_received", "replies_discarded", "timeouts_fired",
    "broadcasts_sent", "queries_served", "refreshes",
)


def mark_ready(report: dict) -> None:
    """Set-up is done: note when, then time the reference kernel again, so
    that ``run.py`` can scale the set-up time by the host's speed around it."""
    report["ready"] = time.monotonic()
    report["ref_pause_s"] = REF_PAUSE
    report["setup_ref_s"] = (REF_BEFORE + reference_seconds()) / 2


def import_program() -> float:
    """Import the program from the checkout's ``src``; returns seconds."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"program source not found under {src}")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - started


def outcome_failures(metrics, offered: int) -> tuple[list[str], int]:
    """Conservation: every offered request ended exactly once, completed
    (finite response time) or failed (no response time). Returns the
    failures and the number of requests that broke the rule."""
    finished = np.isfinite(metrics.response_time)
    bad = int((finished == metrics.failed).sum())
    failures = []
    if metrics.n != offered:
        failures.append(f"conservation: metrics hold {metrics.n} requests, {offered} offered")
    if bad:
        failures.append(f"conservation: {bad} requests did not end exactly once")
    return failures, bad


# ----------------------------------------------------------------------
# simulated workloads
# ----------------------------------------------------------------------
def sim_digest(cluster, metrics) -> dict:
    """The fields two runs of one seed must agree on exactly."""
    summary = metrics.summary(0.1)
    digest = {
        "sim_p50_ms": summary["p50_response_time"] * 1e3,
        "sim_p99_ms": summary["p99_response_time"] * 1e3,
        "n_failed": summary["n_failed"],
        "events_executed": cluster.sim.events_executed,
    }
    for kind, count in cluster.network.message_counts.items():
        digest[f"message_counts.{kind.value}"] = count
    for name in POLICY_COUNTERS:
        if hasattr(cluster.policy, name):
            digest[f"policy_counters.{name}"] = int(getattr(cluster.policy, name))
    return digest


def sim_counts(cluster, metrics) -> dict:
    """Exact per-layer counts read from the cluster after a run."""
    offered = metrics.n
    window = metrics.measurement_slice(0.1)
    sent = sum(cluster.network.message_counts.values())
    dropped = sum(cluster.network.dropped_counts.values())
    policy = cluster.policy
    polls = getattr(policy, "polls_sent", 0)
    counts = {
        "offered": offered,
        "events": cluster.sim.events_executed,
        "messages": sent,
        "messages_by_kind": {k.value: v for k, v in sorted(cluster.network.message_counts.items())},
        "dropped_by_kind": {k.value: v for k, v in sorted(cluster.network.dropped_counts.items())},
        "drop_frac": dropped / sent if sent else 0.0,
        "fail_frac": int(metrics.failed.sum()) / offered,
        "attempts_per_req": float(offered + int(metrics.retries.sum())) / offered,
        "queue_wait_p50_ms": float(np.median(metrics.queue_wait[window])) * 1e3,
        "polls_per_req": polls / offered,
        "poll_discard_frac": getattr(policy, "replies_discarded", 0) / polls if polls else 0.0,
        "poll_ms": float(np.mean(metrics.poll_time[window])) * 1e3,
        "hedge_win_frac": 0.0,
        "breaker_opens": 0,
        "shed_frac": 0.0,
        "failovers_per_req": 0.0,
        "mean_active": 0.0,
        "spans_per_req": 0.0,
        "scans_per_req": 0.0,
    }
    if cluster.reliability is not None:
        rel = cluster.reliability.counters()
        launched = rel.get("hedges_launched", 0.0)
        counts["hedge_win_frac"] = rel.get("hedge_wins", 0.0) / launched if launched else 0.0
        counts["breaker_opens"] = int(rel.get("breaker_opens", 0))
    if cluster.overload is not None:
        counts["shed_frac"] = cluster.overload_counters().get("requests_shed", 0.0) / offered
    if cluster.dispatchers is not None:
        counts["failovers_per_req"] = cluster.dispatchers.counters().get("dispatcher_failovers", 0.0) / offered
    if cluster.autoscaler is not None:
        counts["mean_active"] = cluster.autoscaler.counters().get("autoscale_mean_active", 0.0)
    if cluster.telemetry is not None:
        counts["spans_per_req"] = cluster.telemetry.summary()["n_spans"] / offered
    if cluster.oracle is not None:
        counts["scans_per_req"] = cluster.oracle.scans_run / offered
    return counts


def sim_rep(cluster) -> tuple[dict, np.ndarray]:
    """Run one built cluster, untraced; its timing, digest and checks, and
    the response times (ms) of its measured window."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    metrics = cluster.run()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    offered = cluster.n_requests
    failures, bad = outcome_failures(metrics, offered)
    if cluster.oracle is not None and cluster.oracle.scans_run == 0:
        failures.append("oracle: enabled but ran no scans")
    window = metrics.measurement_slice(0.1)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "offered": offered,
        "bad_requests": bad,
        "failures": failures,
        "digest": sim_digest(cluster, metrics),
        "counts": sim_counts(cluster, metrics),
    }, metrics.response_time[window] * 1e3


def sim_runs(W, config, seed: int, seconds: float, first=None) -> tuple[list[dict], dict]:
    """Run the ``W.SIM_PARTS`` schedules of ``seed`` in turn, each on a
    freshly built cluster, and keep cycling through them until ``seconds``
    have passed, so every schedule runs once and schedule 0 at least twice.
    ``first`` is schedule 0's ``(gaps, services, cluster)`` when set-up
    already built it.

    Each run records its ``part`` and ``ref_s``, the mean of the reference
    kernel timings just before and after it. Returns the runs and the
    latency run: the percentiles over the measured windows of the first
    run of every schedule, and a digest adding up their counts. One
    schedule's tail rests on a few bursts; pooling several makes the seed
    matter less.
    """
    arrays, cluster = {}, None
    if first is not None:
        arrays[0], cluster = first[:2], first[2]
    refs = [reference_seconds()]
    runs, latencies = [], []
    started = time.perf_counter()
    while len(runs) <= W.SIM_PARTS or time.perf_counter() - started < seconds:
        part = len(runs) % W.SIM_PARTS
        if cluster is None:
            if part not in arrays:
                arrays[part] = W.sim_arrays(config, seed, part)
            cluster = W.build_sim(config, *arrays[part])
        gc.collect()
        rep, latency = sim_rep(cluster)
        cluster = None
        refs.append(reference_seconds())
        rep.update(part=part, ref_s=(refs[-2] + refs[-1]) / 2)
        runs.append(rep)
        if len(runs) <= W.SIM_PARTS:
            latencies.append(latency)
    summary = latency_summary(np.concatenate(latencies))
    pooled = runs[:W.SIM_PARTS]
    names = sorted({name for rep in pooled for name in rep["digest"]})
    digest = {name: sum(rep["digest"].get(name, 0) for rep in pooled) for name in names}
    digest["sim_p50_ms"], digest["sim_p99_ms"] = summary["p50_ms"], summary["p99_ms"]
    return runs, {"digest": digest, **summary}


def run_sim(args, report: dict) -> None:
    import workloads as W

    config = W.sim_config(args.workload, args.seed)
    started = time.perf_counter()
    gaps, services = W.sim_arrays(config, args.seed, 0)
    report["generate_s"] = time.perf_counter() - started
    started = time.perf_counter()
    W.calibrate(config)
    report["calibrate_s"] = time.perf_counter() - started if config.model == "prototype" else 0.0
    cluster = W.build_sim(config, gaps, services)
    mark_ready(report)
    if args.role == "setup":
        return
    if args.role == "trace":
        gc.collect()
        report["latency_run"] = sim_rep(cluster)[0]
        del cluster
        report["traced"] = trace_sim(config, gaps, services, W)
        return
    report["runs"], report["latency_run"] = sim_runs(
        W, config, args.seed, args.seconds, first=(gaps, services, cluster)
    )


def trace_sim(config, gaps, services, W) -> dict:
    from repro.cluster.request import Request
    from repro.net.message import Message
    from tracer import Tracer
    import instrument

    tracer = Tracer(Request, Message)
    tracer.calibrate()
    try:
        instrument.install_sim(tracer, config)
        cluster = W.build_sim(config, gaps, services)
        tracer.clear()
        wall0 = time.perf_counter()
        metrics = cluster.run()
        wall = time.perf_counter() - wall0
    finally:
        tracer.uninstall()
    failures, _bad = outcome_failures(metrics, cluster.n_requests)
    return trace_report(tracer, wall, cluster.n_requests, failures, {
        "digest": sim_digest(cluster, metrics),
        "counts": sim_counts(cluster, metrics),
        "lookups": tracer.calls.get("ServiceMappingTable.available", 0),
    })


def trace_report(tracer, host_s: float, offered: int, failures: list, extra: dict) -> dict:
    """Per-layer self times of a traced run; ``host_s`` is its host time
    (wall for simulated workloads, process CPU for live)."""
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(str(OUT_DIR / "spans.npz"))
    return {
        "host_s": host_s,
        "offered": offered,
        "failures": failures,
        "n_spans": len(tracer.start),
        "span_cost_us": [1e6 * tracer.per_child, 1e6 * tracer.per_span],
        "self_s": tracer.self_seconds(),
        **extra,
    }


# ----------------------------------------------------------------------
# live workload
# ----------------------------------------------------------------------
def live_rep(rig, gaps, t0: float, metrics, wall: float, cpu: float) -> dict:
    offered = rig.cluster.n_requests
    failures, bad = outcome_failures(metrics, offered)
    latency, lateness = due_time_latency(t0, gaps, metrics.arrival_time, metrics.response_time)
    window = metrics.measurement_slice(0.1)
    failed = int(metrics.failed.sum())
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "offered": offered,
        "bad_requests": bad,
        "failures": failures,
        "latency_ms": latency[window] * 1e3,
        "counts": {
            "offered": offered,
            "failed": failed,
            "fail_frac": failed / offered,
            "late_p99_ms": float(np.percentile(lateness[np.isfinite(lateness)], 99)) * 1e3,
            "loop_busy_frac": cpu / wall,
            "poll_ms": float(np.mean(metrics.poll_time[window])) * 1e3,
            "attempts_per_req": float(offered + int(metrics.retries.sum())) / offered,
            "messages_by_kind": {k.value: v for k, v in sorted(rig.cluster.network.message_counts.items())},
        },
    }


async def live_once(seed: int, gaps, services, tracer=None) -> dict:
    """Bind a fresh deployment, run the open loop once, close it."""
    import workloads as W

    rig = await W.build_live(seed, gaps, services)
    try:
        if tracer is not None:
            tracer.clear()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        t0, metrics = await W.run_live(rig, time_limit=3 * W.LIVE_RUN_SECONDS + 30.0)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        rig.close()
    return live_rep(rig, gaps, t0, metrics, wall, cpu)


def latency_summary(latency_ms: np.ndarray) -> dict:
    """p50, p99 and the highest supported percentile of a latency sample."""
    n = int(latency_ms.size)
    tail = tail_percentile(n)
    p50, p99, top = np.percentile(latency_ms, [50, 99, tail]) if n else (math.nan,) * 3
    return {"n_measured": n, "p50_ms": float(p50), "p99_ms": float(p99), "tail_pct": tail, "tail_ms": float(top)}


async def run_live(args, report: dict) -> None:
    import workloads as W

    n = round(W.LIVE_RATE * W.LIVE_RUN_SECONDS)
    started = time.perf_counter()
    gaps, services = W.live_arrays(args.seed, 0, n)
    report["generate_s"] = time.perf_counter() - started
    report["calibrate_s"] = 0.0
    rig = await W.build_live(args.seed, gaps, services)
    mark_ready(report)
    rig.close()
    if args.role == "setup":
        return
    if args.role == "trace":
        plain = await live_once(args.seed, gaps, services)
        from tracer import Tracer
        import instrument

        from repro.cluster.request import Request

        tracer = Tracer(Request)
        tracer.calibrate()
        try:
            instrument.install_live(tracer)
            traced = await live_once(args.seed, gaps, services, tracer)
        finally:
            tracer.uninstall()
        plain.pop("latency_ms")
        report["latency_run"] = plain
        report["traced"] = trace_report(tracer, traced["cpu_s"], n, traced["failures"], {
            "counts": traced["counts"],
            "encodes": tracer.calls.get("encode_message", 0),
        })
        return

    # The live loop is mostly idle over its schedule, so a reference
    # timing next to a run does not sample the host conditions the run
    # saw; live throughput is reported from raw CPU time instead.
    await live_once(args.seed, gaps, services)  # warm-up, not measured
    runs = []
    for part in range(W.live_run_count(args.seconds)):
        if part:
            gaps, services = W.live_arrays(args.seed, part, n)
        runs.append(await live_once(args.seed, gaps, services))
    # Each run has its own schedule; the percentiles are taken over the
    # measured windows of all runs, so they sample several schedules of
    # the seed rather than one.
    latency = latency_summary(np.concatenate([r.pop("latency_ms") for r in runs]))
    report["runs"] = runs
    report["latency_run"] = latency


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    report = {"started": STARTED, "import_s": import_program()}
    import scipy

    report["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    import workloads as W

    if args.workload not in W.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {W.WORKLOADS}")
    if args.workload == "live":
        asyncio.run(run_live(args, report))
    else:
        run_sim(args, report)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
