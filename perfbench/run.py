"""Benchmark entry point: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics
(one measuring process plus two set-up-only processes, one at a time);
``--trace 1`` prints the per-layer metrics from one traced process. The
last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is nonzero when any output
check fails. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from helpers import digest_mismatches
from reference import REFERENCE_RATE
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a seed kept out of every tuning run, for confirming a claimed gain
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 3
#: every worker process must have ended this many seconds after start
TIME_LIMIT = 170.0
DEADLINE = time.monotonic() + TIME_LIMIT


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def spawn_worker(workload: str, seed: int, seconds: float, role: str) -> tuple[dict, float]:
    """Run one fresh worker process; returns its report and the seconds
    from spawn until it was ready to run the workload."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--role", role,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker for {workload!r} exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["ready"] - spawned


def setup_seconds(report: dict, raw: float) -> float:
    """A worker's set-up time at reference host speed: its ``raw`` seconds
    from spawn to ready, less the reference timing made inside them,
    scaled by the mean of the reference timings before and after set-up."""
    return (raw - report["ref_pause_s"]) / (REFERENCE_RATE * report["setup_ref_s"])


def git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def recorded_digests(workload: str, seed: int) -> dict | None:
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def determinism_failures(workload: str, seed: int, pooled: dict, runs: list[dict]) -> tuple[list[str], str]:
    """Every run's digest equals that of the first run of its schedule, and
    the pooled digest equals the one recorded for this seed (when one is)."""
    failures = []
    first: dict[int, tuple[int, dict]] = {}
    for i, run in enumerate(runs, start=1):
        j, digest = first.setdefault(run["part"], (i, run["digest"]))
        for name in digest_mismatches(digest, run["digest"]):
            failures.append(f"determinism: run {i} differs from run {j} (schedule {run['part']}) in {name}")
    recorded = recorded_digests(workload, seed)
    if recorded is None:
        return failures, f"no digest recorded for seed {seed}; repeated schedules compared with each other"
    for name in digest_mismatches(recorded, pooled):
        failures.append(f"determinism: {name} = {pooled.get(name)!r}, recorded {recorded.get(name)!r}")
    return failures, "repeated schedules agree and the pooled digest matches the one recorded for this seed"


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list, list, int, int]:
    samples = [spawn_worker(workload, seed, seconds, "measure")]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(spawn_worker(workload, seed, seconds, "setup"))
    measured = samples[0][0]
    setups = [setup_seconds(report, raw) for report, raw in samples]
    latency = measured["latency_run"]
    runs = measured["runs"]
    failures = [f for run in runs for f in run["failures"]]
    attempted = sum(run["offered"] for run in runs)
    bad = sum(run["bad_requests"] for run in runs)
    notes = [
        "setup samples (s): raw " + ", ".join(f"{raw:.3f}" for _, raw in samples)
        + "; at reference speed " + ", ".join(f"{s:.3f}" for s in setups)
    ]
    if workload == "live":
        rates = [run["offered"] / run["cpu_s"] for run in runs]
        notes.append(f"{len(runs)} runs of {runs[0]['offered']} requests; req per cpu-s: "
                     + ", ".join(f"{r:.0f}" for r in rates))
    else:
        raw = [run["offered"] / run["wall_s"] for run in runs]
        rates = [rate * run["ref_s"] * REFERENCE_RATE for rate, run in zip(raw, runs)]
        notes.append(f"{len(runs)} runs of {runs[0]['offered']} requests over schedules "
                     + ",".join(str(run["part"]) for run in runs) + "; req/s raw: "
                     + ", ".join(f"{r:.0f}" for r in raw))
        notes.append("req/s at reference speed: " + ", ".join(f"{r:.0f}" for r in rates))
        det, note = determinism_failures(workload, seed, latency["digest"], runs)
        failures += det
        notes.append("digest: " + (note if not det else "MISMATCH"))
    notes.append(
        f"latency: {latency['n_measured']} measured requests; highest percentile with "
        f">=10 samples beyond it: p{latency['tail_pct']:g} = {latency['tail_ms']:.3f} ms"
    )
    notes.append("setup parts (s): " + json.dumps(
        {k: round(measured[k], 4) for k in ("import_s", "generate_s", "calibrate_s")}
    ))
    notes.append("versions: " + json.dumps(measured["versions"]))
    metrics = {
        "req_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "p50_ms": latency["p50_ms"],
        "p99_ms": latency["p99_ms"],
    }
    return (
        {name: {"value": metrics[name], "unit": unit} for name, unit in metric_units("end_to_end").items()},
        failures, notes, attempted, bad,
    )


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list, list, int, int]:
    report, _ = spawn_worker(workload, seed, seconds, "trace")
    plain = report["latency_run"]
    traced = report["traced"]
    failures = list(plain["failures"]) + list(traced["failures"])
    offered = traced["offered"]
    counts = traced["counts"]
    values = {
        f"{layer}.self_us_per_req": 1e6 * traced["self_s"].get(layer, 0.0) / offered
        for layer in LAYERS if layer != "live.wire"
    }
    live = workload == "live"
    values.update({
        "repro.import_s": report["import_s"],
        "workload.generate_s": report["generate_s"],
        "prototype.calibrate_s": report["calibrate_s"],
    })
    if live:
        encodes = traced["encodes"]
        overhead = traced["host_s"] / plain["cpu_s"]
        values.update({
            "live.wire.self_us_per_msg": 1e6 * traced["self_s"].get("live.wire", 0.0) / encodes if encodes else 0.0,
            "live.client.late_p99_ms": plain["counts"]["late_p99_ms"],
            "live.loop_busy_frac": plain["counts"]["loop_busy_frac"],
            "live.poll_ms": plain["counts"]["poll_ms"],
            "live.attempts_per_req": plain["counts"]["attempts_per_req"],
        })
        notes = [f"messages by kind (client socket): {counts['messages_by_kind']}"]
    else:
        overhead = traced["host_s"] / plain["wall_s"]
        mismatched = digest_mismatches(plain["digest"], traced["digest"])
        failures += [f"traced run: {name} differs from the untraced run" for name in mismatched]
        values.update({
            "sim.events_per_req": counts["events"] / offered,
            "sim.events_per_s": plain["counts"]["events"] / plain["wall_s"],
            "net.msgs_per_req": counts["messages"] / offered,
            "net.faults.drop_frac": counts["drop_frac"],
            "cluster.system.attempts_per_req": counts["attempts_per_req"],
            "cluster.server.queue_wait_p50_ms": counts["queue_wait_p50_ms"],
            "core.polls_per_req": counts["polls_per_req"],
            "core.poll_discard_frac": counts["poll_discard_frac"],
            "core.poll_ms": counts["poll_ms"],
            "cluster.availability.lookups_per_req": traced["lookups"] / offered,
            "cluster.reliability.hedge_win_frac": counts["hedge_win_frac"],
            "cluster.reliability.breaker_opens": counts["breaker_opens"],
            "cluster.overload.shed_frac": counts["shed_frac"],
            "cluster.dispatcher.failovers_per_req": counts["failovers_per_req"],
            "cluster.autoscaler.mean_active": counts["mean_active"],
            "telemetry.spans_per_req": counts["spans_per_req"],
            "verify.scans_per_req": counts["scans_per_req"],
        })
        notes = [
            "messages by kind: " + json.dumps(counts["messages_by_kind"]),
            "dropped by kind: " + json.dumps(counts["dropped_by_kind"]),
            "traced digest equals untraced" if not mismatched else "traced digest DIFFERS",
        ]
    values["fail_frac"] = counts["fail_frac"]
    values["trace.overhead_x"] = overhead
    notes.append(
        f"tracing overhead: {overhead:.2f}x ({traced['n_spans']} spans; tracer cost per span, "
        f"removed from self times: {traced['span_cost_us'][0]:.3f} us in the parent, "
        f"{traced['span_cost_us'][1]:.3f} us inside)"
    )
    notes.append("self us/req: " + ", ".join(
        f"{name}={1e6 * s / offered:.2f}" for name, s in sorted(traced["self_s"].items()) if s
    ))
    return (
        {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in metric_units("per_layer").items()},
        failures, notes, plain["offered"] + offered, plain["bad_requests"],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in benchmark_spec()["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    run = per_layer if args.trace else end_to_end
    try:
        metrics, failures, notes, attempted, bad = run(args.workload, args.seed, args.seconds)
    except (RuntimeError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "commit": git_commit(),
    }
    for line in notes:
        print(line)
    print("context: " + json.dumps(context))
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:14.6g} {entry['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(bad),
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, context=context, notes=notes, failures=failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
