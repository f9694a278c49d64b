"""Record the simulated digests the benchmark checks runs against.

    python3 perfbench/record_digests.py 0-19 7919

For every simulated workload and seed, runs the seed's schedules as an
invocation does and stores the pooled digest in ``digests.json`` (merged
with what is already there). Re-record only when
a change is meant to alter simulated outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent


def parse_seeds(args: list[str]) -> list[int]:
    seeds: list[int] = []
    for arg in args:
        first, _, last = arg.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main() -> int:
    seeds = parse_seeds(sys.argv[1:])
    if not seeds:
        print(__doc__)
        return 2
    worker.import_program()
    import workloads as W

    path = HERE / "digests.json"
    recorded = json.loads(path.read_text())
    for name in W.SIM_WORKLOADS:
        table = recorded.setdefault(name, {})
        for seed in seeds:
            _runs, latency = worker.sim_runs(W, W.sim_config(name, seed), seed, 0.0)
            table[str(seed)] = latency["digest"]
            print(name, seed, flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
