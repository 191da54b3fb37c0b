"""Record the benchmark's baseline: run-to-run spreads and one traced run.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 \
        --out perfbench/results/baseline.json

For every workload, each seed is run untraced through ``run.py`` in a
fresh process, and each end-to-end metric's median and quartile spread (distance between the first and third quartile as a share
of the median) is recorded.  Then one traced run at the workload's
acceptance seed records the per-layer metrics, the span table and, for the
sweeps, each cell's successes and cap-hit share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "iqr_share": (q3 - q1) / median if median else 0.0,
            "values": values}


def untraced_runs(name: str, seeds: list[int], seconds: int) -> list[dict]:
    runs = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        runs.append({"seed": seed, **json.loads(out.stdout.strip().splitlines()[-1])})
        print(name, seed, json.dumps(runs[-1]), flush=True)
    return runs


def traced_run(name: str, seconds: int) -> dict:
    """The full result of one traced run at the acceptance seed, made in a
    fresh process so that its peak memory is its own."""
    out = subprocess.run(
        [sys.executable, __file__, "--traced", name, "--seconds", str(seconds)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", help="comma-separated run seeds")
    parser.add_argument("--out")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--traced", help=argparse.SUPPRESS)
    parser.add_argument("--seconds", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import bench

    if args.traced:
        wl = bench.workloads()[args.traced]
        print(json.dumps(bench.run(wl, wl.default_seed, args.seconds, True)))
        return 0
    if not (args.seeds and args.out):
        parser.error("--seeds and --out are required")
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    names = args.workloads.split(",") if args.workloads else list(bench.workloads())
    record = {"env": bench.environment(), "run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = untraced_runs(name, seeds, seconds)
        metrics = {
            m: spread([r["metrics"][m]["value"] for r in runs]) for m, _ in bench.END_TO_END
        }
        record["workloads"][name] = {
            "runs": runs, "spread": metrics, "traced_run": traced_run(name, seconds),
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
