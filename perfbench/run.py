"""Run one workload of the mcfli benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_sweep_lasso --seed 1 --seconds 30 --trace 0

Workloads: mc_sweep_lasso, mc_sweep_bpdn, demo_2d_tv, matfree_2d_tv.  The
program is imported from ``src/`` of the checkout that holds this file.  The
report lines come first; the last line is one JSON object with the
correctness counts and the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _print_report(bench, result: dict, env: dict, trace: bool):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    print("env " + json.dumps(env))
    print(f"{'metric':<40}{'value':>16}  {'unit':<6}{'samples':>8}")
    for name, unit in bench.END_TO_END:
        value, n = result["end_to_end"][name]
        print(f"{name:<40}{value:>16.6g}  {unit:<6}{n:>8}")
    tail = bench.tail_percentile(result["end_to_end"]["trial_p90_ms"][1])
    if tail is None or tail < 90:
        print("note: trial_p90_ms has fewer than 10 samples beyond it in this run; "
              "it is the Harrell-Davis p90 of the few operations run")
    for row in result.get("cells", []):
        print("cell " + json.dumps(row))
    if "p90_position" in result:
        print("p90 " + json.dumps(result["p90_position"]))
    if trace:
        print(f"{'span':<34}{'calls':>10}{'inclusive_s':>14}{'self_s':>12}")
        for name, (calls, inclusive, own) in result["spans"].items():
            print(f"{name:<34}{calls:>10}{inclusive:>14.6f}{own:>12.6f}")
        units = dict(bench.PER_LAYER)
        for name, value in result["per_layer"].items():
            print(f"{name:<40}{value:>16.6g}  {units[name]}")
    for line in result["problems"][:20]:
        print("FAILED " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "mcfli" / "__init__.py").is_file():
        print(f"error: no mcfli package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import bench

    mcfli = bench.import_mcfli()
    if not Path(mcfli.harness.__file__).resolve().is_relative_to(SRC):
        print(f"error: mcfli imported from {mcfli.harness.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workloads = bench.workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed

    result = bench.run(wl, seed, args.seconds, bool(args.trace), mcfli)
    _print_report(bench, result, bench.environment(), bool(args.trace))
    print(bench.summary_line(result, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
