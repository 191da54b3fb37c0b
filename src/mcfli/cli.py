"""Command-line entry point.

Subcommands::

    mcfli trial     one reconstruction trial (prints SNR and success)
    mcfli sweep     Monte-Carlo phase-transition sweep, CSV output
    mcfli rip       empirical restricted-isometry constants
    mcfli demo      2-D imaging demo (TV reconstruction + raster scan)
    mcfli calibrate synthetic phase-shifting calibration round trip

Every subcommand takes ``--seed <u64>``.  ``--out <path>`` is taken by
``sweep``, ``rip``, ``demo`` and ``calibrate``; ``--config <json>`` by
``trial`` and ``demo`` (a solver config) and ``sweep`` (a sweep spec); and
``--threads <n>`` by ``sweep`` alone.  Each subcommand declares only the
flags it reads, and ``sweep --config`` refuses the flags that set the spec,
``--seed`` among them (a spec file gives its own ``master_seed``).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .harness import (
    SOLVERS,
    SweepSpec,
    estimate_rip_constants,
    run_calibration_roundtrip,
    run_imaging_demo,
    run_sweep,
    run_trial,
)
from .solvers import SolverConfig


_SHARED_FLAGS = {
    "--seed": dict(type=int, default=0, help="master seed"),
    "--out": dict(type=str, default=None, help="output path"),
    "--threads": dict(type=int, default=1, help="worker processes"),
    "--config": dict(type=str, default=None, help="JSON config file"),
}


# the sweep flags that set a SweepSpec field (dest -> field); a spec from
# --config sets them all, so none may be given beside it
_SPEC_FLAGS = {
    "k": "k_values",
    "m": "m_values",
    "q": "q_values",
    "vis": "vis_targets",
    "n1": "n1",
    "trials": "trials",
    "threshold": "threshold_db",
    "solver": "solver",
    "seed": "master_seed",
}
# CLI defaults of the two fields SweepSpec requires; the other flags left
# out take SweepSpec's defaults (master_seed 0, as --seed elsewhere)
_SWEEP_DEFAULTS = {"k_values": [4], "m_values": [44]}


def _add_shared(parser, *flags, **overrides):
    for flag in flags:
        parser.add_argument(flag, **{**_SHARED_FLAGS[flag], **overrides})


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cmd_trial(args):
    config = SolverConfig(**_load_json(args.config)) if args.config else None
    result = run_trial(
        args.k, args.q, args.m, args.seed, solver=args.solver, n1=args.n1,
        threshold_db=args.threshold, config=config,
    )
    print(
        f"snr_db={result.snr_db:.2f} success={result.success} "
        f"visibilities={result.visibilities} iterations={result.iterations}"
    )
    return 0


def _cmd_sweep(args, parser):
    given = [dest for dest in _SPEC_FLAGS if dest in args]
    if args.config:
        if given:
            parser.error(
                "--config sets the sweep spec; drop " + ", ".join(f"--{d}" for d in given)
            )
        data = _load_json(args.config)
        if args.out:
            data["out_path"] = args.out
        spec = SweepSpec(**data)
    else:
        fields = {_SPEC_FLAGS[dest]: getattr(args, dest) for dest in given}
        spec = SweepSpec(**{**_SWEEP_DEFAULTS, **fields}, out_path=args.out)
    result = run_sweep(spec, threads=args.threads)
    if not spec.out_path:
        sys.stdout.write(result.to_csv())
    return 0


def _cmd_rip(args):
    est = estimate_rip_constants(
        args.k, args.q, args.m, args.trials, args.seed, n1=args.n1
    )
    payload = {
        "lower": est.lower,
        "upper": est.upper,
        "envelope": est.envelope,
        "upper_ratio": est.upper_ratio,
        "visibilities": est.visibilities,
        "trials": est.trials,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_demo(args):
    out_dir = args.out or "demo_out"
    config = SolverConfig(**_load_json(args.config)) if args.config else None
    report = run_imaging_demo(
        out_dir=out_dir,
        scene_path=args.scene,
        n1=args.n1,
        q=args.q,
        m_values=args.m,
        compare_q=args.compare_q,
        seed=args.seed,
        config=config,
    )
    for entry in report.entries:
        print(
            f"q={entry.q} m={entry.m} rho={entry.rho:.3e} "
            f"snr_db={entry.snr_db:.2f} iterations={entry.iterations}"
        )
    if report.rs_snr_db is not None:
        print(f"rs_mode snr_db={report.rs_snr_db:.2f}")
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_calibrate(args):
    perturbation = None
    if args.perturbation:
        perturbation = (args.perturbation, args.delta)
    report = run_calibration_roundtrip(
        n1=args.n1,
        q=args.q,
        noise_sigma=args.noise,
        n_test_sketches=args.sketches,
        perturbation=perturbation,
        seed=args.seed,
        out_dir=args.out,
    )
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcfli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trial", help="single reconstruction trial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n1", type=int, default=256)
    p.add_argument("--solver", choices=SOLVERS, default="lasso")
    p.add_argument("--threshold", type=float, default=40.0)
    _add_shared(p, "--seed", "--config")
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("sweep", help="phase-transition sweep")
    spec = p.add_argument_group(
        "sweep spec", "not with --config", argument_default=argparse.SUPPRESS
    )
    spec.add_argument("--k", type=int, nargs="+", help="sparsity levels (default: 4)")
    spec.add_argument("--m", type=int, nargs="+", help="measurement counts (default: 44)")
    spec.add_argument("--q", type=int, nargs="+", help="core counts")
    spec.add_argument("--vis", type=int, nargs="+",
                      help="target distinct-visibility counts (instead of --q)")
    spec.add_argument("--n1", type=int, help="grid size (default: 256)")
    spec.add_argument("--trials", type=int, help="trials per cell (default: 80)")
    spec.add_argument("--threshold", type=float, help="success SNR in dB (default: 40)")
    spec.add_argument("--solver", choices=SOLVERS, help="recovery program (default: lasso)")
    _add_shared(spec, "--seed", default=argparse.SUPPRESS)
    _add_shared(p, "--out", "--threads", "--config")
    p.set_defaults(func=partial(_cmd_sweep, parser=p))

    p = sub.add_parser("rip", help="empirical restricted-isometry constants")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--q", type=int, default=16)
    p.add_argument("--m", type=int, default=122)
    p.add_argument("--n1", type=int, default=256)
    p.add_argument("--trials", type=int, default=200)
    _add_shared(p, "--seed", "--out")
    p.set_defaults(func=_cmd_rip)

    p = sub.add_parser("demo", help="2-D imaging demo")
    p.add_argument("--scene", type=str, default=None, help="scene JSON file")
    p.add_argument("--n1", type=int, default=64)
    p.add_argument("--q", type=int, default=110)
    p.add_argument("--m", type=int, nargs="+", default=[3000])
    p.add_argument("--compare-q", type=int, nargs="+", default=None)
    _add_shared(p, "--seed", "--out", "--config")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("calibrate", help="synthetic calibration round trip")
    p.add_argument("--n1", type=int, default=32)
    p.add_argument("--q", type=int, default=12)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--sketches", type=int, default=20)
    p.add_argument("--perturbation", choices=("amplitude-ripple", "phase-aberration"),
                   default=None)
    p.add_argument("--delta", type=float, default=0.05)
    _add_shared(p, "--seed", "--out")
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
