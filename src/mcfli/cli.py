"""Command-line entry point.

Subcommands::

    mcfli trial     one reconstruction trial (prints SNR and success)
    mcfli sweep     Monte-Carlo phase-transition sweep, CSV output
    mcfli rip       empirical restricted-isometry extremes (JSON of RipEstimate)
    mcfli demo      2-D imaging demo (TV reconstruction + raster scan)
    mcfli calibrate synthetic phase-shifting calibration round trip

Every subcommand takes ``--seed <u64>``.  ``--out <path>`` is taken by
``sweep``, ``rip``, ``demo`` and ``calibrate`` (``sweep`` and ``rip`` write
to stdout without it); ``--config <json>`` (a solver config) by ``trial``
and ``demo``; and ``--threads <n>`` by ``sweep`` alone.  Each subcommand
declares only the flags it reads, and a flag that another one would make
moot is refused beside it: ``sweep`` takes exactly one of ``--q`` and
``--vis``, ``demo`` one of ``--scene`` and ``--n1``, and ``calibrate`` at
most one of ``--amplitude-ripple`` and ``--phase-aberration``.  A ``sweep``
value that ``SweepSpec`` rejects is a usage error too, before any trial runs
(among them a ``--vis`` target below 1 or above the ``--n1 - 1`` distinct
visibilities that the whole comb reaches, and a ``--q`` above the ``--n1 + 1``
positions of the comb), and so are a ``--seed`` below 0, a ``trial``,
``rip`` or ``demo`` core count below 2 (one core has no core pairs), another
count below 1 (``--k`` sparsity levels, ``calibrate`` cores, measurements,
sketches, ``sweep`` worker processes), an ``--n1`` that no grid takes (odd
or below 2) or, for ``demo``, that the bar target does not fill (not a
multiple of 64), a ``trial`` or ``rip`` ``--k`` above ``--n1`` or ``--q``
above ``--n1 + 1``, a ``trial`` success threshold that is not above 0 dB
(NaN among them), fewer than 100 ``rip`` probe vectors, a negative
``calibrate --noise``, a ``calibrate`` perturbation depth that is not finite,
a ``--config`` file that cannot be read, is not JSON or holds fields that
``SolverConfig`` refuses (a ``true`` among them), and a ``demo --scene``
file that cannot be read, is not one ``.npy`` array (JSON, a pickle or an
``.npz`` archive) or does not hold a square, real, finite 2-D image whose
side a grid takes, before ``--out`` makes a directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from .grid import make_grid
from .harness import (
    DEFAULT_N1,
    DEFAULT_THRESHOLD_DB,
    DEFAULT_TRIALS,
    SOLVERS,
    SweepSpec,
    estimate_rip_constants,
    run_calibration_roundtrip,
    run_imaging_demo,
    run_sweep,
    run_trial,
)
from .scene import SceneImage, bar_target_scene
from .solvers import SolverConfig


def _at_least(low, cast):
    """An argparse ``type`` that casts a flag value and refuses one below
    ``low`` (or NaN); an uncastable value keeps argparse's ``invalid <cast>
    value`` message."""
    def parse(text):
        value = cast(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = cast.__name__
    return parse


_count = _at_least(1, int)  # sparsity, core, measurement, sketch and worker counts
_cores = _at_least(2, int)  # core counts: one core has no core pairs


def _threshold(text):
    """An argparse ``type`` for ``trial --threshold``: a success SNR above
    0 dB (NaN refused), as ``SweepSpec`` requires of ``sweep``."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


_threshold.__name__ = "float"


def _finite(text):
    """An argparse ``type`` for the ``calibrate`` perturbation depths: a
    finite float (NaN and inf refused)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


_finite.__name__ = "float"


def _checked_int(check):
    """An argparse ``type`` that casts a flag value to int and refuses one
    on which ``check`` raises ``ValueError``, with its message."""
    def parse(text):
        value = int(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = "int"
    return parse


# --n1: an int that make_grid accepts (even and at least 2) and, for the
# demo, whose 2-D grid the bar target fills (a multiple of 64)
_grid_size = _checked_int(lambda n1: make_grid(1, n1, 1.0))
_bar_grid_size = _checked_int(lambda n1: bar_target_scene(make_grid(2, n1, 1.0)))


def _solver_config(path):
    """An argparse ``type`` for ``--config``: the :class:`SolverConfig` of a
    JSON object of its fields."""
    try:
        with open(path) as fh:
            return SolverConfig(**json.load(fh))
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"can't read {path!r}: {exc.strerror}") from None
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path!r}: {exc}") from None


def _scene(path):
    """An argparse ``type`` for ``demo --scene``: the :class:`SceneImage` of
    a ``.npy`` file holding one square, real, finite 2-D image, on the 2-D
    grid of its side."""
    try:
        image = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"can't read {path!r}: {exc.strerror}") from None
    except (ValueError, EOFError):  # JSON, a pickle or a truncated array
        raise argparse.ArgumentTypeError(f"{path!r} is not a .npy array") from None
    if not isinstance(image, np.ndarray):  # an .npz archive
        image.close()
        raise argparse.ArgumentTypeError(f"{path!r} is not a .npy array")
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise argparse.ArgumentTypeError(
            f"{path!r}: need a square 2-D image, got shape {image.shape}"
        )
    if image.dtype.kind not in "biuf":
        raise argparse.ArgumentTypeError(f"{path!r}: need a real image, got {image.dtype}")
    if not np.isfinite(image).all():
        raise argparse.ArgumentTypeError(f"{path!r}: the image holds NaN or inf")
    try:
        grid = make_grid(2, image.shape[0], 1.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{path!r}: {exc}") from None
    return SceneImage(grid=grid, values=image.astype(np.float64))


_SHARED_FLAGS = {
    "--seed": dict(type=_at_least(0, int), default=0, help="master seed"),
    "--out": dict(type=str, default=None, help="output path"),
    "--threads": dict(type=_count, default=1, help="worker processes"),
    "--config": dict(type=_solver_config, default=None, help="JSON solver config file"),
}


def _add_shared(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _write(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_sizes(args, parser):
    """Refuse a sparsity level above the grid size, or more cores than the
    comb's ``n1 + 1`` positions, as a usage error."""
    if args.k > args.n1:
        parser.error(f"k={args.k} exceeds the grid size {args.n1}")
    if args.q > args.n1 + 1:
        parser.error(f"q={args.q} exceeds the {args.n1 + 1} distinct grid positions")


def _cmd_trial(args, parser):
    _check_sizes(args, parser)
    result = run_trial(
        args.k, args.q, args.m, args.seed, solver=args.solver, n1=args.n1,
        threshold_db=args.threshold, config=args.config,
    )
    print(
        f"snr_db={result.snr_db:.2f} success={result.success} "
        f"visibilities={result.visibilities} iterations={result.iterations}"
    )
    return 0


def _cmd_sweep(args, parser):
    try:
        spec = SweepSpec(
            k_values=args.k,
            m_values=args.m,
            q_values=args.q or [],
            vis_targets=args.vis or [],
            trials=args.trials,
            threshold_db=args.threshold,
            master_seed=args.seed,
            solver=args.solver,
            n1=args.n1,
        )
    except ValueError as exc:
        parser.error(str(exc))
    _write(run_sweep(spec, threads=args.threads).to_csv(), args.out)
    return 0


def _cmd_rip(args, parser):
    _check_sizes(args, parser)
    est = estimate_rip_constants(
        args.k, args.q, args.m, args.trials, args.seed, n1=args.n1
    )
    _write(json.dumps(asdict(est), indent=2) + "\n", args.out)
    return 0


def _cmd_demo(args):
    out_dir = args.out or "demo_out"
    report = run_imaging_demo(
        out_dir=out_dir,
        scene=args.scene,
        n1=args.n1,
        q=args.q,
        m_values=args.m,
        compare_q=args.compare_q,
        seed=args.seed,
        config=args.config,
    )
    for entry in report.entries:
        print(
            f"q={entry.q} m={entry.m} rho={entry.rho:.3e} "
            f"snr_db={entry.snr_db:.2f} iterations={entry.iterations} "
            f"converged={entry.converged}"
        )
    if report.rs_snr_db is not None:
        print(f"rs_mode snr_db={report.rs_snr_db:.2f}")
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_calibrate(args):
    perturbation = None
    if args.amplitude_ripple is not None:
        perturbation = ("amplitude-ripple", args.amplitude_ripple)
    elif args.phase_aberration is not None:
        perturbation = ("phase-aberration", args.phase_aberration)
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
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--q", type=_cores, required=True)
    p.add_argument("--m", type=_count, required=True)
    p.add_argument("--n1", type=_grid_size, default=DEFAULT_N1)
    p.add_argument("--solver", choices=SOLVERS, default=SOLVERS[0])
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD_DB)
    _add_shared(p, "--seed", "--config")
    p.set_defaults(func=partial(_cmd_trial, parser=p))

    p = sub.add_parser("sweep", help="phase-transition sweep")
    p.add_argument("--k", type=_count, nargs="+", default=[4], help="sparsity levels")
    p.add_argument("--m", type=int, nargs="+", default=[44], help="measurement counts")
    cores = p.add_mutually_exclusive_group(required=True)
    cores.add_argument("--q", type=int, nargs="+", help="core counts")
    cores.add_argument("--vis", type=int, nargs="+",
                       help="target distinct-visibility counts")
    p.add_argument("--n1", type=_grid_size, default=DEFAULT_N1, help="grid size")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="trials per cell")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_DB,
                   help="success SNR in dB")
    p.add_argument("--solver", choices=SOLVERS, default=SOLVERS[0],
                   help="recovery program")
    _add_shared(p, "--seed", "--out", "--threads")
    p.set_defaults(func=partial(_cmd_sweep, parser=p))

    p = sub.add_parser("rip", help="empirical restricted-isometry constants")
    p.add_argument("--k", type=_count, default=4)
    p.add_argument("--q", type=_cores, default=16)
    p.add_argument("--m", type=_count, default=122)
    p.add_argument("--n1", type=_grid_size, default=DEFAULT_N1)
    p.add_argument("--trials", type=_at_least(100, int), default=200)
    _add_shared(p, "--seed", "--out")
    p.set_defaults(func=partial(_cmd_rip, parser=p))

    p = sub.add_parser("demo", help="2-D imaging demo")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--scene", type=_scene, default=None,
                      help="square 2-D .npy image (its side sets the size)")
    grid.add_argument("--n1", type=_bar_grid_size, default=64,
                      help="grid size of the bar target")
    p.add_argument("--q", type=_cores, default=110)
    p.add_argument("--m", type=_count, nargs="+", default=[3000])
    p.add_argument("--compare-q", type=_cores, nargs="+", default=None)
    _add_shared(p, "--seed", "--out", "--config")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("calibrate", help="synthetic calibration round trip")
    p.add_argument("--n1", type=_grid_size, default=32)
    p.add_argument("--q", type=_count, default=12)
    p.add_argument("--noise", type=_at_least(0, float), default=0.0)
    p.add_argument("--sketches", type=_count, default=20)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--amplitude-ripple", type=_finite, metavar="DELTA",
                      help="smooth amplitude ripple of depth DELTA")
    kind.add_argument("--phase-aberration", type=_finite, metavar="DELTA",
                      help="smooth phase screen of DELTA rad")
    _add_shared(p, "--seed", "--out")
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
