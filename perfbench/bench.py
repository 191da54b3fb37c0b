"""Workloads, checks and metrics of the mcfli benchmark.

Each workload is driven by one caller in a closed loop: the next operation
is issued only after the previous one has returned.  Operations are grouped
in passes (a sweep's whole trial block, or one 2-D reconstruction); a run
makes as many whole passes as fit in ``--seconds``, and at least one.

Sweep workloads replay the fixed acceptance trial block (master seed
20260809, 30 trials in each of four cells, seeds derived as ``run_sweep``
derives them); the run's seed sets the order in which the block is issued.
A block drawn from the run's seed instead would carry between 1 and 8
cap-hit trials (measured over four master seeds), and at 1.2-1.9 s each
against a 27 ms median those alone move a run's throughput by a factor of
two.  2-D workloads draw their sketches from the run's seed, one seed per
operation: ``seed``, ``seed + 1``, ...
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Tracer, tracing_overhead

HERE = Path(__file__).resolve().parent

ACCEPTANCE_MASTER = 20260809
IMAGE_SEED = 100
SETUP_REPEATS = 5
# a 2-D reconstruction at the reference seed must reproduce the stored SNR
# within this margin (the ROADMAP's gate for the demo SNRs)
SNR_TOL_DB = 0.05
# a 2-D solve succeeds at this SNR; the operating point reaches 16.8 dB
IMAGE_SUCCESS_DB = 15.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("trial_p50_ms", "ms"),
    ("trial_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("solve_s", "s"),
    ("snr_db", "dB"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sensing.as_matrix.calls", "count"),
    ("sensing.as_matrix.self_s", "s"),
    ("layout.build_s", "s"),
    ("layout.gather_s", "s"),
    ("layout.scatter.calls", "count"),
    ("layout.scatter_s", "s"),
    ("grid.fft.calls", "count"),
    ("grid.fft_s", "s"),
    ("grid.ifft.calls", "count"),
    ("grid.ifft_s", "s"),
    ("sensing.combined_forward_s", "s"),
    ("sensing.combined_adjoint_s", "s"),
    ("sensing.srop_forward_s", "s"),
    ("sensing.srop_adjoint_s", "s"),
    ("solvers.operator_norm.calls", "count"),
    ("solvers.operator_norm.s", "s"),
    ("solvers.lasso.s", "s"),
    ("solvers.lasso.iterations", "count"),
    ("solvers.lasso.cap_hits", "count"),
    ("solvers.lasso.converged_ratio", "ratio"),
    ("solvers.lasso.iter_us", "us"),
    ("solvers.bpdn.s", "s"),
    ("solvers.bpdn.iterations", "count"),
    ("solvers.bpdn.cap_hits", "count"),
    ("solvers.bpdn.converged_ratio", "ratio"),
    ("solvers.bpdn.iter_us", "us"),
    ("solvers.project_l1_ball.calls", "count"),
    ("solvers.project_l1_ball.s", "s"),
    ("solvers.tv.s", "s"),
    ("solvers.tv.iterations", "count"),
    ("solvers.tv.iter_ms", "ms"),
    ("solvers.dense_matvec.calls", "count"),
    ("solvers.dense_matvec_s", "s"),
    ("solvers.dense_matvec.bytes_computed", "bytes"),
    ("sketch.draw_s", "s"),
    ("scene.draw_s", "s"),
    ("harness.run_trial.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(samples, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` percentile.

    A mean of the order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    density, integrated over each sample's slice of [0, 1].  A sweep's tail
    is sparse (ranks 104-110 of a lasso pass span 0.26-0.62 s), so the
    sample at a single rank jumps whenever noise reorders its neighbours;
    the weighted mean moves smoothly.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    a, b = (n + 1) * p / 100.0, (n + 1) * (1.0 - p / 100.0)
    t = (np.arange(n * 64) + 0.5) / (n * 64)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, 64).sum(axis=1)
    return float(w @ x / w.sum())


def _rank(n: int, p: float) -> int:
    # rounded first so that 99.9 % of 10 000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p`` percentile of ``n``."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of ``n`` samples with at least ten samples beyond
    it, or None when even the median has fewer."""
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def import_mcfli() -> SimpleNamespace:
    names = ("grid", "layout", "sketch", "scene", "sensing", "harness", "solvers")
    mods = {n: importlib.import_module(f"mcfli.{n}") for n in names}
    for sub in ("config", "lasso", "linop", "primal_dual", "proj"):
        mods[sub] = importlib.import_module(f"mcfli.solvers.{sub}")
    return SimpleNamespace(**mods)


def _solver_counts(prefix: str, mcfli):
    def on_exit(tracer, args, kwargs, result):
        config = kwargs.get("config", args[3] if len(args) > 3 else None)
        cap = config.max_iterations if config else mcfli.config.MAX_ITERATIONS_DEFAULT
        tracer.count(prefix + ".iterations", result.iterations)
        tracer.count(prefix + ".converged", int(bool(result.converged)))
        tracer.count(prefix + ".cap_hits", int(not result.converged and result.iterations >= cap))

    return on_exit


def _matvec_bytes(tracer, args, kwargs, result):
    tracer.count("solvers.dense_matvec.bytes_computed", args[0].matrix.nbytes)


def layer_patches(mcfli) -> list[tuple]:
    """Every ``(owner, attribute, span, on_exit)`` the traced run wraps.

    Functions are wrapped in each namespace their callers read them from,
    so a name imported into two modules appears twice.
    """
    h, s, lay, g = mcfli.harness, mcfli.sensing, mcfli.layout, mcfli.grid
    return [
        (h, "run_trial", "harness.run_trial", None),
        (h, "run_imaging_demo", "harness.run_imaging_demo", None),
        (h, "random_layout_1d", "layout.build", None),
        (h, "fermat_spiral_layout", "layout.build", None),
        (lay, "fermat_spiral_layout", "layout.build", None),
        (h, "draw_sketches", "sketch.draw", None),
        (mcfli.sketch, "draw_sketches", "sketch.draw", None),
        (h, "sparse_scene", "scene.draw", None),
        (h, "bar_target_scene", "scene.draw", None),
        (mcfli.scene, "bar_target_scene", "scene.draw", None),
        (lay.CoreLayout, "gather", "layout.gather", None),
        (lay.CoreLayout, "scatter", "layout.scatter", None),
        (g.Grid, "fft", "grid.fft", None),
        (g.Grid, "ifft", "grid.ifft", None),
        (s.CombinedOperator, "forward", "sensing.combined_forward", None),
        (s.CombinedOperator, "adjoint", "sensing.combined_adjoint", None),
        (s.CombinedOperator, "as_matrix", "sensing.as_matrix", None),
        (s.SropOperator, "forward", "sensing.srop_forward", None),
        (s.SropOperator, "adjoint", "sensing.srop_adjoint", None),
        (mcfli.lasso, "operator_norm", "solvers.operator_norm", None),
        (mcfli.primal_dual, "operator_norm", "solvers.operator_norm", None),
        (mcfli.lasso, "project_l1_ball", "solvers.project_l1_ball", None),
        (mcfli.proj, "project_l1_ball", "solvers.project_l1_ball", None),
        (mcfli.linop.MatrixOperator, "forward", "solvers.dense_matvec", _matvec_bytes),
        (mcfli.linop.MatrixOperator, "adjoint", "solvers.dense_matvec", _matvec_bytes),
        (h, "solve_lasso", "solvers.lasso", _solver_counts("solvers.lasso", mcfli)),
        (h, "solve_bpdn_l1", "solvers.bpdn", _solver_counts("solvers.bpdn", mcfli)),
        (h, "solve_tv_nonneg", "solvers.tv", _solver_counts("solvers.tv", mcfli)),
        (mcfli.solvers, "solve_tv_nonneg", "solvers.tv", _solver_counts("solvers.tv", mcfli)),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """Monte-Carlo trials of ``run_trial`` over a block of sweep cells."""

    name: str
    solver: str
    cells: tuple = ((4, 26, 24), (4, 26, 44), (4, 26, 98), (4, 4, 122))
    trials: int = 30
    n1: int = 256
    master: int = ACCEPTANCE_MASTER
    reference: dict | None = None  # "k,q,m" -> successes over the block
    default_seed: int = ACCEPTANCE_MASTER

    def pass_ops(self, seed: int, index: int) -> list[tuple]:
        block = [(k, q, m, t) for k, q, m in self.cells for t in range(self.trials)]
        order = np.random.default_rng((seed, index)).permutation(len(block))
        return [block[i] for i in order]

    def warm_up(self, mcfli):
        mcfli.harness.run_trial(
            1, 4, 6, np.random.SeedSequence((0, 0)), solver=self.solver, n1=32
        )

    def run_op(self, mcfli, op) -> dict:
        k, q, m, t = op
        seed = np.random.SeedSequence((self.master, k, q, m, t))
        r = mcfli.harness.run_trial(k, q, m, seed, solver=self.solver, n1=self.n1)
        return {"snr_db": r.snr_db, "success": r.success, "iterations": r.iterations}


@dataclass(frozen=True)
class Image:
    """One nonnegative-TV reconstruction of the bar target at a 2-D point,
    through ``run_imaging_demo`` (dense) or straight on the operator."""

    name: str
    matrix_free: bool
    n1: int = 64
    q: int = 110
    m: int = 3000
    rho_exponent: float = -2.0
    iterations: int = 300
    reference_snr: float | None = None  # SNR of the operation at default_seed
    default_seed: int = IMAGE_SEED

    def pass_ops(self, seed: int, index: int) -> list[int]:
        return [seed + index]

    def warm_up(self, mcfli):
        replace(self, q=12, m=60, iterations=5).run_op(mcfli, 0)

    def run_op(self, mcfli, seed: int) -> dict:
        config = mcfli.config.SolverConfig(max_iterations=self.iterations, tol=1e-8)
        if not self.matrix_free:
            report = mcfli.harness.run_imaging_demo(
                n1=self.n1, q=self.q, m_values=[self.m],
                rho_scale_exponents=(self.rho_exponent,), seed=seed,
                include_rs=False, config=config,
            )
            entry = report.entries[0]
            snr, iterations = entry.snr_db, entry.iterations
        else:
            grid = mcfli.grid.make_grid(2, self.n1, 1.0)
            scene = mcfli.scene.bar_target_scene(grid)
            layout = mcfli.layout.fermat_spiral_layout(grid, self.q)
            sketches = mcfli.sketch.draw_sketches(
                self.q, self.m, np.random.SeedSequence((seed, self.q, self.m))
            )
            op = mcfli.sensing.CombinedOperator(layout, sketches)
            y = op.forward(scene.values)
            # the same data scale run_imaging_demo takes from the dense matrix
            rho = float(np.abs(op.adjoint(y)).max()) / self.m * 10.0**self.rho_exponent
            res = mcfli.solvers.solve_tv_nonneg(op, y, rho, config)
            snr = mcfli.solvers.vignetted_snr(res.estimate, scene.values, scene.vignette)
            iterations = res.iterations
        return {"snr_db": snr, "success": snr >= IMAGE_SUCCESS_DB, "iterations": iterations}


def _load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def workloads() -> dict:
    ref = _load_reference()
    items = [
        Sweep("mc_sweep_lasso", "lasso", reference=ref["mc_sweep_lasso"]),
        Sweep("mc_sweep_bpdn", "bpdn", reference=ref["mc_sweep_bpdn"]),
        Image("demo_2d_tv", matrix_free=False, reference_snr=ref["demo_2d_tv"]),
        Image("matfree_2d_tv", matrix_free=True, reference_snr=ref["matfree_2d_tv"]),
    ]
    return {w.name: w for w in items}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _run_one(wl, mcfli, op, tracer) -> dict:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run_op(mcfli, op)
        else:
            with tracer.span("bench.op"):
                out = wl.run_op(mcfli, op)
        error = None
    except Exception:  # a raising operation is counted as failed, and the run goes on
        out, error = {}, traceback.format_exc(limit=4)
    return {"op": op, "wall": time.perf_counter() - t0, "error": error, **out}


def measure(wl, mcfli, seed: int, seconds: float | None = None,
            passes: int | None = None, tracer=None) -> list[dict]:
    """Run whole passes in a closed loop: ``passes`` of them, or as many as
    fit in ``seconds`` judging by the last pass, and at least one."""
    out = []
    start = time.perf_counter()
    while True:
        ops = wl.pass_ops(seed, len(out))
        t0 = time.perf_counter()
        records = [_run_one(wl, mcfli, op, tracer) for op in ops]
        wall = time.perf_counter() - t0
        out.append({"wall": wall, "records": records})
        if passes is not None:
            if len(out) >= passes:
                return out
        elif time.perf_counter() - start + wall > seconds:
            return out


def check(wl, mcfli, passes: list[dict]) -> list[str]:
    """Mark every record ``failed`` or not; return one line per problem.

    An operation fails when it raises, returns a non-finite SNR or an
    inconsistent success flag, or differs from an earlier run of the same
    inputs.  A sweep cell whose success count departs from the stored
    reference fails all its trials; a 2-D solve at the reference seed fails
    when its SNR departs from the stored one.
    """
    problems = []
    first: dict = {}
    threshold = (
        mcfli.harness.DEFAULT_THRESHOLD_DB if isinstance(wl, Sweep) else IMAGE_SUCCESS_DB
    )
    for p in passes:
        for r in p["records"]:
            reason = r["error"]
            if reason is None and not math.isfinite(r["snr_db"]):
                reason = f"non-finite SNR {r['snr_db']}"
            elif reason is None and r["success"] != (r["snr_db"] >= threshold):
                reason = "success flag disagrees with the SNR"
            elif reason is None:
                earlier = first.setdefault(r["op"], r["snr_db"])
                if earlier != r["snr_db"]:
                    reason = f"SNR {r['snr_db']!r} differs from an earlier {earlier!r}"
            r["failed"] = reason is not None
            if reason:
                problems.append(f"op {r['op']}: {reason.strip()}")
        if isinstance(wl, Sweep) and wl.reference is not None:
            for cell in wl.cells:
                rows = [r for r in p["records"] if tuple(r["op"][:3]) == cell]
                got = sum(bool(r.get("success")) for r in rows)
                want = wl.reference[",".join(map(str, cell))]
                if got != want:
                    problems.append(f"cell {cell}: {got} successes, reference {want}")
                    for r in rows:
                        r["failed"] = True
        if isinstance(wl, Image) and wl.reference_snr is not None:
            for r in p["records"]:
                if r["op"] == wl.default_seed and not r["failed"]:
                    if abs(r["snr_db"] - wl.reference_snr) > SNR_TOL_DB:
                        r["failed"] = True
                        problems.append(
                            f"op {r['op']}: SNR {r['snr_db']:.4f} dB, "
                            f"reference {wl.reference_snr:.4f} dB"
                        )
    return problems


def end_to_end(wl, passes: list[dict], setup_s: float, setups: int) -> dict:
    """Metric name -> (value, samples)."""
    records = [r for p in passes for r in p["records"]]
    walls = [r["wall"] for r in records]
    snrs = [r["snr_db"] for r in records if "snr_db" in r and math.isfinite(r["snr_db"])]
    n = len(walls)
    if isinstance(wl, Sweep):
        rate_time = sum(p["wall"] for p in passes)
        snr = statistics.fmean(snrs) if snrs else 0.0
    else:
        rate_time = sum(walls)
        snr = statistics.median(snrs) if snrs else 0.0
    return {
        "setup_s": (setup_s, setups),
        "trials_per_s": (n / rate_time, n),
        "trial_p50_ms": (1e3 * percentile(walls, 50), n),
        "trial_p90_ms": (1e3 * percentile(walls, 90), n),
        "success_rate": (sum(bool(r.get("success")) for r in records) / n, n),
        "solve_s": (statistics.median(p["wall"] for p in passes), len(passes)),
        "snr_db": (snr, len(snrs)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(tracer: Tracer, untraced: list[dict], traced: list[dict]) -> dict:
    """Metric name -> value, from the traced passes."""
    t, c = tracer, tracer.counters

    def solver(prefix: str) -> dict:
        calls = t.n(prefix)
        return {
            f"{prefix}.s": t.total(prefix),
            f"{prefix}.iterations": c.get(prefix + ".iterations", 0),
            f"{prefix}.cap_hits": c.get(prefix + ".cap_hits", 0),
            f"{prefix}.converged_ratio": c.get(prefix + ".converged", 0) / calls if calls else 0.0,
        }

    def per_iteration(prefix: str) -> float:
        """Solver time outside its operator-norm call, per iteration."""
        iters = c.get(prefix + ".iterations", 0)
        loop = t.total(prefix) - t.child(prefix, "solvers.operator_norm")
        return loop / iters if iters else 0.0

    walls_u = [r["wall"] for p in untraced for r in p["records"]]
    walls_t = [r["wall"] for p in traced for r in p["records"]]
    overhead_s, overhead_share = tracing_overhead(walls_u, walls_t)
    accounted = sum(t.self_time.values()) / sum(walls_t) if walls_t else 0.0
    return {
        "sensing.as_matrix.calls": t.n("sensing.as_matrix"),
        "sensing.as_matrix.self_s": t.own("sensing.as_matrix"),
        "layout.build_s": t.total("layout.build"),
        "layout.gather_s": t.total("layout.gather"),
        "layout.scatter.calls": t.n("layout.scatter"),
        "layout.scatter_s": t.total("layout.scatter"),
        "grid.fft.calls": t.n("grid.fft"),
        "grid.fft_s": t.total("grid.fft"),
        "grid.ifft.calls": t.n("grid.ifft"),
        "grid.ifft_s": t.total("grid.ifft"),
        "sensing.combined_forward_s": t.total("sensing.combined_forward"),
        "sensing.combined_adjoint_s": t.total("sensing.combined_adjoint"),
        "sensing.srop_forward_s": t.total("sensing.srop_forward"),
        "sensing.srop_adjoint_s": t.total("sensing.srop_adjoint"),
        "solvers.operator_norm.calls": t.n("solvers.operator_norm"),
        "solvers.operator_norm.s": t.total("solvers.operator_norm"),
        **solver("solvers.lasso"),
        "solvers.lasso.iter_us": 1e6 * per_iteration("solvers.lasso"),
        **solver("solvers.bpdn"),
        "solvers.bpdn.iter_us": 1e6 * per_iteration("solvers.bpdn"),
        "solvers.project_l1_ball.calls": t.n("solvers.project_l1_ball"),
        "solvers.project_l1_ball.s": t.total("solvers.project_l1_ball"),
        "solvers.tv.s": t.total("solvers.tv"),
        "solvers.tv.iterations": c.get("solvers.tv.iterations", 0),
        "solvers.tv.iter_ms": 1e3 * per_iteration("solvers.tv"),
        "solvers.dense_matvec.calls": t.n("solvers.dense_matvec"),
        "solvers.dense_matvec_s": t.total("solvers.dense_matvec"),
        "solvers.dense_matvec.bytes_computed": c.get("solvers.dense_matvec.bytes_computed", 0),
        "sketch.draw_s": t.total("sketch.draw"),
        "scene.draw_s": t.total("scene.draw"),
        "harness.run_trial.self_s": t.own("harness.run_trial"),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_share,
        "trace.accounted_share": accounted,
    }


def cell_table(wl: Sweep, mcfli, passes: list[dict]) -> list[dict]:
    """Per-cell successes and cap hits of the first pass."""
    cap = mcfli.config.MAX_ITERATIONS_DEFAULT
    rows = []
    for cell in wl.cells:
        recs = [r for r in passes[0]["records"] if tuple(r["op"][:3]) == cell]
        hits = sum(r.get("iterations", 0) >= cap for r in recs)
        rows.append({
            "cell": "k={},q={},m={}".format(*cell),
            "trials": len(recs),
            "successes": sum(bool(r.get("success")) for r in recs),
            "reference": None if wl.reference is None else wl.reference[",".join(map(str, cell))],
            "cap_hits": hits,
            "cap_hit_share": hits / len(recs) if recs else 0.0,
            "median_ms": 1e3 * statistics.median(r["wall"] for r in recs) if recs else 0.0,
        })
    return rows


def p90_position(mcfli, passes: list[dict]) -> dict:
    """Where the p90 rank sits against the cap-hit cluster (first pass)."""
    cap = mcfli.config.MAX_ITERATIONS_DEFAULT
    recs = sorted(passes[0]["records"], key=lambda r: r["wall"])
    n = len(recs)
    ranks = [i + 1 for i, r in enumerate(recs) if r.get("iterations", 0) >= cap]
    return {
        "samples": n,
        "p90_rank": _rank(n, 90),
        "first_cap_hit_rank": min(ranks) if ranks else None,
        "cap_hits": len(ranks),
    }


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _fresh_import(mcfli):
    """Import numpy and the package in a fresh interpreter, as a user pays."""
    src = Path(mcfli.harness.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "import numpy, mcfli"], env=env, check=True)


def run(wl, seed: int, seconds: float, trace: bool, mcfli=None,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure and check one run of a workload.

    Set-up (a fresh import, input generation and a small warm-up operation)
    is repeated ``setup_repeats`` times and its median reported.
    """
    mcfli = mcfli or import_mcfli()
    setups = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        _fresh_import(mcfli)
        wl.pass_ops(seed, 0)
        wl.warm_up(mcfli)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    untraced = measure(wl, mcfli, seed, seconds=seconds)
    traced = []
    tracer = Tracer()
    if trace:
        with tracer.installed(layer_patches(mcfli)):
            traced = measure(wl, mcfli, seed, passes=len(untraced), tracer=tracer)
    problems = check(wl, mcfli, untraced + traced)
    records = [r for p in untraced + traced for r in p["records"]]
    result = {
        "workload": wl.name,
        "seed": seed,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "problems": problems,
        "end_to_end": end_to_end(wl, untraced, setup_s, len(setups)),
        "per_layer": per_layer(tracer, untraced, traced) if trace else None,
        "spans": {
            name: (tracer.n(name), tracer.total(name), tracer.own(name))
            for name in sorted(tracer.calls)
        },
    }
    if isinstance(wl, Sweep):
        result["cells"] = cell_table(wl, mcfli, untraced)
        result["p90_position"] = p90_position(mcfli, untraced)
    result["correct"] = result["failed"] == 0
    return result


def summary_line(result: dict, trace: bool) -> str:
    """The last line of a run: correctness counts and the declared metrics."""
    if trace:
        units = dict(PER_LAYER)
        metrics = {n: {"value": result["per_layer"][n], "unit": units[n]} for n, _ in PER_LAYER}
    else:
        metrics = {
            n: {"value": result["end_to_end"][n][0], "unit": u} for n, u in END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
