"""Experiment orchestration: trials, sweeps, RIP estimates, imaging demo.

Each Monte-Carlo trial builds the full 1-D pipeline (random layout, random
unit-phase sketches, sparse zero-mean scene, debiased projections, l1-ball
recovery at the oracle radius) and scores the reconstruction against a dB
threshold.  Sweeps evaluate a grid of (sparsity, cores, measurements) cells
with per-trial child seeds derived from the master seed, so results are
reproducible and independent of execution order or thread count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, make_grid
from .layout import CoreLayout, downsample_layout, fermat_spiral_layout, random_layout_1d
from .scene import SceneImage, bar_target_scene, sparse_scene
from .sensing import CombinedOperator, rs_scan
from .serialization import scene_from_json, write_complex_matrix, write_pgm
from .sketch import draw_sketches
from .solvers import (
    SolverConfig,
    solve_bpdn_l1,
    solve_lasso,
    solve_tv_nonneg,
    vignetted_snr,
)
from .solvers.metrics import SNR_CAP_DB

DEFAULT_N1 = 256
DEFAULT_THRESHOLD_DB = 40.0
DEFAULT_TRIALS = 80


def _child_seed(master: int, *parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master),) + tuple(int(p) for p in parts))


@dataclass
class TrialResult:
    snr_db: float
    success: bool
    visibilities: int
    iterations: int
    converged: bool  # the solver's flag: False after an iteration-cap hit


def run_trial(
    k: int,
    q: int,
    m: int,
    seed,
    solver: str = "lasso",
    n1: int = DEFAULT_N1,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
    config: SolverConfig | None = None,
) -> TrialResult:
    """One reconstruction trial of the 1-D pipeline.

    Layout positions, sketch phases and the scene are drawn independently
    from the trial seed.  Recovery runs on the materialized forward matrix
    with the radius set to the true l1 norm (``lasso``) or a zero fidelity
    budget (``bpdn``).
    """
    if k > n1:
        raise ValueError(f"k={k} exceeds the grid size {n1}")
    if q < 2:
        raise ValueError("need at least two cores")
    ss = np.random.SeedSequence(seed) if not isinstance(seed, np.random.SeedSequence) else seed
    s_layout, s_sketch, s_scene = ss.spawn(3)
    grid = make_grid(1, n1, 1.0)
    layout = random_layout_1d(grid, q, s_layout)
    sketches = draw_sketches(q, m, s_sketch)
    scene = sparse_scene(grid, k, s_scene, zero_mean=True)

    op = CombinedOperator(layout, sketches)
    y = op.forward(scene.values)
    dense = op.as_matrix()
    truth = scene.values.ravel()

    if solver == "lasso":
        result = solve_lasso(dense, y, float(np.abs(truth).sum()), config)
    elif solver == "bpdn":
        result = solve_bpdn_l1(dense, y, 0.0, config)
    else:
        raise ValueError(f"unknown solver {solver!r}")

    if np.linalg.norm(truth) == 0:
        snr = SNR_CAP_DB if np.linalg.norm(result.estimate) == 0 else 0.0
    else:
        snr = vignetted_snr(result.estimate, truth)
    return TrialResult(
        snr_db=snr,
        success=snr >= threshold_db,
        visibilities=layout.distinct_visibilities,
        iterations=result.iterations,
        converged=result.converged,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    k_values: list[int]
    m_values: list[int]
    q_values: list[int] = field(default_factory=list)
    vis_targets: list[int] = field(default_factory=list)
    trials: int = DEFAULT_TRIALS
    threshold_db: float = DEFAULT_THRESHOLD_DB
    master_seed: int = 0
    solver: str = "lasso"
    n1: int = DEFAULT_N1
    out_path: str | None = None

    def __post_init__(self):
        if not self.k_values or not self.m_values:
            raise ValueError("k_values and m_values must be nonempty")
        if bool(self.q_values) == bool(self.vis_targets):
            raise ValueError("set exactly one of q_values or vis_targets")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.threshold_db <= 0:
            raise ValueError("threshold must be positive")

    @classmethod
    def from_json(cls, text_or_path) -> "SweepSpec":
        try:
            data = json.loads(text_or_path)
        except (json.JSONDecodeError, TypeError):
            with open(text_or_path) as fh:
                data = json.load(fh)
        return cls(**data)


@dataclass
class SweepCell:
    k: int
    q: int
    m: int
    vis_target: int | None
    trials: int
    success_rate: float
    mean_visibilities: float
    std_visibilities: float
    mean_snr_db: float
    mean_iterations: float


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[SweepCell]

    def to_csv(self) -> str:
        header = (
            "k,q,m,vis_target,trials,success_rate,mean_visibilities,"
            "std_visibilities,mean_snr_db,mean_iterations"
        )
        lines = [header]
        for c in self.cells:
            target = "" if c.vis_target is None else str(c.vis_target)
            lines.append(
                f"{c.k},{c.q},{c.m},{target},{c.trials},{c.success_rate!r},"
                f"{c.mean_visibilities!r},{c.std_visibilities!r},"
                f"{c.mean_snr_db!r},{c.mean_iterations!r}"
            )
        return "\n".join(lines) + "\n"


def _trial_args(spec: SweepSpec, k: int, q: int, m: int, trial: int) -> tuple:
    seed = _child_seed(spec.master_seed, k, q, m, trial)
    return (k, q, m, seed, spec.solver, spec.n1, spec.threshold_db)


def _run_trial_tuple(args) -> tuple:
    r = run_trial(*args)
    return (r.snr_db, r.success, r.visibilities, r.iterations, r.converged)


def mean_visibility_count(
    n1: int, q: int, seed, probes: int = 256
) -> tuple[float, float]:
    """Monte-Carlo mean and std of the distinct-visibility count at ``q``."""
    grid = make_grid(1, n1, 1.0)
    base = np.random.SeedSequence((int(seed), q, 777))
    counts = [
        random_layout_1d(grid, q, s).distinct_visibilities
        for s in base.spawn(probes)
    ]
    return float(np.mean(counts)), float(np.std(counts))


def find_core_count_for_visibility_target(
    n1: int, target: int, seed, probes: int = 256, tol: float = 0.02
) -> tuple[int, float]:
    """Smallest-error core count whose mean distinct-visibility count
    brackets ``target``; returns ``(q, realized mean)``.

    The mean grows monotonically with ``q``, so the scan stops at the first
    crossing and keeps the closer side.  A mismatch beyond ``tol`` (relative)
    is tolerated but reported through the realized mean.
    """
    prev: tuple[int, float] | None = None
    q = 2
    while q <= n1:
        mean, _ = mean_visibility_count(n1, q, seed, probes)
        if mean >= target:
            if prev is not None and abs(prev[1] - target) < abs(mean - target):
                return prev
            return q, mean
        prev = (q, mean)
        q += 1
    return prev if prev is not None else (2, 0.0)


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Evaluate every (k, q-or-target, m) cell of the spec.

    Trials carry child seeds derived from ``(master, k, q, m, trial)``; the
    per-cell aggregation sums trial results in trial order, so the CSV is
    byte-identical for a fixed spec regardless of the thread count.
    """
    if spec.vis_targets:
        q_of_target = {
            t: find_core_count_for_visibility_target(spec.n1, t, spec.master_seed)[0]
            for t in spec.vis_targets
        }
        q_list = [(q_of_target[t], t) for t in spec.vis_targets]
    else:
        q_list = [(q, None) for q in spec.q_values]

    jobs = []
    cell_keys = []
    for k in spec.k_values:
        for q, target in q_list:
            for m in spec.m_values:
                cell_keys.append((k, q, m, target))
                jobs.extend(
                    _trial_args(spec, k, q, m, t) for t in range(spec.trials)
                )

    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            flat = list(pool.map(_run_trial_tuple, jobs, chunksize=8))
    else:
        flat = [_run_trial_tuple(a) for a in jobs]

    cells = []
    for i, (k, q, m, target) in enumerate(cell_keys):
        rows = flat[i * spec.trials : (i + 1) * spec.trials]
        snrs = np.array([r[0] for r in rows])
        succ = np.array([r[1] for r in rows])
        vis = np.array([r[2] for r in rows], dtype=float)
        iters = np.array([r[3] for r in rows], dtype=float)
        cells.append(
            SweepCell(
                k=k,
                q=q,
                m=m,
                vis_target=target,
                trials=spec.trials,
                success_rate=float(succ.mean()),
                mean_visibilities=float(vis.mean()),
                std_visibilities=float(vis.std()),
                mean_snr_db=float(snrs.mean()),
                mean_iterations=float(iters.mean()),
            )
        )
    result = SweepResult(spec=spec, cells=cells)
    if spec.out_path:
        with open(spec.out_path, "w") as fh:
            fh.write(result.to_csv())
    return result


def transition_midpoint(x_values, rates) -> float | None:
    """Abscissa of the 50% success crossing, linearly interpolated."""
    x_values = np.asarray(x_values, dtype=float)
    rates = np.asarray(rates, dtype=float)
    order = np.argsort(x_values)
    x_values, rates = x_values[order], rates[order]
    for i in range(1, len(rates)):
        if rates[i - 1] < 0.5 <= rates[i]:
            x0, x1, r0, r1 = x_values[i - 1], x_values[i], rates[i - 1], rates[i]
            return float(x0 + (0.5 - r0) * (x1 - x0) / (r1 - r0))
    if rates.size and rates[0] >= 0.5:
        return float(x_values[0])
    return None


# ---------------------------------------------------------------------------
# restricted-isometry constants
# ---------------------------------------------------------------------------


@dataclass
class RipEstimate:
    lower: float  # empirical min of ||B v||_1 / (m ||v||)
    upper: float  # empirical max
    envelope: float  # scale * sqrt(visibilities) / sqrt(n)
    visibilities: int
    trials: int

    @property
    def upper_ratio(self) -> float:
        """Upper constant against the theoretical envelope shape."""
        return self.upper / self.envelope if self.envelope > 0 else math.inf


def _rip_ratio(dense: np.ndarray, v: np.ndarray) -> float:
    return float(np.abs(dense @ v).sum() / (dense.shape[0] * np.linalg.norm(v)))


def estimate_rip_constants(
    k0: int,
    q: int,
    m: int,
    trials: int,
    seed,
    n1: int = DEFAULT_N1,
) -> RipEstimate:
    """Empirical restricted-isometry extremes over random sparse directions.

    Draws one operator (layout and sketches) from the seed, then probes it
    with ``trials`` random unit, zero-mean, ``k0``-sparse vectors.
    """
    if trials < 100:
        raise ValueError("need at least 100 probe vectors")
    ss = np.random.SeedSequence(seed)
    s_layout, s_sketch, s_probe = ss.spawn(3)
    grid = make_grid(1, n1, 1.0)
    layout = random_layout_1d(grid, q, s_layout)
    sketches = draw_sketches(q, m, s_sketch)
    dense = CombinedOperator(layout, sketches).as_matrix()

    rng = np.random.default_rng(s_probe)
    lo, hi = math.inf, 0.0
    for _ in range(trials):
        v = np.zeros(grid.n_points)
        support = rng.choice(grid.n_points, size=k0, replace=False)
        vals = rng.standard_normal(k0)
        if k0 > 1:
            vals -= vals.mean()
        v[support] = vals
        norm = np.linalg.norm(v)
        if norm == 0:
            continue
        ratio = _rip_ratio(dense, v)
        lo, hi = min(lo, ratio), max(hi, ratio)

    envelope = (
        grid.fourier_scale
        * np.sqrt(layout.distinct_visibilities)
        / np.sqrt(grid.n_points)
    )
    return RipEstimate(
        lower=lo,
        upper=hi,
        envelope=float(envelope),
        visibilities=layout.distinct_visibilities,
        trials=trials,
    )


def rip_pair_extremes(q: int, m: int, seed, n1: int = 32) -> RipEstimate:
    """Exact extremes over the exhaustive set of difference pairs
    ``e_j - e_k`` (all zero-mean 2-sparse sign patterns of that form)."""
    ss = np.random.SeedSequence(seed)
    s_layout, s_sketch = ss.spawn(2)
    grid = make_grid(1, n1, 1.0)
    layout = random_layout_1d(grid, q, s_layout)
    sketches = draw_sketches(q, m, s_sketch)
    dense = CombinedOperator(layout, sketches).as_matrix()

    n = grid.n_points
    lo, hi = math.inf, 0.0
    count = 0
    for j in range(n):
        for k in range(j + 1, n):
            v = np.zeros(n)
            v[j], v[k] = 1.0, -1.0
            ratio = _rip_ratio(dense, v)
            lo, hi = min(lo, ratio), max(hi, ratio)
            count += 1
    envelope = (
        grid.fourier_scale
        * np.sqrt(layout.distinct_visibilities)
        / np.sqrt(grid.n_points)
    )
    return RipEstimate(
        lower=lo,
        upper=hi,
        envelope=float(envelope),
        visibilities=layout.distinct_visibilities,
        trials=count,
    )


# ---------------------------------------------------------------------------
# imaging demo
# ---------------------------------------------------------------------------


@dataclass
class DemoEntry:
    q: int
    m: int
    rho: float
    snr_db: float
    iterations: int


@dataclass
class DemoReport:
    entries: list[DemoEntry]
    rs_snr_db: float | None = None

    def best_snr(self, q: int, m: int) -> float:
        vals = [e.snr_db for e in self.entries if e.q == q and e.m == m]
        if not vals:
            raise KeyError(f"no demo entry for q={q}, m={m}")
        return max(vals)

    def plateau_snr(self, q: int) -> float:
        largest_m = max(e.m for e in self.entries if e.q == q)
        return self.best_snr(q, largest_m)


def run_imaging_demo(
    out_dir: str | None = None,
    scene_path: str | None = None,
    n1: int = 64,
    q: int = 110,
    m_values: list[int] | None = None,
    compare_q: list[int] | None = None,
    rho_values: list[float] | None = None,
    rho_scale_exponents: tuple = (-3.0, -2.0, -1.0),
    seed: int = 0,
    include_rs: bool = True,
    config: SolverConfig | None = None,
) -> DemoReport:
    """Simulated 2-D imaging run: spiral layout, projections, TV recovery.

    Reconstructs a resolution-target cartoon for each (core count,
    measurement count) pair, sweeping the TV weight logarithmically (powers
    ``rho_scale_exponents`` of the data scale, or explicit ``rho_values``)
    and keeping the best SNR.  Writes graymaps, binary arrays and a JSON
    report when ``out_dir`` is set.  Also images the scene in
    raster-scanning mode for comparison.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    grid = make_grid(2, n1, 1.0)
    if scene_path is not None:
        with open(scene_path) as fh:
            scene = scene_from_json(fh.read())
        grid = scene.grid
    else:
        scene = bar_target_scene(grid)
    truth = scene.values
    m_values = m_values or [3000]
    config = config or SolverConfig(max_iterations=1500, tol=1e-7)

    base_layout = fermat_spiral_layout(grid, q)
    layouts = {q: base_layout}
    for cq in compare_q or []:
        if q % cq == 0:
            layouts[cq] = downsample_layout(base_layout, q // cq)
        else:
            layouts[cq] = fermat_spiral_layout(grid, cq)

    entries = []
    for qq, layout in layouts.items():
        for m in m_values:
            sketches = draw_sketches(qq, m, _child_seed(seed, qq, m))
            op = CombinedOperator(layout, sketches)
            dense = op.as_matrix()
            y = op.forward(truth)
            if rho_values is None:
                scale = float(np.abs(dense.T @ y).max()) / m
                rhos = [scale * 10.0**e for e in rho_scale_exponents]
            else:
                rhos = rho_values
            for rho in rhos:
                res = solve_tv_nonneg(dense, y, rho, config, shape=grid.shape)
                snr = vignetted_snr(res.estimate, truth, scene.vignette)
                entries.append(
                    DemoEntry(q=qq, m=m, rho=float(rho), snr_db=snr,
                              iterations=res.iterations)
                )
                if out_dir is not None:
                    tag = f"q{qq}_m{m}_rho{rho:.3e}"
                    write_pgm(os.path.join(out_dir, f"recon_{tag}.pgm"), res.estimate)
                    write_complex_matrix(
                        os.path.join(out_dir, f"recon_{tag}.cmat"),
                        res.estimate.astype(np.complex128),
                    )

    rs_snr = None
    if include_rs:
        rs_image = rs_scan(scene, base_layout)
        # the raster map carries an arbitrary gain; fit it to the truth
        denom = float(np.sum(rs_image * rs_image))
        if denom > 0:
            rs_image = rs_image * (float(np.sum(rs_image * truth)) / denom)
        rs_snr = vignetted_snr(rs_image, truth, scene.vignette)
        if out_dir is not None:
            write_pgm(os.path.join(out_dir, "rs_mode.pgm"), rs_image)

    report = DemoReport(entries=entries, rs_snr_db=rs_snr)
    if out_dir is not None:
        write_pgm(os.path.join(out_dir, "truth.pgm"), truth)
        payload = {
            "rs_snr_db": rs_snr,
            "entries": [
                {
                    "q": e.q,
                    "m": e.m,
                    "rho": e.rho,
                    "snr_db": e.snr_db,
                    "iterations": e.iterations,
                }
                for e in entries
            ],
        }
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
    return report


# ---------------------------------------------------------------------------
# calibration round trip
# ---------------------------------------------------------------------------


def run_calibration_roundtrip(
    n1: int = 32,
    q: int = 12,
    noise_sigma: float = 0.0,
    n_test_sketches: int = 20,
    perturbation: tuple[str, float] | None = None,
    seed: int = 0,
    out_dir: str | None = None,
) -> dict:
    """Synthesize fields, render fringes, recover, score speckle prediction."""
    from .calibration import recover_fields, render_fringes, speckle_cross_correlation, synth_fields

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    grid = make_grid(2, n1, 1.0)
    layout = fermat_spiral_layout(grid, q)
    fields = synth_fields(layout, grid, perturbation=perturbation, seed=seed)
    stack = render_fringes(fields, noise_sigma=noise_sigma, seed=seed + 1)
    recovered = recover_fields(stack)

    sketches = draw_sketches(q, n_test_sketches, _child_seed(seed, q, n_test_sketches))
    correlations = []
    for alpha in sketches.alphas:
        predicted = recovered.predict_speckle(alpha)
        true = fields.predict_speckle(alpha)
        correlations.append(speckle_cross_correlation(predicted, true))
    report = {
        "n_frames": stack.n_frames,
        "min_cross_correlation": float(np.min(correlations)),
        "mean_cross_correlation": float(np.mean(correlations)),
        "noise_sigma": noise_sigma,
        "q": q,
        "n1": n1,
    }
    if out_dir is not None:
        for idx in range(recovered.order):
            write_complex_matrix(
                os.path.join(out_dir, f"field_{idx:03d}.cmat"),
                recovered.fields[idx],
            )
        manifest = dict(report)
        manifest["fields"] = [f"field_{i:03d}.cmat" for i in range(recovered.order)]
        with open(os.path.join(out_dir, "calibration.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
    return report
