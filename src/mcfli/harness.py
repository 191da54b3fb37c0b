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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .calibration import recover_fields, render_fringes, speckle_cross_correlation, synth_fields
from .grid import make_grid
from .layout import downsample_layout, fermat_spiral_layout, random_layout_1d
from .scene import bar_target_scene, sparse_scene
from .sensing import CombinedOperator, VisibilityOperator, rs_scan
from .serialization import scene_from_json, write_pgm
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
# the recovery programs a trial can run, in the order the CLI offers them
SOLVERS = ("lasso", "bpdn")
# random layouts averaged per core count when a sweep targets a visibility count
VISIBILITY_PROBES = 256


def _child_seed(master: int, *parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master),) + tuple(int(p) for p in parts))


def _spawn(seed, count: int) -> list[np.random.SeedSequence]:
    """The first ``count`` children of ``seed`` (an entropy or a
    ``SeedSequence``), with the bits ``SeedSequence.spawn`` gives on a fresh
    sequence.  They are derived without spawning, which would advance a
    caller's sequence and give a second call on it other children."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size)
        for i in range(count)
    ]


def _draw_operator(seed, q: int, m: int, n1: int):
    """The 1-D operator of a trial or a RIP estimate, and what is left of
    the seed.

    The seed's first child draws the layout on an ``n1``-point grid and its
    second the ``m`` sketches; the third, returned with the operator, draws
    what the operator is applied to (the scene or the probes).
    """
    s_layout, s_sketch, s_rest = _spawn(seed, 3)
    grid = make_grid(1, n1, 1.0)
    layout = random_layout_1d(grid, q, s_layout)
    sketches = draw_sketches(q, m, s_sketch)
    return CombinedOperator(layout, sketches), s_rest


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
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    op, s_scene = _draw_operator(seed, q, m, n1)
    scene = sparse_scene(op.grid, k, s_scene, zero_mean=True)
    y = op.forward(scene.values)
    dense = op.as_matrix()
    truth = scene.values.ravel()

    if solver == "lasso":
        result = solve_lasso(dense, y, float(np.abs(truth).sum()), config)
    else:
        result = solve_bpdn_l1(dense, y, 0.0, config)

    if np.linalg.norm(truth) == 0:
        snr = SNR_CAP_DB if np.linalg.norm(result.estimate) == 0 else 0.0
    else:
        snr = vignetted_snr(result.estimate, truth)
    return TrialResult(
        snr_db=snr,
        success=snr >= threshold_db,
        visibilities=op.layout.distinct_visibilities,
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

    def __post_init__(self):
        if not self.k_values or not self.m_values:
            raise ValueError("k_values and m_values must be nonempty")
        if bool(self.q_values) == bool(self.vis_targets):
            raise ValueError("set exactly one of q_values or vis_targets")
        if min(self.q_values, default=2) < 2:
            raise ValueError(f"q={min(self.q_values)} is below 2: one core has no core pairs")
        if min(self.vis_targets, default=1) < 1:
            raise ValueError(f"vis={min(self.vis_targets)} is below 1")
        if min(self.k_values) < 1:
            raise ValueError(f"k={min(self.k_values)} is below 1")
        if min(self.m_values) < 1:
            raise ValueError(f"m={min(self.m_values)} is below 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.threshold_db > 0:  # NaN included
            raise ValueError("threshold must be positive")
        make_grid(1, self.n1, 1.0)  # raises on an n1 no grid takes
        if max(self.k_values) > self.n1:
            raise ValueError(f"k={max(self.k_values)} exceeds the grid size {self.n1}")
        if max(self.q_values, default=2) > self.n1 + 1:
            raise ValueError(
                f"q={max(self.q_values)} exceeds the {self.n1 + 1} distinct grid positions"
            )
        # the whole comb (every layout at q = n1 + 1) hits all n1 - 1 nonzero
        # bins: no core count reaches a larger mean
        if max(self.vis_targets, default=1) > self.n1 - 1:
            raise ValueError(
                f"vis={max(self.vis_targets)} exceeds the {self.n1 - 1} distinct "
                f"visibilities that the whole comb of {self.n1 + 1} cores reaches"
            )
        if self.master_seed < 0:
            raise ValueError(f"master_seed={self.master_seed} is below 0")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")


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
    cells: list[SweepCell]

    def to_csv(self) -> str:
        """One row per cell under a header of the ``SweepCell`` field names;
        an unset ``vis_target`` is an empty column."""
        lines = [",".join(f.name for f in fields(SweepCell))]
        lines.extend(
            ",".join("" if v is None else str(v) for v in astuple(cell))
            for cell in self.cells
        )
        return "\n".join(lines) + "\n"


def mean_visibility_count(n1: int, q: int, seed) -> float:
    """Monte-Carlo mean of the distinct-visibility count at ``q``."""
    grid = make_grid(1, n1, 1.0)
    base = np.random.SeedSequence((int(seed), q, 777))
    counts = [
        random_layout_1d(grid, q, s).distinct_visibilities
        for s in base.spawn(VISIBILITY_PROBES)
    ]
    return float(np.mean(counts))


def find_core_count_for_visibility_target(n1: int, target: int, seed) -> tuple[int, float]:
    """Smallest-error core count whose mean distinct-visibility count
    brackets ``target``; returns ``(q, realized mean)``.

    The mean grows monotonically with ``q``, so the scan stops at the first
    crossing and keeps the closer side; any mismatch is reported through the
    realized mean.
    """
    prev: tuple[int, float] | None = None
    q = 2
    while q <= n1:
        mean = mean_visibility_count(n1, q, seed)
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
                    (k, q, m, _child_seed(spec.master_seed, k, q, m, t),
                     spec.solver, spec.n1, spec.threshold_db)
                    for t in range(spec.trials)
                )

    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            flat = list(pool.map(run_trial, *zip(*jobs), chunksize=8))
    else:
        flat = [run_trial(*args) for args in jobs]

    cells = []
    for i, (k, q, m, target) in enumerate(cell_keys):
        rows = flat[i * spec.trials : (i + 1) * spec.trials]
        snrs = np.array([r.snr_db for r in rows])
        succ = np.array([r.success for r in rows])
        vis = np.array([r.visibilities for r in rows], dtype=float)
        iters = np.array([r.iterations for r in rows], dtype=float)
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
    return SweepResult(cells=cells)


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
    visibilities: int
    trials: int


def _rip_extremes(op: CombinedOperator, probes: np.ndarray) -> RipEstimate:
    """Extremes of ``||B v||_1 / (m ||v||)`` over the columns ``v`` of
    ``probes`` (one product with the dense map)."""
    ratios = np.abs(op.as_matrix() @ probes).sum(axis=0) / (
        op.m * np.linalg.norm(probes, axis=0)
    )
    return RipEstimate(
        lower=float(ratios.min()),
        upper=float(ratios.max()),
        visibilities=op.layout.distinct_visibilities,
        trials=probes.shape[1],
    )


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
    if k0 < 1:
        raise ValueError("probe vectors need at least one nonzero")
    op, s_probe = _draw_operator(seed, q, m, n1)
    rng = np.random.default_rng(s_probe)
    probes = np.zeros((op.n, trials))
    for t in range(trials):
        support = rng.choice(op.n, size=k0, replace=False)
        vals = rng.standard_normal(k0)
        if k0 > 1:
            vals -= vals.mean()
        probes[support, t] = vals
    return _rip_extremes(op, probes)


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
    converged: bool  # the TV solver's flag: False after an iteration-cap hit


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
    rho_scale_exponents: tuple = (-3.0, -2.0, -1.0),
    seed: int = 0,
    include_rs: bool = True,
    config: SolverConfig | None = None,
) -> DemoReport:
    """Simulated 2-D imaging run: spiral layout, projections, TV recovery.

    Reconstructs a resolution-target cartoon for each (core count,
    measurement count) pair, sweeping the TV weight logarithmically (powers
    ``rho_scale_exponents`` of the data scale) and keeping the best SNR.
    The solves run on the map in visibility coordinates
    (:class:`~mcfli.sensing.VisibilityOperator`), with the pixel solve's
    results to rounding: at the default ``m = 3000`` against ``D = 2460``
    coordinates, on the upper triangle of its symmetric ``D x D`` Gram (about
    half of the full Gram's memory), one Gram product per iteration in place
    of two products with the ``(m, n)`` pixel matrix; below ``m = D``, on its
    ``(m, D)`` factor.  Each entry carries the solver's ``converged`` flag,
    so a solve that stopped at the iteration cap shows.  Writes
    graymaps, ``.npy`` arrays and a JSON report when ``out_dir`` is set.  Also
    images the scene in raster-scanning mode for comparison.
    """
    if scene_path is not None:
        with open(scene_path) as fh:
            scene = scene_from_json(fh.read())
        grid = scene.grid
    else:
        grid = make_grid(2, n1, 1.0)
        scene = bar_target_scene(grid)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
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
            y = op.forward(truth)
            # the map in visibility coordinates, one operator per (q, m):
            # its dense form and norm bound are built once for every TV weight
            dense_op = VisibilityOperator(op)
            scale = float(np.abs(dense_op.adjoint(y)).max()) / m
            for e in rho_scale_exponents:
                rho = scale * 10.0**e
                res = solve_tv_nonneg(dense_op, y, rho, config, shape=grid.shape)
                snr = vignetted_snr(res.estimate, truth, scene.vignette)
                entries.append(
                    DemoEntry(q=qq, m=m, rho=float(rho), snr_db=snr,
                              iterations=res.iterations, converged=res.converged)
                )
                if out_dir is not None:
                    tag = f"q{qq}_m{m}_rho{rho:.3e}"
                    write_pgm(os.path.join(out_dir, f"recon_{tag}.pgm"), res.estimate)
                    np.save(os.path.join(out_dir, f"recon_{tag}.npy"), res.estimate)

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
        payload = {"rs_snr_db": rs_snr, "entries": [asdict(e) for e in entries]}
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
    """Synthesize fields, render fringes, recover, score speckle prediction.

    With ``out_dir`` set, writes the recovered ``(q, n1, n1)`` field stack to
    ``fields.npy`` and the report, naming that file, to ``calibration.json``.
    """
    grid = make_grid(2, n1, 1.0)
    layout = fermat_spiral_layout(grid, q)
    wavefields = synth_fields(layout, perturbation=perturbation, seed=seed)
    stack = render_fringes(wavefields, noise_sigma=noise_sigma, seed=seed + 1)
    recovered = recover_fields(stack)

    sketches = draw_sketches(q, n_test_sketches, _child_seed(seed, q, n_test_sketches))
    predicted = recovered.predict_speckle(sketches)
    true = wavefields.predict_speckle(sketches)
    correlations = [speckle_cross_correlation(p, t) for p, t in zip(predicted, true)]
    report = {
        "n_frames": stack.n_frames,
        "min_cross_correlation": float(np.min(correlations)),
        "mean_cross_correlation": float(np.mean(correlations)),
        "noise_sigma": noise_sigma,
        "q": q,
        "n1": n1,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        np.save(os.path.join(out_dir, "fields.npy"), recovered.fields)
        manifest = dict(report, fields="fields.npy")
        with open(os.path.join(out_dir, "calibration.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
    return report
