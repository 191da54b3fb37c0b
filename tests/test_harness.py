import numpy as np
import pytest

from mcfli.harness import (
    SOLVERS,
    SweepResult,
    SweepSpec,
    _rip_extremes,
    estimate_rip_constants,
    find_core_count_for_visibility_target,
    mean_visibility_count,
    run_calibration_roundtrip,
    run_imaging_demo,
    run_sweep,
    run_trial,
    transition_midpoint,
)
from mcfli import (
    CombinedOperator,
    bar_target_scene,
    draw_sketches,
    fermat_spiral_layout,
    make_grid,
    random_layout_1d,
)
from mcfli.solvers import MatrixOperator, linop, solve_tv_nonneg, vignetted_snr
from mcfli.solvers.config import MAX_ITERATIONS_DEFAULT, SolverConfig
from mcfli.solvers.metrics import SNR_CAP_DB


def test_zero_sparsity_trial_succeeds():
    r = run_trial(0, 8, 16, seed=0, n1=64)
    assert r.success
    assert r.snr_db == SNR_CAP_DB


def test_trial_succeeds_in_white_region():
    # the published operating point: K=4, M=122, visibilities near 240
    q, mean = find_core_count_for_visibility_target(256, 240, seed=0)
    assert abs(mean - 240) <= 0.02 * 240
    r = run_trial(4, q, 122, seed=1)
    assert r.success
    assert r.visibilities <= q * (q - 1)


def test_trial_fails_below_transition():
    r = run_trial(10, 16, 20, seed=2)
    assert not r.success


def test_cap_hit_trial_reports_not_converged():
    # acceptance block (master seed 20260809), cell K=4, q=4, M=122: trial 2
    # runs into the iteration cap, trial 23 converges to a wrong point
    def seed(t):
        return np.random.SeedSequence((20260809, 4, 4, 122, t))

    capped = run_trial(4, 4, 122, seed(2))
    assert not capped.converged
    assert capped.iterations == MAX_ITERATIONS_DEFAULT
    assert not capped.success
    failed = run_trial(4, 4, 122, seed(23))
    assert failed.converged
    assert failed.iterations < MAX_ITERATIONS_DEFAULT
    assert not failed.success


def test_seed_sequences_are_not_consumed():
    # a SeedSequence passed twice gives the same draws, and the same as a
    # fresh sequence of that entropy
    def seed():
        return np.random.SeedSequence((20260809, 4, 26, 98, 0))

    ss = seed()
    first, second = run_trial(4, 26, 98, ss), run_trial(4, 26, 98, ss)
    assert first == second == run_trial(4, 26, 98, seed())
    rip = estimate_rip_constants(2, 6, 20, trials=100, seed=ss, n1=32)
    assert rip == estimate_rip_constants(2, 6, 20, trials=100, seed=ss, n1=32)
    assert rip == estimate_rip_constants(2, 6, 20, trials=100, seed=seed(), n1=32)


def test_trial_rejects_bad_args():
    with pytest.raises(ValueError):
        run_trial(300, 8, 10, seed=0, n1=256)
    with pytest.raises(ValueError):
        run_trial(2, 1, 10, seed=0)
    with pytest.raises(ValueError):
        run_trial(2, 8, 10, seed=0, solver="nope")


def test_single_cell_sweep_matches_trial():
    spec = SweepSpec(
        k_values=[3], m_values=[40], q_values=[12], trials=1,
        master_seed=5, n1=128,
    )
    result = run_sweep(spec)
    assert len(result.cells) == 1
    cell = result.cells[0]
    seed = np.random.SeedSequence((5, 3, 12, 40, 0))
    ref = run_trial(3, 12, 40, seed, n1=128)
    assert cell.success_rate == float(ref.success)
    assert cell.mean_snr_db == ref.snr_db
    assert cell.mean_visibilities == ref.visibilities


def test_sweep_csv_deterministic_and_thread_invariant():
    spec = dict(
        k_values=[2], m_values=[16, 24], q_values=[8], trials=4,
        master_seed=7, n1=64,
    )
    a = run_sweep(SweepSpec(**spec)).to_csv()
    b = run_sweep(SweepSpec(**spec)).to_csv()
    c = run_sweep(SweepSpec(**spec), threads=2).to_csv()
    assert a == b == c


def test_sweep_visibility_bounds():
    spec = SweepSpec(
        k_values=[2], m_values=[30], q_values=[10, 16], trials=8,
        master_seed=9, n1=256,
    )
    result = run_sweep(spec)
    for cell in result.cells:
        assert cell.mean_visibilities <= cell.q * (cell.q - 1)
        assert cell.std_visibilities <= 0.08 * 256


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(k_values=[], m_values=[1], q_values=[4])
    with pytest.raises(ValueError):
        SweepSpec(k_values=[1], m_values=[1])
    with pytest.raises(ValueError):
        SweepSpec(k_values=[1], m_values=[1], q_values=[4], vis_targets=[10])
    with pytest.raises(ValueError):
        SweepSpec(k_values=[1], m_values=[1], q_values=[4], trials=0)
    # the values the sweep flags refuse
    for bad in (
        dict(k_values=[-1]),
        dict(k_values=[4, 0]),
        dict(master_seed=-1),
        dict(q_values=[8], n1=4),
        dict(q_values=[], vis_targets=[8], n1=8),
    ):
        with pytest.raises(ValueError):
            SweepSpec(**{"k_values": [1], "m_values": [1], "q_values": [4], **bad})
    # a solver is checked where the spec is built, not at the first trial
    # (in a worker when threads > 1)
    for solver in SOLVERS:
        SweepSpec(k_values=[1], m_values=[1], q_values=[4], solver=solver)
    with pytest.raises(ValueError, match="unknown solver 'lp'"):
        SweepSpec(k_values=[1], m_values=[1], q_values=[4], solver="lp")
    # the largest target taken is the whole comb's count, which is the mean
    # the core-count scan reaches at its last step
    SweepSpec(k_values=[1], m_values=[1], vis_targets=[7], n1=8)
    assert mean_visibility_count(8, 8, seed=0) == 7.0


def test_sweep_writes_csv():
    # the header is the SweepCell field names, so renaming a field changes
    # the CSV; this pins the columns
    spec = SweepSpec(k_values=[1], m_values=[12], q_values=[6], trials=2, n1=64)
    assert SweepResult(cells=[]).to_csv() == (
        "k,q,m,vis_target,trials,success_rate,mean_visibilities,"
        "std_visibilities,mean_snr_db,mean_iterations\n"
    )
    lines = run_sweep(spec).to_csv().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1,6,12,,2,")


def test_visibility_targeting_monotone():
    m1 = mean_visibility_count(256, 8, seed=0)
    m2 = mean_visibility_count(256, 16, seed=0)
    assert m2 > m1


def test_success_rate_monotone_in_m_within_noise():
    # statistical invariant: for fixed sparsity and layout size, success
    # cannot drop with more measurements beyond binomial noise
    trials = 30
    spec = SweepSpec(
        k_values=[2], m_values=[8, 14, 20, 26, 34], q_values=[10],
        trials=trials, master_seed=11, n1=64,
    )
    cells = run_sweep(spec, threads=1).cells
    rates = [c.success_rate for c in sorted(cells, key=lambda c: c.m)]
    for lo, hi in zip(rates, rates[1:]):
        sigma = np.sqrt(max(lo * (1 - lo), 0.25 / trials) / trials)
        assert hi >= lo - 2 * sigma


def test_transition_midpoint_interpolation():
    assert transition_midpoint([10, 20, 30], [0.0, 0.25, 1.0]) == pytest.approx(
        20 + 10 * (0.5 - 0.25) / 0.75
    )
    assert transition_midpoint([10, 20], [0.9, 1.0]) == 10.0
    assert transition_midpoint([10, 20], [0.0, 0.2]) is None


# ---------------------------------------------------------------------------
# restricted isometry estimates
# ---------------------------------------------------------------------------


def test_rip_requires_enough_probes():
    with pytest.raises(ValueError):
        estimate_rip_constants(2, 8, 20, trials=10, seed=0)
    with pytest.raises(ValueError):
        estimate_rip_constants(0, 8, 20, trials=100, seed=0)


def test_rip_lower_positive_in_recovery_regime():
    est = estimate_rip_constants(2, 16, 32, trials=150, seed=1)
    assert est.lower > 0
    assert est.upper >= est.lower


def test_rip_pair_extremes_match_enumeration():
    # oracle: evaluate the ratio for every difference pair e_j - e_k through
    # the operator, one probe at a time, against one product with the dense map
    q, m, n1 = 5, 24, 16
    s_layout, s_sketch = np.random.SeedSequence(3).spawn(2)
    layout = random_layout_1d(make_grid(1, n1, 1.0), q, s_layout)
    op = CombinedOperator(layout, draw_sketches(q, m, s_sketch))
    rows, cols = np.triu_indices(n1, 1)
    identity = np.eye(n1)
    est = _rip_extremes(op, identity[:, rows] - identity[:, cols])
    ratios = []
    for j in range(n1):
        for k in range(j + 1, n1):
            v = np.zeros(n1)
            v[j], v[k] = 1.0, -1.0
            ratios.append(np.abs(op.forward(v)).sum() / (m * np.linalg.norm(v)))
    assert est.lower == pytest.approx(min(ratios), rel=1e-10)
    assert est.upper == pytest.approx(max(ratios), rel=1e-10)
    assert est.trials == n1 * (n1 - 1) // 2


# ---------------------------------------------------------------------------
# calibration round trip driver
# ---------------------------------------------------------------------------


def test_calibration_roundtrip_driver(tmp_path):
    report = run_calibration_roundtrip(
        n1=16, q=5, noise_sigma=0.0, n_test_sketches=5, seed=0,
        out_dir=str(tmp_path),
    )
    assert report["min_cross_correlation"] >= 0.999
    assert report["n_frames"] == 8 * 5 + 1
    assert (tmp_path / "calibration.json").exists()
    assert (tmp_path / "fields.npy").exists()


def test_imaging_demo_runs_lanczos_once_per_operator(monkeypatch):
    runs = []
    lanczos = linop._lanczos_norm

    def counted(op):
        runs.append(op)
        return lanczos(op)

    monkeypatch.setattr(linop, "_lanczos_norm", counted)
    # the bar target needs n1 >= 64; q and m keep the solve small
    report = run_imaging_demo(
        n1=64, q=12, m_values=[60], rho_scale_exponents=(-2.0, -1.0),
        include_rs=False, config=SolverConfig(max_iterations=5),
    )
    assert [(e.q, e.m) for e in report.entries] == [(12, 60), (12, 60)]
    assert len(runs) == 1


def test_imaging_demo_matches_the_pixel_matrix_solve(tmp_path):
    # the demo solves on the map in visibility coordinates (D = 128 for 12
    # cores): on its factor C at m = 60, on its Gram at m = 140.  The same
    # solve on the pixel matrix gives the same estimate and SNR
    n1, q, seed, exponent = 64, 12, 3, -2.0
    config = SolverConfig(max_iterations=200, tol=1e-8)
    report = run_imaging_demo(
        out_dir=str(tmp_path), n1=n1, q=q, m_values=[60, 140],
        rho_scale_exponents=(exponent,), seed=seed, include_rs=False, config=config,
    )
    grid = make_grid(2, n1, 1.0)
    scene = bar_target_scene(grid)
    for entry in report.entries:
        m = entry.m
        sketches = draw_sketches(q, m, np.random.SeedSequence((seed, q, m)))
        op = CombinedOperator(fermat_spiral_layout(grid, q), sketches)
        dense = op.as_matrix()
        y = op.forward(scene.values)
        rho = float(np.abs(dense.T @ y).max()) / m * 10.0**exponent
        res = solve_tv_nonneg(MatrixOperator(dense), y, rho, config, shape=grid.shape)
        assert entry.rho == pytest.approx(rho, rel=1e-12)
        assert entry.iterations == res.iterations
        snr = vignetted_snr(res.estimate, scene.values, scene.vignette)
        assert abs(entry.snr_db - snr) <= 1e-6
        estimate = np.load(tmp_path / f"recon_q{q}_m{m}_rho{entry.rho:.3e}.npy")
        assert np.linalg.norm(estimate - res.estimate) <= 1e-8 * np.linalg.norm(res.estimate)
    assert [e.m for e in report.entries] == [60, 140]
