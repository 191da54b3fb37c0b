import numpy as np
import pytest

from mcfli.harness import (
    SweepSpec,
    estimate_rip_constants,
    find_core_count_for_visibility_target,
    mean_visibility_count,
    rip_pair_extremes,
    run_calibration_roundtrip,
    run_sweep,
    run_trial,
    transition_midpoint,
)
from mcfli import CombinedOperator, draw_sketches, make_grid, random_layout_1d
from mcfli.solvers.config import MAX_ITERATIONS_DEFAULT
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


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = SweepSpec(
        k_values=[1], m_values=[12], q_values=[6], trials=2,
        master_seed=0, n1=64, out_path=str(out),
    )
    result = run_sweep(spec)
    assert out.read_text() == result.to_csv()
    header = out.read_text().splitlines()[0]
    assert header.startswith("k,q,m,vis_target,trials,success_rate")


def test_visibility_targeting_monotone():
    m1, _ = mean_visibility_count(256, 8, seed=0)
    m2, _ = mean_visibility_count(256, 16, seed=0)
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


def test_rip_lower_positive_in_recovery_regime():
    est = estimate_rip_constants(2, 16, 32, trials=150, seed=1)
    assert est.lower > 0
    assert est.upper >= est.lower
    assert est.upper_ratio <= (8.0 / 3.0) * 1.2


def test_rip_pair_extremes_match_enumeration():
    # oracle: evaluate the ratio for every difference pair via the operator
    q, m, n1, seed = 5, 24, 16, 3
    est = rip_pair_extremes(q, m, seed, n1=n1)
    ss = np.random.SeedSequence(seed)
    s_layout, s_sketch = ss.spawn(2)
    grid = make_grid(1, n1, 1.0)
    layout = random_layout_1d(grid, q, s_layout)
    sketches = draw_sketches(q, m, s_sketch)
    op = CombinedOperator(layout, sketches)
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
    assert (tmp_path / "field_000.cmat").exists()
