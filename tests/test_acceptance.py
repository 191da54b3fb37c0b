"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (the summary lines are
also appended to ``acceptance_report.txt`` in the working directory).
The statistical criteria use fixed master seeds so outcomes are
reproducible run to run.  Criteria 5, 6 and 10 take minutes each and carry
the ``slow`` marker, so ``pytest -m "not slow"`` leaves them out.
"""

import os
import time

import numpy as np
import pytest

from mcfli import (
    CombinedOperator,
    SceneImage,
    SolverConfig,
    SropOperator,
    draw_sketches,
    explicit_layout,
    fermat_spiral_layout,
    interferometric_matrix,
    make_grid,
    plane_wave_fields,
    random_layout_1d,
    solve_bpdn_l1,
    solve_lasso,
    solve_trace_min_psd,
    sparse_scene,
)
from mcfli.harness import (
    SweepSpec,
    find_core_count_for_visibility_target,
    run_calibration_roundtrip,
    run_imaging_demo,
    run_sweep,
    transition_midpoint,
)

from fixtures import random_hermitian

THREADS = min(os.cpu_count() or 1, 8)
REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    with open(REPORT_PATH, "w") as fh:
        fh.write(f"# acceptance run {time.strftime('%Y-%m-%d %H:%M:%S')}\n")
    yield


def _report(number: int, ok: bool, detail: str, elapsed: float):
    line = (
        f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:7.1f}s] {detail}"
    )
    print(line)
    with open(REPORT_PATH, "a") as fh:
        fh.write(line + "\n")
    assert ok, line


# ---------------------------------------------------------------------------
# 1. FFT path vs direct double-sum oracle
# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(10)
    worst = 0.0
    # 25 one-dimensional pairs at N=256
    g1 = make_grid(1, 256, 1.0)
    for i in range(25):
        q = int(rng.integers(4, 17))
        lay = random_layout_1d(g1, q, seed=(1, i))
        scene = SceneImage(grid=g1, values=rng.standard_normal(g1.shape))
        a = interferometric_matrix(scene, lay)
        b = _direct(scene, lay)
        worst = max(worst, np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
    # 25 two-dimensional pairs at 32x32 on snapped integer combs
    g2 = make_grid(2, 32, 1.0)
    for i in range(25):
        q = int(rng.integers(4, 13))
        slots = rng.choice(33 * 33, size=q, replace=False)
        coords = np.stack([slots // 33 - 16, slots % 33 - 16], axis=1)
        lay = explicit_layout(g2, coords)
        scene = SceneImage(grid=g2, values=rng.standard_normal(g2.shape))
        a = interferometric_matrix(scene, lay)
        b = _direct(scene, lay)
        worst = max(worst, np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"50 pairs, worst relative error {worst:.2e}", elapsed)


def _direct(scene, layout):
    """The oracle: the image summed against the plane waves pixel by pixel."""
    return plane_wave_fields(layout).interferometric_matrix(scene.vignetted_values)


# ---------------------------------------------------------------------------
# 2. adjoint identities
# ---------------------------------------------------------------------------


def test_criterion_02_adjoints():
    t0 = time.time()
    rng = np.random.default_rng(20)
    worst = 0.0

    def check(fwd, adj, vn, zn, make_v=None, make_z=None):
        nonlocal worst
        for _ in range(100):
            v = make_v() if make_v else rng.standard_normal(vn)
            z = make_z() if make_z else rng.standard_normal(zn)
            fv, az = fwd(v), adj(z)
            lhs = np.real(np.sum(np.conj(fv) * z))
            rhs = np.real(np.sum(np.conj(v) * az))
            denom = 0.5 * (
                np.linalg.norm(fv) * np.linalg.norm(z)
                + np.linalg.norm(v) * np.linalg.norm(az)
            )
            worst = max(worst, abs(lhs - rhs) / max(denom, 1e-300))

    # fused operator, 1-D and 2-D
    g1 = make_grid(1, 256, 1.0)
    lay1 = random_layout_1d(g1, 12, seed=21)
    op1 = CombinedOperator(lay1, draw_sketches(12, 40, seed=22))
    check(op1.forward, op1.adjoint, op1.n, op1.m)

    g2 = make_grid(2, 32, 1.0)
    lay2 = fermat_spiral_layout(g2, 20)
    op2 = CombinedOperator(lay2, draw_sketches(20, 30, seed=23))
    check(op2.forward, op2.adjoint, op2.n, op2.m)

    # rank-one projection operator, raw and centered
    def mk_h():
        return random_hermitian(9, seed=rng.integers(2**31))

    raw = SropOperator(draw_sketches(9, 33, seed=24))
    check(raw.forward, raw.adjoint, None, raw.m, make_v=mk_h)
    srop = SropOperator(draw_sketches(9, 33, seed=25))

    def centred_forward(h):
        y = srop.forward(h)
        return y - y.mean()

    check(centred_forward, lambda z: srop.adjoint(z - z.mean()), None, srop.m, make_v=mk_h)

    # gather/scatter and the unitary transform
    def mk_u():
        return rng.standard_normal(g1.n_points) + 1j * rng.standard_normal(g1.n_points)

    def mk_mat():
        return rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))

    check(lay1.gather, lay1.scatter, None, None, make_v=mk_u, make_z=mk_mat)
    check(
        lambda f: g1.fft(f),
        lambda u: g1.ifft(u),
        None,
        None,
        make_v=mk_u,
        make_z=mk_u,
    )

    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(2, ok, f"all adjoint pairs, worst relative error {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 3. deterministic pairwise recovery round trip
# ---------------------------------------------------------------------------


def test_criterion_03_pairwise_roundtrip():
    from mcfli import nyquist_recover, nyquist_sketches

    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(30)
    for q in (2, 3, 5, 8):
        for trial in range(20):
            a = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            h = 0.5 * (a + a.conj().T)
            np.fill_diagonal(h, rng.standard_normal())
            rec = nyquist_recover(SropOperator(nyquist_sketches(q)).forward(h), q)
            worst = max(worst, np.linalg.norm(rec - h) / np.linalg.norm(h))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(3, ok, f"q in {{2,3,5,8}} x 20 matrices, worst {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 4. first/second moment identities of the projections
# ---------------------------------------------------------------------------


def test_criterion_04_moment_identities():
    t0 = time.time()
    q, m = 8, 10**5
    j_mat = random_hermitian(q, seed=40, hollow=True)
    sk = draw_sketches(q, m, seed=41)
    op = SropOperator(sk)
    y = op.forward(j_mat)

    mean_se = y.std(ddof=1) / np.sqrt(m)
    mean_ok = abs(y.mean()) <= 3 * mean_se

    recon = op.adjoint(y) / m
    entry_ok = True
    worst_sigma = 0.0
    for r in range(q):
        for c in range(q):
            if r == c:
                continue
            summand = y * sk[:, r] * np.conj(sk[:, c])
            se = np.sqrt(
                (summand.real.var(ddof=1) + summand.imag.var(ddof=1)) / m
            )
            pull = abs(recon[r, c] - j_mat[r, c]) / max(se, 1e-300)
            worst_sigma = max(worst_sigma, pull)
            entry_ok = entry_ok and pull <= 3.0
    elapsed = time.time() - t0
    ok = mean_ok and entry_ok and elapsed < 30.0
    _report(
        4,
        ok,
        f"|mean|={abs(y.mean()):.2e} (3se={3*mean_se:.2e}), "
        f"worst entry pull {worst_sigma:.2f} sigma",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 5. phase transition vs measurement count (fixed visibility target)
# ---------------------------------------------------------------------------


def _high_success_knee(xs, rates, level=0.95):
    """Smallest abscissa from which the success rate stays at or above level."""
    order = np.argsort(xs)
    xs = np.asarray(xs, dtype=float)[order]
    rates = np.asarray(rates, dtype=float)[order]
    knee = None
    for x, r in zip(xs[::-1], rates[::-1]):
        if r >= level:
            knee = x
        else:
            break
    return knee


@pytest.mark.slow
def test_criterion_05_transition_in_m():
    t0 = time.time()
    q, realized = find_core_count_for_visibility_target(256, 240, seed=0)
    lines = [f"target |V|=240 -> q={q} (realized mean {realized:.1f})"]
    ok = abs(realized - 240) <= 0.02 * 240
    for k in (2, 4, 8):
        ms = sorted(set([2 * k, 3 * k, 4 * k, 5 * k, 6 * k, 7 * k, 8 * k,
                         10 * k, 11 * k + 10]))
        spec = SweepSpec(
            k_values=[k], m_values=ms, q_values=[q], trials=80,
            master_seed=20260809, n1=256,
        )
        res = run_sweep(spec, threads=THREADS)
        rates = {c.m: c.success_rate for c in res.cells}
        high = all(rates[m] >= 0.95 for m in ms if m >= 11 * k + 10)
        low = all(rates[m] <= 0.10 for m in ms if m <= 4 * k)
        mid = transition_midpoint(list(rates), list(rates.values()))
        knee = _high_success_knee(list(rates), list(rates.values()))
        bracket = mid is not None and abs(mid - 11 * k) <= 0.3 * 11 * k
        ok = ok and high and low and bracket
        lines.append(
            f"K={k}: mid={mid:.1f} vs 11K={11 * k} "
            f"(bracket {'ok' if bracket else 'MISS'}; 95%-knee {knee:.0f}), "
            f"rate@{11 * k + 10}={rates[11 * k + 10]:.2f}, "
            f"rate@{4 * k}={rates[4 * k]:.2f}"
        )
    elapsed = time.time() - t0
    ok = ok and elapsed < 1800.0
    _report(5, ok, "; ".join(lines), elapsed)


# ---------------------------------------------------------------------------
# 6. phase transition vs visibility count (fixed measurement count)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_06_transition_in_visibilities():
    t0 = time.time()
    m_fixed = 122
    lines = []
    ok = True
    qs = [3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18, 24]
    for k in (4, 8):
        spec = SweepSpec(
            k_values=[k], m_values=[m_fixed], q_values=qs, trials=80,
            master_seed=20260810, n1=256,
        )
        res = run_sweep(spec, threads=THREADS)
        vis = [c.mean_visibilities for c in res.cells]
        rates = [c.success_rate for c in res.cells]
        mid = transition_midpoint(vis, rates)
        knee = _high_success_knee(vis, rates)
        bracket = mid is not None and abs(mid - 10 * k) <= 0.3 * 10 * k
        ok = ok and bracket
        # large-q departure: nominal pair count outruns realized visibilities
        big = res.cells[-1]
        lines.append(
            f"K={k}: |V|-mid={mid:.1f} vs 10K={10 * k} "
            f"({'ok' if bracket else 'MISS'}; 95%-knee {knee:.0f}); "
            f"large-q departure at q={big.q}: "
            f"q(q-1)={big.q * (big.q - 1)} vs realized |V|={big.mean_visibilities:.0f}"
        )
    elapsed = time.time() - t0
    _report(6, ok, "; ".join(lines), elapsed)


# ---------------------------------------------------------------------------
# 7. trace minimization on the PSD cone
# ---------------------------------------------------------------------------


def test_criterion_07_trace_min():
    t0 = time.time()
    rng = np.random.default_rng(70)
    q = 6
    v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    truth = np.outer(v, v.conj())

    sk = draw_sketches(q, 24, seed=71)
    op = SropOperator(sk)
    res = solve_trace_min_psd(op, op.forward(truth), 0.0)
    rel = np.linalg.norm(res.estimate - truth) / np.linalg.norm(truth)

    sk4 = draw_sketches(q, 4, seed=72)
    op4 = SropOperator(sk4)
    res4 = solve_trace_min_psd(
        op4, op4.forward(truth), 0.0, SolverConfig(max_iterations=6000)
    )
    rel4 = np.linalg.norm(res4.estimate - truth) / np.linalg.norm(truth)

    elapsed = time.time() - t0
    ok = rel <= 1e-3 and rel4 > 0.5 and elapsed < 120.0
    _report(
        7, ok,
        f"m=24: relative error {rel:.2e} (<=1e-3); m=4: {rel4:.2f} (>0.5)",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 8. calibration round trip
# ---------------------------------------------------------------------------


def test_criterion_08_calibration_roundtrip():
    t0 = time.time()
    clean = run_calibration_roundtrip(
        n1=32, q=12, noise_sigma=0.0, n_test_sketches=20,
        perturbation=("phase-aberration", 0.3), seed=80,
    )
    noisy = run_calibration_roundtrip(
        n1=32, q=12, noise_sigma=0.01, n_test_sketches=20,
        perturbation=("phase-aberration", 0.3), seed=80,
    )
    elapsed = time.time() - t0
    ok = (
        clean["min_cross_correlation"] >= 0.999
        and noisy["min_cross_correlation"] >= 0.99
    )
    _report(
        8, ok,
        f"noiseless min xcorr {clean['min_cross_correlation']:.5f} (>=0.999), "
        f"1% noise {noisy['min_cross_correlation']:.5f} (>=0.99); the hardware "
        f"figure is out of scope",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 9. program equivalences
# ---------------------------------------------------------------------------


def _pipeline_instance(seed, k, q, m, noise_rel=0.0):
    ss = np.random.SeedSequence(seed)
    s1, s2, s3, s4 = ss.spawn(4)
    grid = make_grid(1, 256, 1.0)
    layout = random_layout_1d(grid, q, s1)
    sketches = draw_sketches(q, m, s2)
    scene = sparse_scene(grid, k, s3, zero_mean=True)
    op = CombinedOperator(layout, sketches)
    truth = scene.values.ravel()
    y = op.forward(truth)
    eps = 0.0
    if noise_rel:
        rng = np.random.default_rng(s4)
        noise = rng.normal(0, noise_rel * np.abs(y).mean(), y.size)
        noise -= noise.mean()
        y = y + noise
        eps = float(np.abs(noise).sum())
    return op.as_matrix(), y, truth, eps


def test_criterion_09_program_equivalences():
    t0 = time.time()
    worst_rel = 0.0
    for i in range(20):
        dense, y, truth, _ = _pipeline_instance((90, i), 2 + i % 2, 22, 58)
        xb = solve_bpdn_l1(dense, y, 0.0).estimate
        xl = solve_lasso(dense, y, float(np.abs(truth).sum())).estimate
        worst_rel = max(
            worst_rel, np.linalg.norm(xb - xl) / np.linalg.norm(xl)
        )
    agree_ok = worst_rel <= 1e-4

    errs_full, errs_half = [], []
    for i in range(10):
        dense, y, truth, eps = _pipeline_instance((91, i), 3, 20, 60, noise_rel=0.02)
        errs_full.append(
            np.linalg.norm(solve_bpdn_l1(dense, y, eps).estimate - truth)
        )
        errs_half.append(
            np.linalg.norm(solve_bpdn_l1(dense, y, eps / 2).estimate - truth)
        )
    # the instance-optimality bound shrinks with the budget; on a fixed noise
    # realization the pointwise error is not monotone, so the direction is
    # tested on the ensemble mean over the 10 instances
    mono_ok = float(np.mean(errs_half)) <= float(np.mean(errs_full))
    elapsed = time.time() - t0
    ok = agree_ok and mono_ok
    _report(
        9, ok,
        f"20 noiseless instances worst agreement {worst_rel:.2e} (<=1e-4); "
        f"mean error {np.mean(errs_full):.3e} -> {np.mean(errs_half):.3e} "
        f"when the budget halves",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 10. imaging demo ordering
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_demo_ordering():
    t0 = time.time()
    report = run_imaging_demo(
        n1=64, q=110, m_values=[3000], compare_q=[55], seed=100,
        rho_scale_exponents=(-2.5, -2.0),
        config=SolverConfig(max_iterations=2000, tol=1e-8),
        include_rs=True,
    )
    snr_110 = report.plateau_snr(110)
    snr_55 = report.plateau_snr(55)
    elapsed = time.time() - t0
    ok = snr_110 > snr_55
    _report(
        10, ok,
        f"plateau SNR q=110 {snr_110:.2f} dB > q=55 {snr_55:.2f} dB "
        f"(rs-mode reference {report.rs_snr_db:.2f} dB); hardware SNRs are "
        f"out of scope",
        elapsed,
    )
