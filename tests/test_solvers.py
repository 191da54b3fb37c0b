import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfli import (
    CombinedOperator,
    SolverConfig,
    draw_sketches,
    fermat_spiral_layout,
    make_grid,
    random_layout_1d,
    rectangles_scene,
    solve_bpdn_l1,
    solve_lasso,
    solve_trace_min_psd,
    solve_tv_nonneg,
    sparse_scene,
    vignetted_snr,
)
from mcfli.sensing import SropOperator, srop_forward
from mcfli.solvers import (
    MatrixOperator,
    grad2d,
    div2d,
    operator_norm,
    project_l1_ball,
    project_l1_ball_bisection,
    project_psd_cone,
    tv_norm,
)
from mcfli.solvers.lasso import SAFEGUARD_WINDOW
from mcfli.solvers.linop import LANCZOS_RTOL


def noiseless_instance(k=2, q=24, m=60, n1=256, seed=0):
    ss = np.random.SeedSequence(seed)
    s1, s2, s3 = ss.spawn(3)
    grid = make_grid(1, n1, 1.0)
    layout = random_layout_1d(grid, q, s1)
    sketches = draw_sketches(q, m, s2)
    scene = sparse_scene(grid, k, s3, zero_mean=True)
    op = CombinedOperator(layout, sketches)
    truth = scene.values.ravel()
    return op.as_matrix(), op.forward(truth), truth


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def hermitian_basis(q):
    """Frobenius-orthonormal real basis of the q x q Hermitian matrices."""
    basis = []
    for j in range(q):
        e = np.zeros((q, q), dtype=np.complex128)
        e[j, j] = 1.0
        basis.append(e)
        for k in range(j + 1, q):
            sym = np.zeros((q, q), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            anti = np.zeros((q, q), dtype=np.complex128)
            anti[j, k], anti[k, j] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            basis += [sym, anti]
    return basis


def assert_norm_bound(bound, exact):
    """The Lanczos norm lies above the exact norm, by at most LANCZOS_RTOL."""
    assert exact * (1 - 1e-12) <= bound <= exact * (1 + LANCZOS_RTOL)


class CountingOperator(MatrixOperator):
    """Dense operator that counts its forward applications."""

    forward_calls = 0

    def forward(self, v):
        self.forward_calls += 1
        return super().forward(v)


def test_operator_norm_dense_bound():
    b = np.random.default_rng(0).standard_normal((30, 50))
    assert_norm_bound(operator_norm(MatrixOperator(b)), np.linalg.norm(b, 2))


def test_operator_norm_zero_matrix_is_zero():
    assert operator_norm(MatrixOperator(np.zeros((6, 9)))) == 0.0


def test_operator_norm_rank_deficient_stops_with_krylov_space():
    # rank 3: the Krylov space of a generic start has dimension 4, so
    # Lanczos stops there instead of running on to its basis cap
    rng = np.random.default_rng(1)
    b = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 60))
    op = CountingOperator(b)
    assert_norm_bound(operator_norm(op), np.linalg.norm(b, 2))
    assert op.forward_calls <= 4


def test_operator_norm_combined_1d():
    grid = make_grid(1, 64, 1.0)
    op = CombinedOperator(random_layout_1d(grid, 10, 1), draw_sketches(10, 40, 2))
    assert_norm_bound(operator_norm(op), np.linalg.norm(op.as_matrix(), 2))


def test_operator_norm_combined_2d_matrix_free_matches_dense():
    grid = make_grid(2, 16, 1.0)
    op = CombinedOperator(fermat_spiral_layout(grid, 12), draw_sketches(12, 60, 4))
    dense = op.as_matrix()
    matrix_free = operator_norm(op)
    assert abs(matrix_free - operator_norm(MatrixOperator(dense))) <= (
        LANCZOS_RTOL * matrix_free
    )
    assert_norm_bound(matrix_free, np.linalg.norm(dense, 2))


def test_operator_norm_centered_srop():
    op = SropOperator(draw_sketches(5, 30, 3), centered=True)
    matrix = np.column_stack([op.forward(e) for e in hermitian_basis(op.q)])
    assert_norm_bound(operator_norm(op), np.linalg.norm(matrix, 2))


def test_operator_norm_srop_basis_stays_hermitian():
    # q=3 leaves a 9-dimensional Hermitian domain, which the Krylov space
    # fills; rounding would otherwise leave anti-Hermitian residue in the
    # late basis vectors, which SropOperator.forward rejects
    op = SropOperator(draw_sketches(3, 60, 0), centered=False)
    matrix = np.column_stack([op.forward(e) for e in hermitian_basis(op.q)])
    assert_norm_bound(operator_norm(op), np.linalg.norm(matrix, 2))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_l1_projection_inside_ball_is_identity():
    v = np.array([0.2, -0.1, 0.05])
    assert np.array_equal(project_l1_ball(v, 1.0), v)


def test_l1_projection_zero_radius():
    assert np.all(project_l1_ball(np.array([1.0, -2.0]), 0.0) == 0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=200),
    radius=st.floats(min_value=1e-6, max_value=50.0),
)
def test_l1_projection_matches_bisection_oracle(seed, n, radius):
    v = np.random.default_rng(seed).standard_normal(n) * 3
    a = project_l1_ball(v, radius)
    b = project_l1_ball_bisection(v, radius)
    assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(v).max())
    assert np.abs(a).sum() <= radius * (1 + 1e-9) + 1e-12


def test_psd_projection():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (a + a.conj().T)
    p = project_psd_cone(h)
    w = np.linalg.eigvalsh(p)
    assert w.min() >= -1e-12 * max(w.max(), 1.0)
    # projection is idempotent and exactly Hermitian
    assert np.array_equal(p, p.conj().T)
    assert np.allclose(project_psd_cone(p), p, atol=1e-12)


def test_grad_div_adjointness():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((12, 12))
    p = rng.standard_normal((2, 12, 12))
    lhs = np.sum(grad2d(f) * p)
    rhs = -np.sum(f * div2d(p))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# lasso
# ---------------------------------------------------------------------------


def test_lasso_zero_data():
    dense, y, _ = noiseless_instance()
    res = solve_lasso(dense, np.zeros_like(y), 1.0)
    assert np.all(res.estimate == 0)


def test_lasso_zero_radius():
    dense, y, _ = noiseless_instance()
    res = solve_lasso(dense, y, 0.0)
    assert np.all(res.estimate == 0)
    assert res.converged


def test_lasso_noiseless_recovery():
    dense, y, truth = noiseless_instance(k=2, q=24, m=60)
    res = solve_lasso(dense, y, float(np.abs(truth).sum()))
    assert vignetted_snr(res.estimate, truth) >= 40.0
    assert res.converged


def test_lasso_radius_respected():
    dense, y, truth = noiseless_instance(k=6, q=20, m=40, seed=3)
    tau = 0.5 * float(np.abs(truth).sum())
    res = solve_lasso(dense, y, tau)
    assert np.abs(res.estimate).sum() <= tau * (1 + 1e-9)


def test_lasso_objective_monotone_after_window():
    dense, y, truth = noiseless_instance(k=4, q=20, m=50, seed=4)
    res = solve_lasso(dense, y, float(np.abs(truth).sum()))
    tr = res.objective_trace
    scale = tr[0] if tr[0] > 0 else 1.0
    for t in range(1, len(tr)):
        ref = tr[max(0, t - SAFEGUARD_WINDOW) : t].max()
        assert tr[t] <= ref + 1e-10 * scale


# ---------------------------------------------------------------------------
# basis pursuit with l1 fidelity
# ---------------------------------------------------------------------------


def test_bpdn_zero_is_feasible_and_optimal():
    dense, y, _ = noiseless_instance(k=3, q=16, m=30, seed=5)
    eps = float(np.abs(y).sum())
    res = solve_bpdn_l1(dense, y, eps)
    assert np.abs(res.estimate).sum() <= 1e-8


def test_bpdn_noiseless_equals_lasso():
    dense, y, truth = noiseless_instance(k=2, q=24, m=60, seed=6)
    res_b = solve_bpdn_l1(dense, y, 0.0)
    res_l = solve_lasso(dense, y, float(np.abs(truth).sum()))
    assert vignetted_snr(res_b.estimate, truth) >= 40.0
    rel = np.linalg.norm(res_b.estimate - res_l.estimate) / np.linalg.norm(
        res_l.estimate
    )
    assert rel <= 1e-4
    assert res_b.residual <= 1e-9


def test_bpdn_error_decreases_with_budget():
    dense, y, truth = noiseless_instance(k=2, q=24, m=80, seed=7)
    rng = np.random.default_rng(8)
    noise = rng.uniform(-1, 1, y.size)
    noise *= 0.02 * np.abs(y).mean() / np.abs(noise).mean()
    noise -= noise.mean()
    y_noisy = y + noise
    eps = float(np.abs(noise).sum())
    err_full = np.linalg.norm(
        solve_bpdn_l1(dense, y_noisy, eps).estimate - truth
    )
    err_half = np.linalg.norm(
        solve_bpdn_l1(dense, y_noisy, eps / 2).estimate - truth
    )
    assert err_half <= err_full + 1e-12


def test_bpdn_constraint_slack():
    dense, y, truth = noiseless_instance(k=3, q=18, m=46, seed=9)
    rng = np.random.default_rng(10)
    noise = rng.normal(0, 0.01 * np.abs(y).mean(), y.size)
    noise -= noise.mean()
    eps = float(np.abs(noise).sum())
    res = solve_bpdn_l1(dense, y + noise, eps)
    assert res.residual <= eps * (1 + 1e-6) + 1e-9
    assert res.converged


def test_bpdn_trace_settles():
    dense, y, truth = noiseless_instance(k=2, q=24, m=60, seed=11)
    res = solve_bpdn_l1(dense, y, 0.0)
    tail = res.objective_trace[-50:]
    assert tail.max() - tail.min() <= 1e-6 * max(tail.max(), 1e-300)


# ---------------------------------------------------------------------------
# trace minimization on the PSD cone
# ---------------------------------------------------------------------------


def rank_one_instance(q=6, m=24, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    truth = np.outer(v, v.conj())
    sk = draw_sketches(q, m, seed=seed + 1)
    op = SropOperator(sk, centered=False)
    return op, srop_forward(truth, sk), truth


def test_trace_min_recovers_rank_one():
    op, y, truth = rank_one_instance()
    res = solve_trace_min_psd(op, y, 0.0)
    rel = np.linalg.norm(res.estimate - truth) / np.linalg.norm(truth)
    assert rel <= 1e-3
    assert res.converged


def test_trace_min_zero_data():
    op, _, _ = rank_one_instance()
    res = solve_trace_min_psd(op, np.zeros(op.m), 0.0)
    assert np.linalg.norm(res.estimate) <= 1e-9


def test_trace_min_fails_under_sampled():
    op, y, truth = rank_one_instance(q=8, m=4, seed=2)
    res = solve_trace_min_psd(op, y, 0.0, SolverConfig(max_iterations=4000))
    rel = np.linalg.norm(res.estimate - truth) / np.linalg.norm(truth)
    assert rel > 0.5


def test_trace_min_output_psd():
    op, y, _ = rank_one_instance(q=5, m=12, seed=3)
    res = solve_trace_min_psd(op, y, 0.0, SolverConfig(max_iterations=2000))
    w = np.linalg.eigvalsh(res.estimate)
    assert w.min() >= -1e-8 * max(w.max(), 1e-300)


# ---------------------------------------------------------------------------
# TV reconstruction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tv_instance():
    grid = make_grid(2, 32, 1.0)
    layout = fermat_spiral_layout(grid, 40)
    sketches = draw_sketches(40, 700, seed=0)
    op = CombinedOperator(layout, sketches)
    scene = rectangles_scene(grid)
    y = op.forward(scene.values)
    return op, grid, scene, y


def test_tv_zero_data(tv_instance):
    op, grid, scene, y = tv_instance
    res = solve_tv_nonneg(op.as_matrix(), np.zeros_like(y), 1.0,
                          SolverConfig(max_iterations=200), shape=grid.shape)
    assert np.linalg.norm(res.estimate) <= 1e-9


def test_tv_recovers_cartoon(tv_instance):
    op, grid, scene, y = tv_instance
    dense = op.as_matrix()
    scale = float(np.abs(dense.T @ y).max()) / y.size
    res = solve_tv_nonneg(dense, y, 0.01 * scale,
                          SolverConfig(max_iterations=1200, tol=1e-7),
                          shape=grid.shape)
    assert np.all(res.estimate >= 0)
    assert vignetted_snr(res.estimate, scene.values) >= 15.0


def test_tv_huge_weight_flattens(tv_instance):
    # in the large-weight limit the reconstruction tends to a constant image;
    # after finitely many iterations we check for substantial flattening
    op, grid, scene, y = tv_instance
    dense = op.as_matrix()
    scale = float(np.abs(dense.T @ y).max()) / y.size
    res = solve_tv_nonneg(dense, y, 1e4 * scale,
                          SolverConfig(max_iterations=1500), shape=grid.shape)
    assert np.all(res.estimate >= 0)
    assert np.ptp(res.estimate) <= 0.1 * np.ptp(scene.values)
    assert tv_norm(res.estimate) <= 0.1 * tv_norm(scene.values)


def test_tv_norm_of_constant_is_zero():
    assert tv_norm(np.full((8, 8), 3.2)) == 0.0


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau=1.0, eps=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)


def test_config_json_roundtrip():
    cfg = SolverConfig(max_iterations=123, tol=1e-6, tau=2.5, seed=9)
    back = SolverConfig.from_json(cfg.to_json())
    assert back == cfg


def test_result_trace_csv():
    dense, y, truth = noiseless_instance(k=2, q=16, m=30, seed=12)
    res = solve_lasso(dense, y, float(np.abs(truth).sum()))
    csv = res.trace_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "iteration,objective"
    assert len(lines) == len(res.objective_trace) + 1
