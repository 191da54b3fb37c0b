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
    solve_bpdn_l1,
    solve_lasso,
    solve_trace_min_psd,
    solve_tv_nonneg,
    sparse_scene,
    vignetted_snr,
)
from mcfli.sensing import SropOperator, VisibilityOperator
from mcfli.solvers import (
    MatrixOperator,
    grad2d,
    div2d,
    operator_norm,
    project_ball_around,
    project_l1_ball,
    project_psd_cone,
    soft_threshold,
    tv_norm,
)
from mcfli.solvers.lasso import SAFEGUARD_WINDOW
from mcfli.solvers.linop import LANCZOS_MAX_BASIS, LANCZOS_RTOL

from fixtures import rectangles_scene


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
    # an operator with no inputs has no Krylov space at all
    assert operator_norm(MatrixOperator(np.zeros((6, 0)))) == 0.0


def test_operator_norm_rank_deficient_stops_with_krylov_space():
    # rank 3: the Krylov space of a generic start has dimension 4, so
    # Lanczos stops there instead of running on to its basis cap
    rng = np.random.default_rng(1)
    b = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 60))
    op = CountingOperator(b)
    assert_norm_bound(operator_norm(op), np.linalg.norm(b, 2))
    assert op.forward_calls <= 4


def test_operator_norm_is_cached_on_the_operator():
    b = np.random.default_rng(2).standard_normal((20, 35))
    op = CountingOperator(b)
    first = operator_norm(op)
    calls = op.forward_calls
    assert operator_norm(op) == first
    assert op.forward_calls == calls
    # the seeded start makes a fresh run give the same bits
    assert operator_norm(CountingOperator(b)) == first


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
    # the real matrix of the SROP map acts on the float64 view of a matrix;
    # its rows lie in the Hermitian subspace, so it has the map's norm.  The
    # centred map (the raw one and its rows less their mean) sends the
    # diagonal basis elements to (almost) zero, so the products are compared
    # relative to the whole map
    op = SropOperator(draw_sketches(5, 30, 3))
    basis = hermitian_basis(op.q)
    for centered in (True, False):
        dense = op.as_matrix()
        assert dense.shape == (op.m, 2 * op.q**2)
        exact = np.column_stack([op.forward(e) for e in basis])
        if centered:
            dense -= dense.mean(axis=0)
            exact -= exact.mean(axis=0)
        got = np.column_stack([dense @ e.view(np.float64).ravel() for e in basis])
        assert np.abs(got - exact).max() <= 1e-12 * np.linalg.norm(exact)
        assert_norm_bound(operator_norm(MatrixOperator(dense)), np.linalg.norm(exact, 2))


def lanczos_norm_reference(op):
    """Lanczos with the tridiagonal rebuilt from lists by ``np.diag`` at each
    step; otherwise the steps of ``_lanczos_norm``."""
    q = np.random.default_rng(0).standard_normal(op.n)
    q /= np.linalg.norm(q)
    basis = np.empty((min(LANCZOS_MAX_BASIS, q.size), q.size))
    alphas, betas = [], []
    for k in range(basis.shape[0]):
        basis[k] = q
        w = np.array(op.adjoint(op.forward(q)), dtype=np.float64)
        v = basis[: k + 1]
        alpha = 0.0
        for _ in range(2):
            h = v @ w
            w -= h @ v
            alpha += h[k]
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        ritz, vectors = np.linalg.eigh(
            np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        )
        theta, residual = float(ritz[-1]), beta * abs(float(vectors[-1, -1]))
        if beta == 0.0 or residual <= LANCZOS_RTOL * theta:
            break
        betas.append(beta)
        q = w / beta
    return float(np.sqrt(max(theta + residual, 0.0)))


@pytest.mark.parametrize("kind", ["dense", "srop"])
def test_operator_norm_bit_identical_to_list_tridiagonal(kind):
    if kind == "dense":
        op = MatrixOperator(noiseless_instance(q=26, m=98, seed=5)[0])
    else:
        # the operator the PSD program's norm runs on
        op = MatrixOperator(SropOperator(draw_sketches(26, 98, 6)).as_matrix())
    expect = lanczos_norm_reference(op)
    assert np.float64(operator_norm(op)).tobytes() == np.float64(expect).tobytes()


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_l1_projection_inside_ball_is_identity():
    v = np.array([0.2, -0.1, 0.05])
    assert np.array_equal(project_l1_ball(v, 1.0), v)


def test_l1_projection_zero_radius():
    assert np.all(project_l1_ball(np.array([1.0, -2.0]), 0.0) == 0)


@pytest.mark.parametrize("radius", [-1.0, np.nan])
def test_l1_projection_rejects_negative_or_nan_radius(radius):
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0, -2.0]), radius)


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


def sorted_cumsum_projection(v, radius):
    """The sorted-cumsum projection in its first form (stable sort, boolean
    index for the last feasible count); the reference for bit identity."""
    v = np.asarray(v, dtype=np.float64)
    if np.abs(v).sum() <= radius:
        return v.copy()
    if radius == 0:
        return np.zeros_like(v)
    mags = np.sort(np.abs(v), kind="stable")[::-1]
    cums = np.cumsum(mags)
    counts = np.arange(1, v.size + 1)
    feasible = mags - (cums - radius) / counts > 0
    last = counts[feasible][-1]
    shift = (cums[last - 1] - radius) / last
    return np.sign(v) * np.maximum(np.abs(v) - shift, 0.0)


# the bisection oracle stops once its bracket on the soft-threshold level is
# this narrow relative to max(1, level), or after BISECTION_MAX_ITER halvings
BISECTION_RTOL = 1e-14
BISECTION_MAX_ITER = 200


def project_l1_ball_bisection(v, radius):
    """Reference projection by bisection on the soft-threshold level.

    Independent of the sorting-based path; used as its oracle.
    """
    v = np.asarray(v, dtype=np.float64)
    if np.abs(v).sum() <= radius:
        return v.copy()
    if radius == 0:
        return np.zeros_like(v)
    lo, hi = 0.0, float(np.abs(v).max())
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        total = np.maximum(np.abs(v) - mid, 0.0).sum()
        if total > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECTION_RTOL * max(1.0, hi):
            break
    return soft_threshold(v, 0.5 * (lo + hi))


# ties, exact zeros of both signs, and arbitrary values
L1_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(L1_ENTRIES, min_size=1, max_size=40),
    mode=st.sampled_from(["zero", "inside", "boundary", "free"]),
    radius=st.floats(min_value=1e-6, max_value=1e3),
)
def test_l1_projection_bit_identical_to_sorted_cumsum_reference(values, mode, radius):
    v = np.array(values)
    l1 = float(np.abs(v).sum())
    radius = {"zero": 0.0, "inside": l1 + radius, "boundary": l1, "free": radius}[mode]
    a = project_l1_ball(v, radius)
    b = sorted_cumsum_projection(v, radius)
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # signed zeros too


def test_l1_projection_keeps_largest_entry_feasible_under_rounding():
    # 1e20 - (1e20 - 1) rounds to 0, so no count passes the rounded test
    v = np.array([1e20, 1.0])
    with pytest.raises(IndexError):
        sorted_cumsum_projection(v, 1.0)
    assert np.abs(project_l1_ball(v, 1.0)).sum() <= 1.0


def ball_around_reference(u, center, radius):
    """``project_ball_around`` in its first form, without the zero-radius
    shortcut; the reference for bit identity."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return center + project_l1_ball(u - center, radius)


BALL_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(BALL_ENTRIES, BALL_ENTRIES), min_size=1, max_size=20),
    same=st.booleans(),
)
def test_ball_around_zero_radius_bit_identical_to_reference(pairs, same):
    u = np.array([a for a, _ in pairs])
    center = u.copy() if same else np.array([b for _, b in pairs])
    a = project_ball_around(u, center, 0.0)
    b = ball_around_reference(u, center, 0.0)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # signed zeros, NaNs


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(L1_ENTRIES, L1_ENTRIES), min_size=1, max_size=20),
    radius=st.floats(min_value=1e-6, max_value=1e3),
)
def test_ball_around_positive_radius_matches_reference(pairs, radius):
    u = np.array([a for a, _ in pairs])
    center = np.array([b for _, b in pairs])
    a = project_ball_around(u, center, radius)
    assert a.tobytes() == ball_around_reference(u, center, radius).tobytes()


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
    op = SropOperator(sk)
    return op, op.forward(truth), truth


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


@pytest.mark.parametrize("visibility", [False, True], ids=["combined", "visibility"])
def test_tv_reports_the_objective_and_residual_of_its_estimate(tv_instance, visibility):
    # the loop forms the data term from B^T B f, B^T y and y . y; recomputing
    # it from the residual y - B f gives the same value
    op, grid, scene, y = tv_instance
    if visibility:
        op = VisibilityOperator(op)
        assert op.factor is None  # 700 sketches, D = 528: the Gram form
    rho = 0.01 * float(np.abs(op.adjoint(y)).max()) / y.size
    res = solve_tv_nonneg(op, y, rho, SolverConfig(max_iterations=100))
    resid = y - op.forward(res.estimate)
    data = 0.5 * float(resid @ resid) / y.size
    assert res.residual == pytest.approx(data, rel=1e-12, abs=0)
    objective = data + rho * tv_norm(res.estimate)
    assert res.objective_trace[-1] == pytest.approx(objective, rel=1e-12, abs=0)


class CountingCalls:
    """Forwards every operator call to ``op`` and counts it by name."""

    def __init__(self, op):
        self.op, self.grid, self.n = op, op.grid, op.n
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        return getattr(self.op, name)

    def forward(self, v):
        return self._count("forward")(v)

    def adjoint(self, z):
        return self._count("adjoint")(z)

    def normal(self, v):
        return self._count("normal")(v)


@pytest.mark.parametrize("iterations", [10, 20])
def test_tv_loop_makes_one_normal_call_per_iteration(tv_instance, iterations):
    op, grid, scene, y = tv_instance
    counted = CountingCalls(op)
    operator_norm(counted)  # cached on the operator: the solve runs no Lanczos
    counted.calls.clear()
    res = solve_tv_nonneg(counted, y, 1e-3, SolverConfig(max_iterations=iterations))
    assert res.iterations == iterations
    # B^T y before the loop, B^T B f once per iteration, B f for the residual
    assert counted.calls == {"adjoint": 1, "normal": iterations, "forward": 1}


def test_tv_norm_of_constant_is_zero():
    assert tv_norm(np.full((8, 8), 3.2)) == 0.0


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(TypeError):
        SolverConfig(tau=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=2.5)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=float("nan"))
    # JSON true is an int and a number to Python: neither field takes it
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=True)
    with pytest.raises(ValueError):
        SolverConfig(tol=True)
    assert SolverConfig(max_iterations=np.int64(5)).max_iterations == 5


