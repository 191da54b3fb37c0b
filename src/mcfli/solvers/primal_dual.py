"""First-order primal-dual solvers for the constrained recovery programs.

Two l1-constrained programs share one Chambolle-Pock loop (dual ascent on
the measurement side, proximal descent on the image/matrix side, extrapolated
primal):

* l1-fidelity basis pursuit: minimize ``||x||_1`` s.t. ``||y - B x||_1 <= eps``;
* PSD trace minimization: minimize ``tr(X)`` s.t. ``X >= 0``,
  ``||y - A(X)||_1 <= eps`` (nuclear norm on the cone).

They differ only in the starting point, the primal proximal step and the
objective.  Iterates are flat real vectors in both: the PSD program runs on
the real matrix of its SROP map (:meth:`~mcfli.sensing.SropOperator.as_matrix`),
whose columns are the float64 view of ``X``.  Step sizes satisfy
``sigma * tau * ||B||^2 < 1`` with ``||B||`` the Lanczos value from
:func:`~mcfli.solvers.linop.operator_norm`.  That value bounds the eigenvalue
of ``B^T B`` its top Ritz pair converged to; it matched the exact norm where
it was checked, but nothing proves that eigenvalue is the largest, so the
rule holds for the true norm only when it is.

Nonnegative TV-regularized least squares for 2-D scenes has its own loop: a
Condat-Vu splitting whose primal step also descends the smooth data term,
which it reaches through the operator's normal map ``B^T B`` alone.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RecoveryResult, SolverConfig
from .linop import MatrixOperator, as_operator, operator_norm
from .proj import (
    project_ball_around,
    project_pixelwise_ball,
    project_psd_cone,
    soft_threshold,
)

# returned iterates must satisfy their constraint within this slack
CONSTRAINT_REL_SLACK = 1e-6
CONSTRAINT_ABS_SLACK = 1e-9
# convergence is only declared after the iteration has settled for a while
SAFE_MIN_ITERS = 50
# while no feasible iterate has been seen, the dual/primal step ratio grows
# geometrically (the constraint multiplier scale is not known in advance);
# adaptation stops as soon as feasibility is reached, keeping sigma*tau fixed
ADAPT_EVERY = 400
ADAPT_GROWTH = 8.0
ADAPT_RATIO_CAP = 1e9


# np.linalg.norm computes the same sqrt(v.dot(v)) for the flat real iterates,
# with more dispatch per call
def _vector_norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))


def _feasible(resid: float, eps: float) -> bool:
    return resid <= eps * (1.0 + CONSTRAINT_REL_SLACK) + CONSTRAINT_ABS_SLACK


def _l1_constrained_primal_dual(
    op, y, eps, config, x, prox, objective
) -> RecoveryResult:
    """Minimize ``objective(x)`` s.t. ``||y - op.forward(x)||_1 <= eps``.

    ``x`` is the starting point and ``prox(v, g, tau)`` the primal step from
    ``v`` along the back-projected dual ``g = op.adjoint(z)``.  The
    constraint is active at the optimum, so iterates approach it from both
    sides; the returned estimate is the feasible iterate of least objective
    seen along the run.
    """
    config = config or SolverConfig()
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    y = np.asarray(y, dtype=np.float64)

    norm_b = max(operator_norm(op), 1e-300)
    ratio = 1.0
    sigma = tau = 0.99 / norm_b

    # project_ball_around(u / sigma, y, 0) is y + 0.0 whatever u is, so at
    # eps = 0 the dual step subtracts sigma * (y + 0.0), formed once per sigma
    exact = eps == 0
    sigma_y = sigma * (y + 0.0) if exact else None
    z = np.zeros(op.m)
    fx = op.forward(x)
    fx_bar = fx.copy()
    best_x, best_obj, best_resid = None, math.inf, math.inf
    trace = [0.0]
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        if best_x is None and it % ADAPT_EVERY == 0 and ratio < ADAPT_RATIO_CAP:
            ratio *= ADAPT_GROWTH
            sigma = 0.99 * ratio / norm_b
            tau = 0.99 / (ratio * norm_b)
            if exact:
                sigma_y = sigma * (y + 0.0)
        u = z + sigma * fx_bar
        if exact:
            z = u - sigma_y
        else:
            z = u - sigma * project_ball_around(u / sigma, y, eps)
        x_new = prox(x, op.adjoint(z), tau)
        fx_new = op.forward(x_new)
        resid = float(np.abs(y - fx_new).sum())
        obj = objective(x_new)
        if _feasible(resid, eps) and obj < best_obj:
            best_x, best_obj, best_resid = x_new.copy(), obj, resid
        dx = _vector_norm(x_new - x)
        fx_bar = 2.0 * fx_new - fx
        x, fx = x_new, fx_new
        trace.append(obj)
        if (
            it > SAFE_MIN_ITERS
            and best_x is not None
            and dx <= config.tol * max(1.0, _vector_norm(x))
        ):
            converged = True
            break

    if best_x is None:
        best_x = x
        best_resid = float(np.abs(y - fx).sum())
    return RecoveryResult(
        estimate=best_x,
        iterations=it,
        residual=best_resid,
        converged=converged and _feasible(best_resid, eps),
        objective_trace=np.asarray(trace),
    )


def solve_bpdn_l1(
    op, y: np.ndarray, eps: float, config: SolverConfig | None = None
) -> RecoveryResult:
    """Basis pursuit denoise with an l1-norm data-fidelity constraint."""
    op = as_operator(op)
    return _l1_constrained_primal_dual(
        op,
        y,
        eps,
        config,
        x=np.zeros(op.n),
        prox=lambda v, g, tau: soft_threshold(v - tau * g, tau),
        objective=lambda x: float(np.abs(x).sum()),
    )


def solve_trace_min_psd(
    srop_op, y: np.ndarray, eps: float, config: SolverConfig | None = None
) -> RecoveryResult:
    """Recover a PSD matrix from its raw rank-one projections (no debiasing).

    Minimizes the trace, which equals the nuclear norm on the PSD cone, under
    an l1 bound on the measurement misfit.  The loop runs on
    ``srop_op.as_matrix()`` with the float64 view of the ``q x q`` matrix as
    its iterate; the estimate is returned as the complex matrix.  The PSD
    projection runs a full Hermitian eigendecomposition per iteration (fine
    for moderate orders).
    """
    q = srop_op.q

    def square(v):
        return v.view(np.complex128).reshape(q, q)

    def flat(h):
        return h.view(np.float64).ravel()

    eye = flat(np.eye(q, dtype=np.complex128))
    result = _l1_constrained_primal_dual(
        MatrixOperator(srop_op.as_matrix()),
        y,
        eps,
        config,
        x=np.zeros(2 * q * q),
        prox=lambda v, g, tau: flat(project_psd_cone(square(v - tau * (g + eye)))),
        objective=lambda x: float(np.trace(square(x)).real),
    )
    result.estimate = square(result.estimate)
    return result


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def grad2d(f: np.ndarray) -> np.ndarray:
    """Forward differences with Neumann boundary; shape ``(2, n, n)``."""
    g = np.zeros((2,) + f.shape)
    g[0, :-1, :] = f[1:, :] - f[:-1, :]
    g[1, :, :-1] = f[:, 1:] - f[:, :-1]
    return g


def div2d(p: np.ndarray) -> np.ndarray:
    """Negative adjoint of :func:`grad2d`."""
    out = np.zeros(p.shape[1:])
    out[:-1, :] += p[0, :-1, :]
    out[1:, :] -= p[0, :-1, :]
    out[:, :-1] += p[1, :, :-1]
    out[:, 1:] -= p[1, :, :-1]
    return out


def tv_norm(f: np.ndarray) -> float:
    g = grad2d(f)
    return float(np.sqrt(np.sum(g**2, axis=0)).sum())


GRAD_NORM_SQ = 8.0  # upper bound on ||grad2d||^2


def solve_tv_nonneg(
    op, y: np.ndarray, rho: float, config: SolverConfig | None = None, shape=None
) -> RecoveryResult:
    """Nonnegative isotropic-TV reconstruction of a 2-D scene.

    Minimizes ``(1/2M) ||y - B f||^2 + rho * TV(f)`` over ``f >= 0`` with a
    primal-dual iteration whose primal step also descends the smooth data
    term (Condat-Vu splitting).  The loop sees the data only through
    ``b = B^T y``, formed once before it, and one ``op.normal`` call per
    iteration: the data gradient is ``(B^T B f - b) / M``, and the data term
    in the objective trace is ``(f . B^T B f - 2 f . b + y . y) / 2M``.  One
    ``op.forward`` after the loop gives the reported residual.
    """
    config = config or SolverConfig()
    if rho <= 0:
        raise ValueError("rho must be positive")
    op_obj = as_operator(op)
    y = np.asarray(y, dtype=np.float64)
    if shape is None:
        grid = getattr(op_obj, "grid", None)
        if grid is None or grid.dim != 2:
            raise ValueError("solve_tv_nonneg needs a 2-D operator or explicit shape")
        shape = grid.shape
    m = y.size

    norm_b = operator_norm(op_obj)
    lipschitz = max(norm_b**2 / m, 1e-300)
    sigma = 0.5 * lipschitz / GRAD_NORM_SQ
    tau = 0.99 / (lipschitz / 2.0 + sigma * GRAD_NORM_SQ)

    b = op_obj.adjoint(y).reshape(shape)
    yy = float(y @ y)
    f = np.zeros(shape)
    f_bar = f.copy()
    p = np.zeros((2,) + shape)
    normal_f = np.zeros(shape)  # B^T B f at f = 0
    trace = []
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        p = project_pixelwise_ball(p + sigma * grad2d(f_bar), rho)
        grad_data = (normal_f - b) / m
        f_new = np.maximum(f - tau * (grad_data - div2d(p)), 0.0)
        df = np.linalg.norm(f_new - f)
        f_bar = 2.0 * f_new - f
        f = f_new
        normal_f = op_obj.normal(f.ravel()).reshape(shape)
        data = 0.5 * (float(np.vdot(f, normal_f - 2.0 * b)) + yy) / m
        trace.append(data + rho * tv_norm(f))
        if df <= config.tol * max(1.0, np.linalg.norm(f)) and it > SAFE_MIN_ITERS:
            converged = True
            break

    # the data term above cancels against y . y once the fit is close (a few
    # 1e-12 relative once y . y is thousands of times |y - B f|^2), so the
    # reported residual is formed from B f itself
    resid = y - op_obj.forward(f.ravel())
    return RecoveryResult(
        estimate=f,
        iterations=it,
        residual=0.5 * float(resid @ resid) / m,
        converged=converged,
        objective_trace=np.asarray(trace),
    )
