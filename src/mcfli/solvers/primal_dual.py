"""First-order primal-dual solvers for the constrained recovery programs.

Two l1-constrained programs share one Chambolle-Pock loop (dual ascent on
the measurement side, proximal descent on the image/matrix side, extrapolated
primal):

* l1-fidelity basis pursuit: minimize ``||x||_1`` s.t. ``||y - B x||_1 <= eps``;
* PSD trace minimization: minimize ``tr(X)`` s.t. ``X >= 0``,
  ``||y - A(X)||_1 <= eps`` (nuclear norm on the cone).

They differ only in the starting point, the primal proximal step and the
objective.  Step sizes satisfy ``sigma * tau * ||B||^2 < 1`` with ``||B||``
the Lanczos upper bound from :func:`~mcfli.solvers.linop.operator_norm`, so
the rule holds for the true norm, not only for an estimate of it.

Nonnegative TV-regularized least squares for 2-D scenes has its own loop: a
Condat-Vu splitting whose primal step also descends the smooth data term.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RecoveryResult, SolverConfig
from .linop import as_operator, operator_norm
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
    if eps is None:
        eps = config.eps
    if eps is None or eps < 0:
        raise ValueError("eps must be provided and nonnegative")
    y = np.asarray(y, dtype=np.float64)

    norm_b = max(operator_norm(op, seed=config.seed), 1e-300)
    ratio = 1.0
    sigma = tau = 0.99 / norm_b

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
        u = z + sigma * fx_bar
        z = u - sigma * project_ball_around(u / sigma, y, eps)
        x_new = prox(x, op.adjoint(z), tau)
        fx_new = op.forward(x_new)
        resid = float(np.abs(y - fx_new).sum())
        obj = objective(x_new)
        if _feasible(resid, eps) and obj < best_obj:
            best_x, best_obj, best_resid = x_new.copy(), obj, resid
        dx = np.linalg.norm(x_new - x)
        fx_bar = 2.0 * fx_new - fx
        x, fx = x_new, fx_new
        trace.append(obj)
        if (
            dx <= config.tol * max(1.0, np.linalg.norm(x))
            and it > SAFE_MIN_ITERS
            and best_x is not None
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
    """Recover a PSD matrix from raw (uncentered) rank-one projections.

    Minimizes the trace, which equals the nuclear norm on the PSD cone, under
    an l1 bound on the measurement misfit.  The PSD projection runs a full
    Hermitian eigendecomposition per iteration (fine for moderate orders).
    """
    q = srop_op.q
    eye = np.eye(q)
    return _l1_constrained_primal_dual(
        srop_op,
        y,
        eps,
        config,
        x=np.zeros((q, q), dtype=np.complex128),
        prox=lambda v, g, tau: project_psd_cone(v - tau * (g + eye)),
        objective=lambda x: float(np.trace(x).real),
    )


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
    term (Condat-Vu splitting).
    """
    config = config or SolverConfig()
    if rho is None:
        rho = config.rho
    if rho is None or rho <= 0:
        raise ValueError("rho must be provided and positive")
    op_obj = as_operator(op)
    y = np.asarray(y, dtype=np.float64)
    if shape is None:
        grid = getattr(op_obj, "grid", None)
        if grid is None or grid.dim != 2:
            raise ValueError("solve_tv_nonneg needs a 2-D operator or explicit shape")
        shape = grid.shape
    m = y.size

    norm_b = operator_norm(op_obj, seed=config.seed)
    lipschitz = max(norm_b**2 / m, 1e-300)
    sigma = 0.5 * lipschitz / GRAD_NORM_SQ
    tau = 0.99 / (lipschitz / 2.0 + sigma * GRAD_NORM_SQ)

    f = np.zeros(shape)
    f_bar = f.copy()
    p = np.zeros((2,) + shape)
    bf = op_obj.forward(f.ravel())
    trace = []
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        p = project_pixelwise_ball(p + sigma * grad2d(f_bar), rho)
        grad_data = op_obj.adjoint(bf - y).reshape(shape) / m
        f_new = np.maximum(f - tau * (grad_data - div2d(p)), 0.0)
        df = np.linalg.norm(f_new - f)
        f_bar = 2.0 * f_new - f
        f = f_new
        bf = op_obj.forward(f.ravel())
        resid = bf - y
        obj = 0.5 * float(resid @ resid) / m + rho * tv_norm(f)
        trace.append(obj)
        if df <= config.tol * max(1.0, np.linalg.norm(f)) and it > SAFE_MIN_ITERS:
            converged = True
            break

    resid = bf - y
    return RecoveryResult(
        estimate=f,
        iterations=it,
        residual=0.5 * float(resid @ resid) / m,
        converged=converged,
        objective_trace=np.asarray(trace),
    )
