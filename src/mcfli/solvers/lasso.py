"""Spectral projected-gradient solver for the l1-constrained least squares.

Minimizes ``0.5 * ||y - B x||^2`` over the l1 ball of radius ``tau``.
Steps use the Barzilai-Borwein scale with a nonmonotone Armijo line search
over a sliding window, so the objective may rise transiently but never above
the window maximum.  The step scale starts at ``1 / ||B||^2``, with ``||B||``
the Lanczos value from :func:`~mcfli.solvers.linop.operator_norm`, for dense
matrices and matrix-free operators alike.  That value bounds the eigenvalue
its top Ritz pair converged to, which is not proven to be the largest.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RecoveryResult, SolverConfig
from .linop import as_operator, operator_norm
from .proj import project_l1_ball

SAFEGUARD_WINDOW = 10
ARMIJO_SLOPE = 1e-4


def solve_lasso(
    op, y: np.ndarray, tau: float, config: SolverConfig | None = None
) -> RecoveryResult:
    config = config or SolverConfig()
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    op = as_operator(op)
    y = np.asarray(y, dtype=np.float64)

    x = np.zeros(op.n)
    if tau == 0:
        return RecoveryResult(
            estimate=x,
            iterations=0,
            residual=0.5 * float(y @ y),
            converged=True,
            objective_trace=np.array([0.5 * float(y @ y)]),
        )

    norm_b = operator_norm(op)
    lipschitz = max(norm_b**2, 1e-300)
    step = 1.0 / lipschitz
    step_min, step_max = 1e-8 / lipschitz, 1e8 / lipschitz

    r = op.forward(x) - y
    g = op.adjoint(r)
    f = 0.5 * float(r @ r)
    trace = [f]
    converged = False
    it = 0
    # each x is a convex combination of points of the tau-ball, so ||x|| is
    # at most tau up to rounding and the stop test below can only pass when
    # d_norm <= tol * max(1, 2 tau); ||x|| is formed only then
    stop_screen = config.tol * max(1.0, 2.0 * tau)
    # v.dot(w) is the BLAS dot that v @ w reaches with less dispatch, and
    # sqrt(v.dot(v)) is what np.linalg.norm computes for contiguous real v
    for it in range(1, config.max_iterations + 1):
        direction = project_l1_ball(x - step * g, tau)
        direction -= x
        d_norm = math.sqrt(direction.dot(direction))
        if d_norm <= stop_screen and d_norm <= config.tol * max(
            1.0, math.sqrt(x.dot(x))
        ):
            converged = True
            break
        f_ref = max(trace[-SAFEGUARD_WINDOW:])
        slope = float(g.dot(direction))
        bd = op.forward(direction)
        # the first trial step is alpha = 1, where alpha * v is v bit for bit
        alpha = 1.0
        r_new = r + bd
        while True:
            f_new = 0.5 * float(r_new.dot(r_new))
            if f_new <= f_ref + ARMIJO_SLOPE * alpha * slope or alpha < 1e-12:
                break
            alpha *= 0.5
            r_new = r + alpha * bd
        s = direction if alpha == 1.0 else alpha * direction
        x = x + s
        r = r_new
        g_new = op.adjoint(r)
        # Barzilai-Borwein scale for the next trial step
        sdg = float(s.dot(g_new - g))
        if sdg > 1e-300:
            step = min(max(float(s.dot(s)) / sdg, step_min), step_max)
        else:
            step = 1.0 / lipschitz
        g = g_new
        f = f_new
        trace.append(f)

    return RecoveryResult(
        estimate=x,
        iterations=it,
        residual=f,
        converged=converged,
        objective_trace=np.asarray(trace),
    )
