"""Spectral projected-gradient solver for the l1-constrained least squares.

Minimizes ``0.5 * ||y - B x||^2`` over the l1 ball of radius ``tau``.
Steps use the Barzilai-Borwein scale with a nonmonotone Armijo line search
over a sliding window, so the objective may rise transiently but never above
the window maximum.  The step scale starts at ``1 / ||B||^2``, with ``||B||``
the Lanczos upper bound from :func:`~mcfli.solvers.linop.operator_norm`, for
dense matrices and matrix-free operators alike.
"""

from __future__ import annotations

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

    r = op.forward(x) - y
    g = op.adjoint(r)
    f = 0.5 * float(r @ r)
    trace = [f]
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        direction = project_l1_ball(x - step * g, tau) - x
        d_norm = np.linalg.norm(direction)
        if d_norm <= config.tol * max(1.0, np.linalg.norm(x)):
            converged = True
            break
        f_ref = max(trace[-SAFEGUARD_WINDOW:])
        slope = float(g @ direction)
        bd = op.forward(direction)
        alpha = 1.0
        while True:
            r_new = r + alpha * bd
            f_new = 0.5 * float(r_new @ r_new)
            if f_new <= f_ref + ARMIJO_SLOPE * alpha * slope or alpha < 1e-12:
                break
            alpha *= 0.5
        x = x + alpha * direction
        r = r_new
        g_new = op.adjoint(r)
        # Barzilai-Borwein scale for the next trial step
        s = alpha * direction
        dg = g_new - g
        sdg = float(s @ dg)
        if sdg > 1e-300:
            step = float(s @ s) / sdg
            step = min(max(step, 1e-8 / lipschitz), 1e8 / lipschitz)
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
