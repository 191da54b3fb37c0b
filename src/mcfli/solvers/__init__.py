"""Recovery programs: l1-ball Lasso, l1-fidelity basis pursuit, PSD trace
minimization, nonnegative TV reconstruction, and the deterministic pairwise
matrix recovery."""

from .config import RecoveryResult, SolverConfig
from .lasso import solve_lasso
from .linop import MatrixOperator, as_operator, operator_norm
from .metrics import vignetted_snr
from .nyquist import nyquist_recover, nyquist_sketches
from .primal_dual import (
    div2d,
    grad2d,
    solve_bpdn_l1,
    solve_trace_min_psd,
    solve_tv_nonneg,
    tv_norm,
)
from .proj import (
    project_ball_around,
    project_l1_ball,
    project_pixelwise_ball,
    project_psd_cone,
    soft_threshold,
)

__all__ = [
    "RecoveryResult",
    "SolverConfig",
    "MatrixOperator",
    "as_operator",
    "operator_norm",
    "solve_lasso",
    "solve_bpdn_l1",
    "solve_trace_min_psd",
    "solve_tv_nonneg",
    "nyquist_recover",
    "nyquist_sketches",
    "vignetted_snr",
    "project_l1_ball",
    "project_ball_around",
    "project_pixelwise_ball",
    "project_psd_cone",
    "soft_threshold",
    "grad2d",
    "div2d",
    "tv_norm",
]
