"""Multicore-fiber lensless imaging toolbox.

Sensing chain (partial Fourier sampling on core-pair visibilities, symmetric
rank-one projections, debiasing), recovery solvers, simulated phase-shifting
calibration, and Monte-Carlo harnesses.
"""

from .calibration import (
    FringeStack,
    recover_fields,
    render_fringes,
    synth_fields,
)
from .grid import Grid, make_grid
from .layout import (
    CoreLayout,
    downsample_layout,
    explicit_layout,
    fermat_spiral_layout,
    random_layout_1d,
)
from .scene import SceneImage, bar_target_scene, sparse_scene
from .sensing import (
    CombinedOperator,
    SropOperator,
    WavefieldSet,
    interferometric_matrix,
    plane_wave_fields,
    rs_scan,
)
from .sketch import draw_sketches
from .solvers import (
    RecoveryResult,
    SolverConfig,
    nyquist_recover,
    nyquist_sketches,
    solve_bpdn_l1,
    solve_lasso,
    solve_trace_min_psd,
    solve_tv_nonneg,
    vignetted_snr,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "make_grid",
    "CoreLayout",
    "random_layout_1d",
    "fermat_spiral_layout",
    "explicit_layout",
    "downsample_layout",
    "draw_sketches",
    "SceneImage",
    "sparse_scene",
    "bar_target_scene",
    "SropOperator",
    "CombinedOperator",
    "interferometric_matrix",
    "rs_scan",
    "WavefieldSet",
    "plane_wave_fields",
    "FringeStack",
    "synth_fields",
    "render_fringes",
    "recover_fields",
    "SolverConfig",
    "RecoveryResult",
    "solve_lasso",
    "solve_bpdn_l1",
    "solve_trace_min_psd",
    "solve_tv_nonneg",
    "nyquist_sketches",
    "nyquist_recover",
    "vignetted_snr",
]
