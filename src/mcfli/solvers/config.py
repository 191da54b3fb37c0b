"""Shared solver configuration and result records."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

MAX_ITERATIONS_DEFAULT = 20_000
TOL_DEFAULT = 1e-8


@dataclass
class SolverConfig:
    """Knobs common to every recovery program: the iteration cap and the
    stopping tolerance.  The program parameter itself (``tau`` radius,
    ``eps`` fidelity budget, ``rho`` penalty) is an argument of each solve
    function.
    """

    max_iterations: int = MAX_ITERATIONS_DEFAULT
    tol: float = TOL_DEFAULT

    def __post_init__(self):
        # a float cap would end the solve loops' range() in a TypeError; a
        # bool (JSON true) is an Integral and a number, but no count or tolerance
        if (
            isinstance(self.max_iterations, bool)
            or not isinstance(self.max_iterations, numbers.Integral)
            or self.max_iterations < 1
        ):
            raise ValueError("max_iterations must be a positive integer")
        if isinstance(self.tol, bool) or not self.tol > 0:  # NaN too: no step would meet it
            raise ValueError("tol must be a positive number")


@dataclass
class RecoveryResult:
    """Outcome of one solver run.

    ``residual`` is the exact constraint (or data-fidelity) value evaluated
    at the returned iterate; ``objective_trace`` records the per-iteration
    objective for monotonicity checks and plotting.
    """

    estimate: np.ndarray
    iterations: int
    residual: float
    converged: bool
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
