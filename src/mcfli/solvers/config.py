"""Shared solver configuration and result records."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MAX_ITERATIONS_DEFAULT = 20_000
TOL_DEFAULT = 1e-8


@dataclass
class SolverConfig:
    """Knobs common to every recovery program.

    At most one of the program parameters (``tau`` radius, ``eps`` fidelity
    budget, ``rho`` penalty) may be set; each solve function also accepts the
    value directly, which takes precedence.
    """

    max_iterations: int = MAX_ITERATIONS_DEFAULT
    tol: float = TOL_DEFAULT
    tau: float | None = None
    eps: float | None = None
    rho: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        n_set = sum(v is not None for v in (self.tau, self.eps, self.rho))
        if n_set > 1:
            raise ValueError("set at most one of tau, eps, rho")

    @classmethod
    def from_json(cls, text_or_path) -> "SolverConfig":
        try:
            data = json.loads(text_or_path)
        except (json.JSONDecodeError, TypeError):
            with open(text_or_path) as fh:
                data = json.load(fh)
        return cls(**data)

    def to_json(self) -> str:
        payload = {
            "max_iterations": self.max_iterations,
            "tol": self.tol,
            "seed": self.seed,
        }
        for name in ("tau", "eps", "rho"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return json.dumps(payload)


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

    def trace_csv(self) -> str:
        lines = ["iteration,objective"]
        lines += [f"{i},{v!r}" for i, v in enumerate(self.objective_trace)]
        return "\n".join(lines) + "\n"
