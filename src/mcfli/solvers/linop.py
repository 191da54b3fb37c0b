"""Light adapter so solvers accept dense matrices or forward/adjoint objects."""

from __future__ import annotations

import numpy as np


class MatrixOperator:
    """Wrap a dense real matrix behind the forward/adjoint interface."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.m, self.n = self.matrix.shape

    def forward(self, v):
        return self.matrix @ v

    def adjoint(self, z):
        return self.matrix.T @ z


def as_operator(op):
    if isinstance(op, np.ndarray):
        return MatrixOperator(op)
    if hasattr(op, "forward") and hasattr(op, "adjoint"):
        return op
    raise TypeError(f"cannot interpret {type(op).__name__} as a linear operator")


def operator_norm(op, seed=0, iterations: int = 60) -> float:
    """Spectral norm of the operator: exact (SVD) for a dense matrix,
    otherwise a power-iteration estimate.

    The power iteration runs on ``adjoint . forward`` from a standard normal
    vector of length ``op.n``, or from ``op._power_start(rng)`` when the
    operator's domain is not flat real vectors (SROP acts on Hermitian
    matrices).
    """
    if isinstance(op, MatrixOperator):
        return float(np.linalg.norm(op.matrix, 2))
    rng = np.random.default_rng(seed)
    if hasattr(op, "_power_start"):
        x = op._power_start(rng)
    else:
        x = rng.standard_normal(op.n)
    lam = 1.0
    for _ in range(iterations):
        x = op.adjoint(op.forward(x))
        lam = np.linalg.norm(x)
        x = x / lam
    return float(np.sqrt(lam))
