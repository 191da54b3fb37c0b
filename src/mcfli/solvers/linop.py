"""Light adapter so solvers accept dense matrices or forward/adjoint objects."""

from __future__ import annotations

import numpy as np

# the top Ritz pair is accepted once its residual drops below this share of
# the Ritz value, so the returned norm exceeds the square root of the Ritz
# value by at most half of it
LANCZOS_RTOL = 1e-9
# cap on the Krylov basis: the operators here converge within 50 steps, and
# freeing a larger preallocated basis raises glibc's dynamic mmap threshold,
# which grows the peak resident set of the solves that follow
LANCZOS_MAX_BASIS = 64


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


def operator_norm(op, seed=0) -> float:
    """Upper bound on the spectral norm of the operator, from Lanczos on
    ``adjoint . forward``.

    The Krylov basis starts from a standard normal vector of length
    ``op.n``, or from ``op._power_start(rng)`` when the operator's domain is
    not flat real vectors (SROP acts on Hermitian matrices).  Iterates are
    compared with the real inner product of their float64 view and fully
    reorthogonalised (two Gram-Schmidt passes against the basis).  The
    iteration stops once the top Ritz pair ``(theta, s)`` has a residual
    ``beta * |s[-1]|`` below ``LANCZOS_RTOL * theta``, once the Krylov space
    is exhausted (``beta == 0``) or after ``LANCZOS_MAX_BASIS`` steps.  An
    eigenvalue of the Gram operator lies within that residual of ``theta``,
    so ``sqrt(theta + residual)`` bounds its square root from above; a zero
    operator gives exactly 0.0.
    """
    rng = np.random.default_rng(seed)
    x = op._power_start(rng) if hasattr(op, "_power_start") else rng.standard_normal(op.n)
    shape, dtype = x.shape, x.dtype
    matrix_domain = x.ndim == 2

    def flat(v):
        return np.array(v, dtype=dtype).reshape(-1).view(np.float64)

    q = flat(x)
    q /= np.linalg.norm(q)
    basis = np.empty((min(LANCZOS_MAX_BASIS, q.size), q.size))
    alphas, betas = [], []
    for k in range(basis.shape[0]):
        basis[k] = q
        w = flat(op.adjoint(op.forward(q.view(dtype).reshape(shape))))
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
        if matrix_domain:
            h_new = q.view(dtype).reshape(shape)
            q = flat(0.5 * (h_new + h_new.conj().T))
            q /= np.linalg.norm(q)
    return float(np.sqrt(max(theta + residual, 0.0)))
