"""Light adapter so solvers accept dense matrices or operator objects.

An operator acts on flat real vectors through ``forward`` (``B v``),
``adjoint`` (``B^T z``) and ``normal`` (``B^T B v``).  The solvers that see
the data only through the gradient of a least-squares term (the TV loop, the
norm bound) call ``normal`` alone, so an operator can apply ``B^T B`` more
cheaply than the two products it stands for.
"""

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

    # ndarray.dot makes the BLAS call that @ makes, with less dispatch per
    # call; the 1-D solver loops make hundreds of thousands of them
    def forward(self, v):
        return self.matrix.dot(v)

    def adjoint(self, z):
        return self.matrix.T.dot(z)

    def normal(self, v):
        return self.adjoint(self.forward(v))


def as_operator(op):
    if isinstance(op, np.ndarray):
        return MatrixOperator(op)
    if all(hasattr(op, name) for name in ("forward", "adjoint", "normal")):
        return op
    raise TypeError(f"cannot interpret {type(op).__name__} as a linear operator")


def operator_norm(op) -> float:
    """Lanczos value for the spectral norm of the operator, from its
    ``normal`` map; see :func:`_lanczos_norm`.

    ``sqrt(theta + residual)`` bounds from above the square root of the
    eigenvalue of ``B^T B`` that the top Ritz pair ``theta`` has converged
    to.  Nothing proves that eigenvalue is the largest, so the value is not
    a certified bound on ``||B||``.  Where it was checked it matched: at the
    imaging demo's 110-core, 3000-sketch point (seed 100) it read
    5.045756432195802 against 5.045756430709399 from ``eigvalsh`` of the
    full Gram.

    The bound is stored on the operator (``op._norm_bound``) on the first
    call and returned by later ones, so a solver run repeatedly on one
    operator (the imaging demo's sweep over the TV weight) pays for one
    Lanczos run.  The start vector is seeded, so the stored bound has the
    bits a recomputation would give.
    """
    bound = getattr(op, "_norm_bound", None)
    if bound is None:
        bound = op._norm_bound = _lanczos_norm(op)
    return bound


def _lanczos_norm(op) -> float:
    """Lanczos value for the spectral norm of ``op``, from its ``normal``
    map and its input length ``op.n`` alone.

    The Krylov basis starts from a standard normal vector of length
    ``op.n`` only: every operator acts on flat real vectors (the PSD
    program runs on the real matrix of its SROP map).  The generator is
    seeded with 0, so the bound is reproducible.  Iterates are fully
    reorthogonalised (two Gram-Schmidt passes against the basis).  The
    iteration stops once the top Ritz pair ``(theta, s)`` has a residual
    ``beta * |s[-1]|`` below ``LANCZOS_RTOL * theta``, once the Krylov space
    is exhausted (``beta == 0``) or after ``LANCZOS_MAX_BASIS`` steps.  An
    eigenvalue of the normal map lies within that residual of ``theta``,
    so ``sqrt(theta + residual)`` bounds its square root from above; a zero
    operator, or one with no inputs, gives exactly 0.0.
    """
    if op.n == 0:
        return 0.0
    q = np.random.default_rng(0).standard_normal(op.n)
    q /= np.linalg.norm(q)
    kmax = min(LANCZOS_MAX_BASIS, q.size)
    basis = np.empty((kmax, q.size))
    # the tridiagonal T_k is the leading (k+1) x (k+1) block, filled in place
    tri = np.zeros((kmax, kmax))
    for k in range(kmax):
        if k:
            tri[k, k - 1] = tri[k - 1, k] = beta
        basis[k] = q
        # a fresh copy: w is updated in place below
        w = np.array(op.normal(q), dtype=np.float64)
        v = basis[: k + 1]
        alpha = 0.0
        for _ in range(2):
            h = v @ w
            w -= h @ v
            alpha += h[k]
        beta = float(np.linalg.norm(w))
        tri[k, k] = alpha
        ritz, vectors = np.linalg.eigh(tri[: k + 1, : k + 1])
        theta, residual = float(ritz[-1]), beta * abs(float(vectors[-1, -1]))
        if beta == 0.0 or residual <= LANCZOS_RTOL * theta:
            break
        q = w / beta
    return float(np.sqrt(max(theta + residual, 0.0)))
