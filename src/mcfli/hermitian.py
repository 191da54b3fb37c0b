"""Hermitian matrix container: the exactly symmetrized array, its order and
its numerical rank, and random test matrices with optional structure."""

from __future__ import annotations

import numpy as np

# largest relative asymmetry ||H - H^*||_F / ||H||_F the constructor accepts
ASYMMETRY_RTOL = 1e-8
# singular values below this share of the largest do not count towards the rank
RANK_RTOL = 1e-8


class HermitianMatrix:
    """Square complex Hermitian matrix.

    The constructor symmetrizes its input (``(H + H^*) / 2``) after checking
    that the asymmetry is below ``ASYMMETRY_RTOL`` relative to the Frobenius
    norm, so the stored array satisfies ``H[k, j] == conj(H[j, k])`` exactly.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.complex128)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {data.shape}")
        scale = np.linalg.norm(data)
        asym = np.linalg.norm(data - data.conj().T)
        if scale > 0 and asym > ASYMMETRY_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: relative asymmetry {asym / scale:.2e}"
            )
        sym = 0.5 * (data + data.conj().T)
        sym.setflags(write=False)
        self.data = sym

    @property
    def order(self) -> int:
        return self.data.shape[0]

    def numerical_rank(self) -> int:
        s = np.linalg.svd(self.data, compute_uv=False)
        if s[0] == 0:
            return 0
        return int(np.count_nonzero(s > RANK_RTOL * s[0]))

    def __array__(self, dtype=None):
        return self.data if dtype is None else self.data.astype(dtype)

    def __repr__(self):
        return f"HermitianMatrix(order={self.order})"


def random_hermitian(
    order: int,
    seed,
    hollow: bool = False,
    constant_diagonal: float | None = None,
    psd: bool = False,
) -> HermitianMatrix:
    """Random Hermitian test matrix with optional structure."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    h = 0.5 * (a + a.conj().T)
    if psd:
        h = h @ h.conj().T
    if hollow:
        np.fill_diagonal(h, 0.0)
    if constant_diagonal is not None:
        np.fill_diagonal(h, constant_diagonal)
    return HermitianMatrix(h)
