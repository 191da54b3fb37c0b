"""Random Hermitian test matrices with optional structure."""

from __future__ import annotations

import numpy as np


def random_hermitian(
    order: int,
    seed,
    hollow: bool = False,
    constant_diagonal: float | None = None,
) -> np.ndarray:
    """Random complex Hermitian ``(order, order)`` matrix, exactly symmetric:
    ``(A + A^H) / 2`` for a complex Gaussian ``A``, with its diagonal zeroed
    (``hollow``) or set to ``constant_diagonal``."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    h = 0.5 * (a + a.conj().T)
    if hollow:
        np.fill_diagonal(h, 0.0)
    if constant_diagonal is not None:
        np.fill_diagonal(h, constant_diagonal)
    return h
