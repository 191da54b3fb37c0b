"""Closed-form matrix recovery from the deterministic pairwise sketch set.

Any Hermitian matrix with constant diagonal ``c`` is identified by
``q*(q-1) + 1`` quadratic measurements.  Two 2-sparse sketches per core pair
``j < k`` (relative gains ``1`` and ``-i``) measure ``2c + 2 Re h_jk`` and
``2c + 2 Im h_jk``, and the 1-sparse closing sketch ``e_0`` measures ``c``
itself, so each entry is ``h_jk = (y_1 + i y_2) / 2 - (1 + i) c``, for every
``q >= 2``.
"""

from __future__ import annotations

import numpy as np

PAIR_GAINS = (1.0 + 0.0j, -1.0j)


def nyquist_sketches(q: int) -> np.ndarray:
    """The canonical deterministic sketch set, a complex ``(q*(q-1)+1, q)``
    array; ``SropOperator(nyquist_sketches(q)).forward(h)`` gives the
    measurements :func:`nyquist_recover` inverts.

    Order: for each pair ``j < k`` (lexicographic), the gain-1 then gain``-i``
    vectors ``e_j + gain * e_k``; the unit vector ``e_0`` last.
    """
    if q < 2:
        raise ValueError("need at least two cores")
    j, k = np.triu_indices(q, 1)
    pairs = np.zeros((j.size, len(PAIR_GAINS), q), dtype=np.complex128)
    rows = np.arange(j.size)
    pairs[rows, :, j] = 1.0
    pairs[rows, :, k] = PAIR_GAINS
    closing = np.eye(1, q, dtype=np.complex128)
    return np.concatenate((pairs.reshape(-1, q), closing))


def nyquist_recover(y: np.ndarray, q: int) -> np.ndarray:
    """Invert the canonical measurements of a constant-diagonal Hermitian matrix."""
    y = np.asarray(y, dtype=np.float64)
    count = q * (q - 1) + 1
    if y.shape != (count,):
        raise ValueError(f"expected {count} measurements for q={q}, got shape {y.shape}")
    c = y[-1]
    j, k = np.triu_indices(q, 1)
    entries = 0.5 * (y[0:-1:2] + 1j * y[1:-1:2]) - (1.0 + 1.0j) * c
    out = np.full((q, q), c, dtype=np.complex128)
    out[j, k] = entries
    out[k, j] = entries.conj()
    return out
