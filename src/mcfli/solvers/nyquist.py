"""Closed-form matrix recovery from the deterministic pairwise sketch set.

Any Hermitian matrix with constant diagonal is identified by ``q*(q-1) + 1``
quadratic measurements: two 2-sparse sketches per core pair (relative gains
``1`` and ``-i``) expose the real and imaginary parts of each off-diagonal
entry up to a trace offset, and one extra sketch pins the trace down.

For ``q == 2`` the all-ones vector coincides with the first pair sketch (and
the trace coefficient of the generic formula vanishes), so the final sketch
is replaced by the ``-1``-gain pair vector and the recovery uses the 2x2
algebra directly; the measurement count is unchanged.
"""

from __future__ import annotations

import numpy as np

PAIR_GAINS = (1.0 + 0.0j, -1.0j)


def nyquist_sketch_count(q: int) -> int:
    return q * (q - 1) + 1


def nyquist_sketches(q: int) -> np.ndarray:
    """The canonical deterministic sketch set, a complex ``(q*(q-1)+1, q)``
    array; ``SropOperator(nyquist_sketches(q)).forward(h)`` gives the
    measurements :func:`nyquist_recover` inverts.

    Order: for each pair ``j < k`` (lexicographic), the gain-1 then gain``-i``
    vectors ``e_j + gain * e_k``; the all-ones vector last.
    """
    if q < 2:
        raise ValueError("need at least two cores")
    vectors = []
    for j in range(q):
        for k in range(j + 1, q):
            for gain in PAIR_GAINS:
                v = np.zeros(q, dtype=np.complex128)
                v[j] = 1.0
                v[k] = gain
                vectors.append(v)
    if q == 2:
        closing = np.array([1.0, -1.0], dtype=np.complex128)
    else:
        closing = np.ones(q, dtype=np.complex128)
    vectors.append(closing)
    return np.asarray(vectors)


def nyquist_recover(y: np.ndarray, q: int) -> np.ndarray:
    """Invert the canonical measurements of a constant-diagonal Hermitian matrix."""
    y = np.asarray(y, dtype=np.float64)
    expected = nyquist_sketch_count(q)
    if y.shape != (expected,):
        raise ValueError(
            f"expected {expected} measurements for q={q}, got shape {y.shape}"
        )
    pairs = [(j, k) for j in range(q) for k in range(j + 1, q)]
    h_one = y[0:-1:2]
    h_mi = y[1:-1:2]
    y_last = y[-1]

    out = np.zeros((q, q), dtype=np.complex128)
    if q == 2:
        # measurements: 2c + 2a, 2c + 2b, 2c - 2a  (a, b = Re, Im of the
        # off-diagonal entry, c the diagonal value)
        c = (h_one[0] + y_last) / 4.0
        a = (h_one[0] - y_last) / 4.0
        b = (h_mi[0] - 2.0 * c) / 2.0
        out[0, 1] = a + 1j * b
        out[1, 0] = a - 1j * b
        np.fill_diagonal(out, c)
        return out

    # the paired sums carry the off-diagonal entries plus a trace offset;
    # the all-ones sketch disentangles the trace
    s = h_one + 1j * h_mi
    re_h = np.sum(s).real
    trace = (re_h - y_last) / (q - 2.0)
    c = trace / q
    offsets = (2.0 / q) * (1.0 + 1.0j) * trace
    entries = 0.5 * (s - offsets)
    for (j, k), val in zip(pairs, entries):
        out[j, k] = val
        out[k, j] = np.conj(val)
    np.fill_diagonal(out, c)
    return out
