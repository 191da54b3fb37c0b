"""Projection and proximal primitives used across the solvers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


@lru_cache(maxsize=8)
def _counts(n: int) -> np.ndarray:
    """Read-only ``arange(1, n + 1)``, shared by every projection of size n.

    Held as float64 (exact below 2**53), so dividing by it gives the bits of
    dividing by the integers, without a cast on every call.
    """
    counts = np.arange(1, n + 1, dtype=np.float64)
    counts.setflags(write=False)
    return counts


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball via the sorted-cumsum rule.

    The magnitudes are sorted as values, so the threshold does not depend on
    how the sort orders ties.  The largest magnitude always passes the
    feasibility test in exact arithmetic and is kept when rounding drops it.
    """
    if not radius >= 0:  # NaN included
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    if radius == 0:
        # an all-zero input comes back as is, signed zeros included
        return np.zeros(v.shape) if v.any() else v.copy()
    mags = np.abs(v)
    if mags.sum() <= radius:
        return v.copy()
    desc = np.sort(mags)[::-1]
    # levels[k] = (desc[0] + ... + desc[k] - radius) / (k + 1), summed in
    # order and formed in place: the threshold that keeps k + 1 magnitudes
    levels = desc.cumsum()
    levels -= radius
    levels /= _counts(v.size)
    # desc[k] - levels[k] > 0, written as a comparison:
    # for IEEE doubles a - b > 0 holds exactly when a > b
    feasible = desc > levels
    feasible[0] = True
    last = v.size - int(feasible[::-1].argmax())
    shift = levels[last - 1]
    # soft_threshold(v, shift), thresholding the magnitudes in place
    mags -= shift
    np.maximum(mags, 0.0, out=mags)
    return np.sign(v) * mags


def project_ball_around(u: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Projection onto ``{u : ||u - center||_1 <= radius}``."""
    return center + project_l1_ball(u - center, radius)


def project_psd_cone(x: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix (eigenvalue clipping).

    The reassembled product is re-symmetrized because BLAS accumulation
    order differs between mirrored entries.
    """
    xh = 0.5 * (x + x.conj().T)
    w, vecs = np.linalg.eigh(xh)
    w = np.maximum(w, 0.0)
    out = (vecs * w) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def project_pixelwise_ball(p: np.ndarray, radius: float) -> np.ndarray:
    """Clip each leading-axis vector of ``p`` to the Euclidean ball.

    Used for the dual variable of the isotropic total-variation term, where
    ``p`` stacks the two gradient components along axis 0.
    """
    mag = np.sqrt(np.sum(p**2, axis=0))
    factor = np.where(mag > radius, radius / np.maximum(mag, 1e-300), 1.0)
    return p * factor
