"""Reconstruction quality metrics."""

from __future__ import annotations

import numpy as np

SNR_CAP_DB = 300.0


def vignetted_snr(
    estimate: np.ndarray,
    truth: np.ndarray,
    vignette: np.ndarray | None = None,
) -> float:
    """SNR in dB between the vignetted truth and the vignetted estimate.

    ``20 * log10(||w * f|| / ||w * (f - f_hat)||)``; an exact match returns
    the cap sentinel ``SNR_CAP_DB``.  Raises on an identically-zero (vignetted) truth.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must share a shape")
    if vignette is not None:
        estimate = vignette * estimate
        truth = vignette * truth
    signal = np.linalg.norm(truth)
    if signal == 0:
        raise ValueError("ground truth is zero under the vignette")
    err = np.linalg.norm(truth - estimate)
    if err == 0:
        return SNR_CAP_DB
    return float(min(20.0 * np.log10(signal / err), SNR_CAP_DB))
