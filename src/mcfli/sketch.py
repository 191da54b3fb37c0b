"""Random sketching vectors: per-core complex amplitudes set by the SLM.

A sketch set is a read-only complex ``(m, q)`` array, one sketch per row.
"""

from __future__ import annotations

import numpy as np


def draw_sketches(q: int, m: int, seed) -> np.ndarray:
    """``m`` unit-modulus sketches of length ``q`` with i.i.d. phases uniform
    on ``[0, 2pi)``; deterministic under a fixed seed."""
    if m < 1 or q < 1:
        raise ValueError(f"need m >= 1 and q >= 1, got m={m}, q={q}")
    rng = np.random.default_rng(seed)
    # exponentiated in place: the bits of np.exp(1j * phases), with one complex
    # array made instead of two
    sketches = 1j * rng.uniform(0.0, 2.0 * np.pi, size=(m, q))
    np.exp(sketches, out=sketches)
    sketches.setflags(write=False)
    return sketches
