"""Random sketching vectors: per-core complex amplitudes set by the SLM.

Entries are phase-only, so a batch holds the phases alone; the complex
amplitudes ``exp(i * phase)`` are materialized once, on first use.
:func:`draw_sketches` draws the phases uniform on ``[0, 2pi)``; the batch
keeps no record of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class SketchBatch:
    phases: np.ndarray  # (m, q)

    def __post_init__(self):
        self.phases.setflags(write=False)

    @property
    def m(self) -> int:
        return self.phases.shape[0]

    @property
    def q(self) -> int:
        return self.phases.shape[1]

    @cached_property
    def alphas(self) -> np.ndarray:
        """Unit-modulus complex amplitudes, shape ``(m, q)``; computed once
        per batch, read-only, and shared by every operator built on it."""
        alphas = np.exp(1j * self.phases)
        alphas.setflags(write=False)
        return alphas


def draw_sketches(q: int, m: int, seed) -> SketchBatch:
    """Draw ``m`` sketching vectors of length ``q`` with i.i.d. uniform
    phases.  Deterministic under a fixed seed."""
    if m < 1 or q < 1:
        raise ValueError(f"need m >= 1 and q >= 1, got m={m}, q={q}")
    rng = np.random.default_rng(seed)
    return SketchBatch(phases=rng.uniform(0.0, 2.0 * np.pi, size=(m, q)))
