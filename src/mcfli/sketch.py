"""Random sketching vectors: per-core complex amplitudes set by the SLM.

Entries are phase-only, so a batch holds the phases alone; the complex
amplitudes ``exp(i * phase)`` are materialized once, on first use.
:func:`draw_sketches` draws the phases uniform on ``[0, 2pi)``, optionally
quantized to ``2**quant_bits`` levels to mimic the finite resolution of a
phase modulator; the batch keeps no record of its seed or quantization.
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


def draw_sketches(q: int, m: int, seed, quant_bits: int | None = None) -> SketchBatch:
    """Draw ``m`` sketching vectors of length ``q`` with i.i.d. uniform phases.

    With ``quant_bits`` set, phases live on the ``2**quant_bits``-level
    lattice ``2 pi k / 2**quant_bits``.  Deterministic under a fixed seed.
    """
    if m < 1 or q < 1:
        raise ValueError(f"need m >= 1 and q >= 1, got m={m}, q={q}")
    rng = np.random.default_rng(seed)
    if quant_bits is None:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, q))
    else:
        if quant_bits < 1:
            raise ValueError(f"quant_bits must be >= 1, got {quant_bits}")
        levels = 2**quant_bits
        phases = rng.integers(0, levels, size=(m, q)) * (2.0 * np.pi / levels)
    return SketchBatch(phases=phases)
