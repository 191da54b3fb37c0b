"""Simulated phase-shifting calibration of the per-core wavefields.

Calibration keeps the one illumination model of :mod:`mcfli.sensing`, a
:class:`~mcfli.sensing.WavefieldSet`, but lets its per-core fields depart from
the far-field plane waves.  This module makes and measures fields: it
synthesises them, renders their fringes, recovers them and scores their
speckles; the set's own ``sensing_matrix`` and ``interferometric_matrix``
image through them.  Synthetic fields start from
:func:`~mcfli.sensing.plane_wave_fields` and multiply each core by a smooth
random amplitude or phase profile.  Calibration recovers the fields from
intensity-only fringe patterns: for each core an 8-frame stack is rendered
against the phase-stepped reference core, core 0, and an 8-point DFT along
the steps isolates the interference term.  Core labels are arbitrary, so
fixing the reference to core 0 loses nothing.  The recovered fields carry the
reference core's phase as a common per-pixel factor, which cancels in every
predicted speckle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .layout import CoreLayout
from .sensing import WavefieldSet, plane_wave_fields

N_PHASE_STEPS = 8
REFERENCE_FLOOR_RATIO = 1e-6


@dataclass(frozen=True, eq=False)
class FringeStack:
    grid: Grid
    frames: np.ndarray  # (q, 8, *grid.shape) intensity frames
    reference_frame: np.ndarray  # intensity of the reference core (0) alone

    def __post_init__(self):
        self.frames.setflags(write=False)
        self.reference_frame.setflags(write=False)

    @property
    def n_frames(self) -> int:
        """Total acquisitions: 8 per core plus the reference-only frame."""
        return self.frames.shape[0] * self.frames.shape[1] + 1


def _smooth_profile(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Low-order random profile in [-1, 1] over the grid."""
    ax = grid.axis_coords() / grid.fov
    freq = rng.integers(1, 3)
    phase = rng.uniform(0, 2 * np.pi)
    if grid.dim == 1:
        return np.cos(2 * np.pi * freq * ax + phase)
    fy = rng.integers(1, 3)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.cos(2 * np.pi * (freq * gx + fy * gy) + phase)


def synth_fields(
    layout: CoreLayout,
    perturbation: tuple[str, float] | None = None,
    seed=0,
) -> WavefieldSet:
    """Synthetic per-core wavefields on the layout's grid.

    Without perturbation these are the far-field plane waves of
    :func:`~mcfli.sensing.plane_wave_fields`.  ``("amplitude-ripple", delta)``
    modulates each core's amplitude with a smooth random profile of depth
    ``delta``; ``("phase-aberration", delta)`` applies a smooth random phase
    screen of ``delta`` radians RMS-scale.  One profile is drawn per core, in
    core order, from ``default_rng(seed)``.
    """
    waves = plane_wave_fields(layout)
    if perturbation is None:
        return waves
    kind, delta = perturbation
    if kind not in ("amplitude-ripple", "phase-aberration"):
        raise ValueError(f"unknown perturbation {kind!r}")
    if not np.isfinite(delta):
        raise ValueError(f"perturbation depth must be finite, got {delta}")
    rng = np.random.default_rng(seed)
    profiles = np.array([_smooth_profile(layout.grid, rng) for _ in range(layout.order)])
    if kind == "amplitude-ripple":
        factors = 1.0 + delta * profiles
    else:
        factors = np.exp(1j * delta * profiles)
    return WavefieldSet(grid=layout.grid, fields=factors * waves.fields)


def render_fringes(
    fields: WavefieldSet, noise_sigma: float = 0.0, seed=0
) -> FringeStack:
    """Render the 8-step interferograms of every core against core 0.

    Frame ``k`` of core ``q`` is the intensity of the reference field (phase
    advanced by ``2 pi k / 8``) superposed with the core field.  Optional
    additive Gaussian noise of standard deviation ``noise_sigma >= 0``
    relative to the peak frame intensity.
    """
    if not noise_sigma >= 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    ref = fields.fields[0]
    steps = 2.0 * np.pi * np.arange(N_PHASE_STEPS) / N_PHASE_STEPS
    shifted = ref[None] * np.exp(1j * steps.reshape((-1,) + (1,) * fields.grid.dim))
    frames = np.abs(shifted[None] + fields.fields[:, None]) ** 2
    reference_frame = np.abs(ref) ** 2
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        scale = noise_sigma * frames.max()
        frames = frames + rng.normal(0.0, scale, size=frames.shape)
        reference_frame = reference_frame + rng.normal(
            0.0, scale, size=reference_frame.shape
        )
    return FringeStack(grid=fields.grid, frames=frames, reference_frame=reference_frame)


def recover_fields(stack: FringeStack) -> WavefieldSet:
    """Recover the wavefields, referenced to the phase of core 0, whose
    field comes back with zero phase.

    The 7-th coefficient of the 8-point DFT along the phase steps equals
    ``4 * I_i * exp(i * relative phase)``; dividing by ``8 * sqrt(I_ref)``
    yields the field.  Pixels whose reference intensity falls below
    ``REFERENCE_FLOOR_RATIO * max`` are masked out; recovery fails if more
    than half the field of view is masked.
    """
    i00 = stack.reference_frame
    floor = REFERENCE_FLOOR_RATIO * i00.max()
    mask = i00 > floor
    if mask.mean() < 0.5:
        raise ValueError(
            "reference intensity below the floor over more than half the FOV"
        )
    coef = np.fft.fft(stack.frames, axis=1)[:, N_PHASE_STEPS - 1]
    denom = np.where(mask, np.sqrt(np.abs(i00)), 1.0)
    fields = np.where(mask[None], coef / (N_PHASE_STEPS * denom[None]), 0.0)
    return WavefieldSet(grid=stack.grid, fields=fields, mask=mask)


def speckle_cross_correlation(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Normalized cross-correlation between two intensity patterns."""
    num = float(np.sum(predicted * truth))
    den = float(np.linalg.norm(predicted) * np.linalg.norm(truth))
    if den == 0:
        return 0.0
    return num / den
