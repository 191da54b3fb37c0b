"""Sample images on a grid, with an optional vignette."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

# standard deviation of the Gaussian vignette, as a share of the field of view
VIGNETTE_REL_WIDTH = 0.3


@dataclass(frozen=True, eq=False)
class SceneImage:
    grid: Grid
    values: np.ndarray  # real, grid.shape
    vignette: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        self.values.setflags(write=False)
        if self.vignette is not None:
            if self.vignette.shape != self.grid.shape:
                raise ValueError("vignette shape must match the grid")
            self.vignette.setflags(write=False)

    @property
    def vignetted_values(self) -> np.ndarray:
        """The image restricted to the field of view (``w * f``)."""
        if self.vignette is None:
            return self.values
        return self.vignette * self.values


def zeros_scene(grid: Grid) -> SceneImage:
    return SceneImage(grid=grid, values=np.zeros(grid.shape))


def sparse_scene(grid: Grid, k: int, seed, zero_mean: bool = True) -> SceneImage:
    """K-sparse synthetic scene: uniform support, standard-normal amplitudes.

    With ``zero_mean`` the nonzero amplitudes are recentered so the whole
    image sums to zero (the zero frequency then carries no signal).
    """
    if k < 0 or k > grid.n_points:
        raise ValueError(f"k must be in [0, {grid.n_points}], got {k}")
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n_points)
    if k:
        support = rng.choice(grid.n_points, size=k, replace=False)
        amps = rng.standard_normal(k)
        if zero_mean:
            amps -= amps.mean()
        values[support] = amps
    return SceneImage(grid=grid, values=values.reshape(grid.shape))


def delta_scene(grid: Grid, amplitude: float = 1.0) -> SceneImage:
    """Single spike at the grid origin (center pixel)."""
    center = (grid.n1 // 2,) * grid.dim
    flat_index = int(np.ravel_multi_index(center, grid.shape))
    values = np.zeros(grid.n_points)
    values[flat_index] = amplitude
    return SceneImage(grid=grid, values=values.reshape(grid.shape))


def spikes_scene(grid: Grid, k: int, seed) -> SceneImage:
    """K random spikes with random signs and magnitudes bounded away from zero."""
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n_points)
    support = rng.choice(grid.n_points, size=k, replace=False)
    amps = rng.uniform(0.5, 1.5, size=k)
    amps *= rng.choice([-1.0, 1.0], size=k)
    values[support] = amps
    return SceneImage(grid=grid, values=values.reshape(grid.shape))


def rectangles_scene(grid: Grid) -> SceneImage:
    """Cartoon test scene made of two axis-aligned rectangles (2-D only)."""
    if grid.dim != 2:
        raise ValueError("rectangles_scene requires a 2-D grid")
    n = grid.n1
    values = np.zeros(grid.shape)
    values[n // 8 : n // 2 - n // 16, n // 6 : n // 2] = 1.0
    values[n // 2 + n // 16 : 7 * n // 8, n // 2 - n // 8 : 3 * n // 4] = 0.6
    return SceneImage(grid=grid, values=values)


def bar_target_scene(grid: Grid) -> SceneImage:
    """Resolution-target cartoon: solid anchor blocks plus diagonal bar
    groups of four-pixel period (2-D only).

    The gratings put their fundamental on the diagonal of the upper
    visibility band, where thinned core arrangements lose coverage first,
    so the scene discriminates dense from downsampled layouts.
    """
    if grid.dim != 2:
        raise ValueError("bar_target_scene requires a 2-D grid")
    n = grid.n1
    if n < 64 or n % 64 != 0:
        raise ValueError("bar_target_scene needs n1 to be a multiple of 64")
    s = n // 64  # feature scale relative to the 64-grid
    values = np.zeros(grid.shape)
    values[8 * s : 24 * s, 6 * s : 26 * s] = 1.0
    values[40 * s : 56 * s, 38 * s : 58 * s] = 0.6
    idx = np.arange(n)
    grating = ((idx[:, None] + idx[None, :]) % (4 * s)) < 2 * s
    for r0, r1, c0, c1, amp in (
        (34, 54, 6, 26, 1.0),
        (8, 28, 38, 58, 0.8),
    ):
        box = np.zeros(grid.shape, dtype=bool)
        box[r0 * s : r1 * s, c0 * s : c1 * s] = True
        values[box & grating] = amp
    return SceneImage(grid=grid, values=values)


def gaussian_vignette(grid: Grid) -> np.ndarray:
    """Smooth window with unit peak, ~zero on the field-of-view frontier."""
    ax = grid.axis_coords()
    sigma = VIGNETTE_REL_WIDTH * grid.fov
    w1 = np.exp(-0.5 * (ax / sigma) ** 2)
    if grid.dim == 1:
        return w1
    return np.outer(w1, w1)
