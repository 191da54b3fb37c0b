"""Sample images on a grid, with an optional vignette."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid


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


def sparse_scene(grid: Grid, k: int, seed, zero_mean: bool = True) -> SceneImage:
    """K-sparse synthetic scene: uniform support, standard-normal amplitudes.

    With ``zero_mean`` the nonzero amplitudes are recentred so the whole
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
