"""Test data that no command draws: fixed scenes, a vignette and random
Hermitian matrices."""

from __future__ import annotations

import numpy as np

from mcfli.grid import Grid
from mcfli.scene import SceneImage

# standard deviation of the Gaussian vignette, as a share of the field of view
VIGNETTE_REL_WIDTH = 0.3


def random_hermitian(
    order: int,
    seed,
    hollow: bool = False,
    constant_diagonal: float | None = None,
) -> np.ndarray:
    """Random complex Hermitian ``(order, order)`` matrix, exactly symmetric:
    ``(A + A^H) / 2`` for a complex Gaussian ``A``, with its diagonal zeroed
    (``hollow``) or set to ``constant_diagonal``."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    h = 0.5 * (a + a.conj().T)
    if hollow:
        np.fill_diagonal(h, 0.0)
    if constant_diagonal is not None:
        np.fill_diagonal(h, constant_diagonal)
    return h


def zeros_scene(grid: Grid) -> SceneImage:
    return SceneImage(grid=grid, values=np.zeros(grid.shape))


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


def gaussian_vignette(grid: Grid) -> np.ndarray:
    """Smooth window with unit peak, ~zero on the field-of-view frontier."""
    ax = grid.axis_coords()
    sigma = VIGNETTE_REL_WIDTH * grid.fov
    w1 = np.exp(-0.5 * (ax / sigma) ** 2)
    if grid.dim == 1:
        return w1
    return np.outer(w1, w1)
