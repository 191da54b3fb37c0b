"""Sampling grids shared by scenes, layouts and operators.

A :class:`Grid` fixes the discretization of the object plane: ``n1`` points
per axis over a square field of view of side ``fov``, so its spectrum is
sampled at multiples of ``1/fov``.  It carries no optical constants: core
positions are lattice coordinates (see :mod:`mcfli.layout`), and dividing
them by ``fov`` gives their frequencies.  All Fourier transforms in the
package go through :meth:`Grid.fft` / :meth:`Grid.ifft`, which use the
unitary DFT with the coordinate origin at the center of the field of view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    dim: int
    n1: int
    fov: float

    @property
    def n_points(self) -> int:
        return self.n1**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n1,) * self.dim

    @property
    def pixel_pitch(self) -> float:
        return self.fov / self.n1

    @property
    def pixel_volume(self) -> float:
        """Pixel length (1-D) or area (2-D); weight of the discrete integral."""
        return self.pixel_pitch**self.dim

    @property
    def fourier_scale(self) -> float:
        """Constant relating continuous Fourier coefficients to DFT bins.

        Equals ``fov / sqrt(N)`` in 1-D and ``fov**2 / sqrt(N)`` in 2-D.
        """
        return self.fov**self.dim / np.sqrt(self.n_points)

    def axis_coords(self) -> np.ndarray:
        """Pixel-center coordinates along one axis, origin at the center."""
        return (np.arange(self.n1) - self.n1 // 2) * self.pixel_pitch

    def points(self) -> np.ndarray:
        """All grid points, shape ``(n_points, dim)``, C-order raveling."""
        ax = self.axis_coords()
        if self.dim == 1:
            return ax[:, None]
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    # -- unitary, origin-centred DFT -------------------------------------

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Unitary DFT of a grid-shaped array; bin ``k`` holds frequency ``k/fov``."""
        return np.fft.fftn(np.fft.ifftshift(values)) / np.sqrt(self.n_points)

    def ifft(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse (and adjoint) of :meth:`fft`.

        Only the trailing ``dim`` axes are transformed, so a stack of spectra
        ``(..., *shape)`` comes back as a stack of images; each slice has the
        bits of a call on that slice alone.
        """
        axes = tuple(range(-self.dim, 0))
        # passing s (the grid shape) spares ifftn a per-call lookup of it
        image = np.fft.ifftn(spectrum, s=self.shape, axes=axes)
        image = np.fft.fftshift(image, axes=axes)
        image *= np.sqrt(self.n_points)  # fftshift returned a fresh array
        return image

    def bin_index(self, int_freqs: np.ndarray) -> np.ndarray:
        """Flat spectrum index for integer per-axis frequencies (mod ``n1``)."""
        int_freqs = np.asarray(int_freqs)
        if self.dim == 1:
            return int_freqs.reshape(int_freqs.shape[:-1]) % self.n1
        folded = int_freqs % self.n1
        return folded[..., 0] * self.n1 + folded[..., 1]


def make_grid(dim: int, n1: int, fov: float) -> Grid:
    """Build a validated :class:`Grid`.

    ``n1`` must be even (the grid straddles the origin symmetrically) and the
    field of view must be positive.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if n1 < 2 or n1 % 2 != 0:
        raise ValueError(f"n1 must be even and >= 2, got {n1}")
    if fov <= 0:
        raise ValueError(f"fov must be positive, got {fov}")
    return Grid(dim=dim, n1=n1, fov=fov)
