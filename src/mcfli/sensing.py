"""Forward operators of the sensing chain.

The chain factors as: vignetted image -> interferometric matrix (one Fourier
coefficient per core pair) -> symmetric rank-one projections against the
sketching vectors -> mean-subtraction (debiasing).  Every operator exposes an
exact adjoint, and the fused image-to-measurement map is available both
matrix-free (:class:`CombinedOperator`) and as a dense matrix for small
problems.  The legacy raster-scanning and speckle-illumination modes are
implemented on the same interferometric core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid
from .hermitian import HermitianMatrix
from .layout import CoreLayout
from .scene import SceneImage
from .sketch import SketchBatch

# imaginary residue allowed when casting SROP outputs to real, relative to
# the Frobenius norm of the projected matrix
IMAG_RESIDUE_RTOL = 1e-12


def _check_same_grid(scene: SceneImage, layout: CoreLayout):
    if scene.grid != layout.grid:
        raise ValueError("scene and layout are defined on different grids")


# ---------------------------------------------------------------------------
# interferometric matrix
# ---------------------------------------------------------------------------


class InterferometricOperator:
    """Image -> Hermitian matrix of Fourier coefficients on the visibilities.

    Two evaluation paths: ``fft`` computes one FFT and gathers the visibility
    bins; ``direct`` evaluates the Fourier sums pixel by pixel through the
    steering vectors.  The two agree to machine precision whenever the layout
    visibilities are on-grid; ``direct`` remains exact for off-grid layouts
    and serves as the oracle.
    """

    def __init__(self, layout: CoreLayout, path: str = "fft"):
        if path not in ("fft", "direct"):
            raise ValueError(f"unknown path {path!r}")
        self.layout = layout
        self.grid = layout.grid
        self.path = path

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """Raw (un-symmetrized) matrix from a grid-shaped real image."""
        grid = self.grid
        if self.path == "fft":
            spectrum = grid.fft(values)
            return grid.fourier_scale * self.layout.gather(spectrum.ravel())
        freqs = self.layout.core_frequencies
        steer = np.exp(-2j * np.pi * (grid.points() @ freqs.T))  # (n, q)
        weighted = steer.T * values.ravel()
        return grid.pixel_volume * (weighted @ steer.conj())

    def apply(self, scene: SceneImage) -> HermitianMatrix:
        _check_same_grid(scene, self.layout)
        return HermitianMatrix(self.apply_values(scene.vignetted_values))


def interferometric_matrix(
    scene: SceneImage, layout: CoreLayout, path: str = "fft"
) -> HermitianMatrix:
    """The Hermitian matrix whose ``(j, k)`` entry is the vignetted image's
    Fourier coefficient at the visibility of cores ``j`` and ``k``."""
    return InterferometricOperator(layout, path=path).apply(scene)


def interferometric_rank(
    scene: SceneImage, layout: CoreLayout, rel_tol: float = 1e-8
) -> int:
    """Numerical rank of the interferometric matrix of a spike scene."""
    return interferometric_matrix(scene, layout, path="direct").numerical_rank(rel_tol)


# ---------------------------------------------------------------------------
# symmetric rank-one projections
# ---------------------------------------------------------------------------


class SropOperator:
    """Hermitian matrix -> real measurements through rank-one sketches.

    ``forward`` computes the quadratic forms of the matrix against each
    sketching vector; with ``centered=True`` the measurement mean is
    subtracted, which makes the map blind to the matrix diagonal (unit-modulus
    sketches put identical weight on every diagonal entry).
    """

    def __init__(self, sketches: SketchBatch, centered: bool = False):
        self.sketches = sketches
        self.centered = centered

    @cached_property
    def _alphas(self) -> np.ndarray:
        return np.ascontiguousarray(self.sketches.alphas)

    @property
    def m(self) -> int:
        return self.sketches.m

    @property
    def q(self) -> int:
        return self.sketches.q

    def forward(self, matrix) -> np.ndarray:
        h = np.asarray(matrix, dtype=np.complex128)
        if h.shape != (self.q, self.q):
            raise ValueError(f"expected a {self.q}x{self.q} matrix, got {h.shape}")
        alphas = self._alphas
        y = np.einsum("mq,mq->m", alphas.conj(), alphas @ h.T)
        scale = max(np.linalg.norm(h), np.finfo(float).tiny)
        residue = np.abs(y.imag).max()
        if residue > IMAG_RESIDUE_RTOL * scale:
            raise ValueError(
                f"non-Hermitian input: imaginary residue {residue:.2e} "
                f"exceeds {IMAG_RESIDUE_RTOL:.0e} * ||H||_F"
            )
        out = y.real
        if self.centered:
            out = out - out.mean()
        return out

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """Weighted sum of the sketch outer products; exactly Hermitian."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.m,):
            raise ValueError(f"expected {self.m} weights, got shape {z.shape}")
        if self.centered:
            z = z - z.mean()
        alphas = self._alphas
        return (alphas.T * z) @ alphas.conj()

    def _power_start(self, rng: np.random.Generator) -> np.ndarray:
        """Random Hermitian start of the Lanczos iteration in
        :func:`mcfli.solvers.linop.operator_norm` (the domain is matrices)."""
        x = rng.standard_normal((self.q, self.q)) + 1j * rng.standard_normal(
            (self.q, self.q)
        )
        return 0.5 * (x + x.conj().T)


def srop_forward(matrix, sketches: SketchBatch) -> np.ndarray:
    return SropOperator(sketches, centered=False).forward(matrix)


def debias(y: np.ndarray) -> np.ndarray:
    """Subtract the measurement mean; the result sums to zero."""
    y = np.asarray(y, dtype=np.float64)
    if y.size < 1:
        raise ValueError("need at least one measurement")
    return y - y.mean()


def srop_centered_forward(matrix, sketches: SketchBatch) -> np.ndarray:
    """Centered projections computed entry-wise from the centered sketch
    matrices (the slow, explicit path; coincides with ``debias(srop_forward)``).
    """
    h = np.asarray(matrix, dtype=np.complex128)
    alphas = sketches.alphas
    avg = (alphas.T @ alphas.conj()) / sketches.m  # mean of the outer products
    out = np.empty(sketches.m)
    for m_idx in range(sketches.m):
        a = alphas[m_idx]
        centered = np.outer(a, a.conj()) - avg
        val = np.sum(centered.conj() * h)
        out[m_idx] = val.real
    return out


# ---------------------------------------------------------------------------
# fused image-to-measurement operator
# ---------------------------------------------------------------------------


class CombinedOperator:
    """The full debiased sensing map from a real image to measurements.

    ``forward`` takes a flat (or grid-shaped) real image of the layout's grid
    and returns the centered projections of its interferometric matrix.
    ``adjoint`` is the exact transpose.  ``as_matrix`` materializes the map as
    a dense ``(m, n)`` array, worthwhile for the desk-scale Monte-Carlo runs.
    """

    def __init__(self, layout: CoreLayout, sketches: SketchBatch):
        if sketches.q != layout.order:
            raise ValueError(
                f"sketch length {sketches.q} != number of cores {layout.order}"
            )
        self.layout = layout
        self.grid = layout.grid
        self.sketches = sketches
        self.srop = SropOperator(sketches, centered=True)
        self._dense: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.grid.n_points

    @property
    def m(self) -> int:
        return self.sketches.m

    def _shaped(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape == self.grid.shape:
            return v
        if v.shape == (self.n,):
            return v.reshape(self.grid.shape)
        raise ValueError(f"image shape {v.shape} does not match the grid")

    def forward(self, v: np.ndarray) -> np.ndarray:
        spectrum = self.grid.fft(self._shaped(v))
        j = self.grid.fourier_scale * self.layout.gather(spectrum.ravel())
        return self.srop.forward(j)

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        w = self.srop.adjoint(z)
        u = self.layout.scatter(w).reshape(self.grid.shape)
        image = np.real(self.grid.ifft(u)) * self.grid.fourier_scale
        return image.ravel()

    def as_matrix(self) -> np.ndarray:
        """Dense real matrix equal to ``forward`` on flat images."""
        if self._dense is None:
            alphas = self.sketches.alphas
            rows = np.empty((self.m, self.n))
            for m_idx in range(self.m):
                a = alphas[m_idx]
                u = self.layout.scatter(np.outer(a, a.conj()))
                row = np.real(self.grid.ifft(u.reshape(self.grid.shape)))
                rows[m_idx] = self.grid.fourier_scale * row.ravel()
            rows -= rows.mean(axis=0)
            self._dense = rows
        return self._dense


# ---------------------------------------------------------------------------
# illumination modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpeckleField:
    grid: Grid
    values: np.ndarray  # nonnegative intensity, grid.shape
    alpha: np.ndarray  # generating sketch

    def __post_init__(self):
        self.values.setflags(write=False)


def _plane_wave_sum(
    freqs: np.ndarray, alpha: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Direct field synthesis ``h(x) = sum_q alpha_q exp(+2i pi nu_q . x)``
    at each row of ``points``."""
    return np.exp(2j * np.pi * (points @ freqs.T)) @ alpha


def speckle_field(
    layout: CoreLayout,
    alpha: np.ndarray,
    vignette: np.ndarray | None = None,
    path: str = "auto",
) -> SpeckleField:
    """Illumination intensity produced by one sketching vector.

    The field amplitude is the interference sum of the per-core plane waves;
    the intensity is its squared modulus under the vignetting window.  The
    ``fft`` path synthesizes the amplitude from an impulse map on the
    frequency grid (exact for on-grid layouts); ``direct`` sums per pixel and
    is kept as the oracle and the off-grid fallback.
    """
    grid = layout.grid
    alpha = np.asarray(alpha, dtype=np.complex128)
    if alpha.shape != (layout.order,):
        raise ValueError(f"sketch length {alpha.shape} != cores {layout.order}")
    if path == "auto":
        path = "fft" if layout.max_snap_residual < 1e-9 else "direct"
    if path == "fft":
        core_bins = grid.bin_index(
            np.rint(layout.core_frequencies * grid.fov).astype(np.int64)
        )
        imp = np.zeros(grid.n_points, dtype=np.complex128)
        np.add.at(imp, core_bins, alpha)
        amplitude = grid.ifft(imp.reshape(grid.shape)) * np.sqrt(grid.n_points)
    elif path == "direct":
        amplitude = _plane_wave_sum(
            layout.core_frequencies, alpha, grid.points()
        ).reshape(grid.shape)
    else:
        raise ValueError(f"unknown path {path!r}")
    intensity = np.abs(amplitude) ** 2
    if vignette is not None:
        intensity = vignette * intensity
    return SpeckleField(grid=grid, values=intensity, alpha=alpha)


def scene_inner(scene_values: np.ndarray, field_values: np.ndarray, grid: Grid) -> float:
    """Discrete approximation of the integral of ``scene * field``."""
    return float(grid.pixel_volume * np.sum(scene_values * field_values))


def rs_steering(layout: CoreLayout, tilt: np.ndarray) -> np.ndarray:
    """Beamforming sketch that translates the focused spot to ``tilt``."""
    tilt = np.atleast_1d(np.asarray(tilt, dtype=np.float64))
    return np.exp(-2j * np.pi * (layout.core_frequencies @ tilt))


def rs_measure(scene: SceneImage, layout: CoreLayout, tilt) -> float:
    """Single raster-scanning observation with the beam tilted to ``tilt``."""
    tilt = np.atleast_1d(np.asarray(tilt, dtype=np.float64))
    if np.any(np.abs(tilt) > layout.grid.fov / 2):
        raise ValueError("tilt falls outside the field of view")
    mat = interferometric_matrix(scene, layout)
    gamma = rs_steering(layout, tilt)
    val = gamma.conj() @ (mat.data @ gamma)
    return float(val.real)


def rs_scan(scene: SceneImage, layout: CoreLayout) -> np.ndarray:
    """Full raster scan over the grid: the image blurred by the array PSF."""
    mat = interferometric_matrix(scene, layout)
    u = layout.scatter(mat.data).reshape(layout.grid.shape)
    scan = layout.grid.ifft(u) * np.sqrt(layout.grid.n_points)
    return np.real(scan)


def si_measure(
    scene: SceneImage,
    layout: CoreLayout,
    sketches: SketchBatch,
    vignette: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Speckle-illumination observations ``y_m = <s_m, f>``.

    Returns the measurements and the ``(n, m)`` matrix whose columns are the
    discretized speckles.  On on-grid scenes this coincides with projecting
    the interferometric matrix of the vignetted image.
    """
    _check_same_grid(scene, layout)
    if vignette is None:
        vignette = scene.vignette
    cols = np.empty((layout.grid.n_points, sketches.m))
    for m_idx in range(sketches.m):
        field = speckle_field(layout, sketches.alphas[m_idx], vignette=vignette)
        cols[:, m_idx] = field.values.ravel()
    y = layout.grid.pixel_volume * (cols.T @ scene.values.ravel())
    return y, cols


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    kind: str  # "none" | "gaussian" | "uniform"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "uniform"):
            raise ValueError(f"unknown noise model {self.kind!r}")


def add_noise(y: np.ndarray, model: NoiseModel, seed) -> tuple[np.ndarray, float]:
    """Add zero-mean noise; returns the noisy vector and the realized l1 budget."""
    y = np.asarray(y, dtype=np.float64)
    if model.kind == "none":
        return y.copy(), 0.0
    rng = np.random.default_rng(seed)
    if model.kind == "gaussian":
        n = rng.normal(0.0, model.scale, size=y.shape)
    else:
        n = rng.uniform(-model.scale, model.scale, size=y.shape)
    return y + n, float(np.abs(n).sum())


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    raw: np.ndarray
    debiased: np.ndarray
    noise: NoiseModel
    epsilon: float
    mode: str
    seed: int | None

    def __post_init__(self):
        if self.raw.shape != self.debiased.shape:
            raise ValueError("raw and debiased vectors must have equal length")
        self.raw.setflags(write=False)
        self.debiased.setflags(write=False)


def measure(
    scene: SceneImage,
    layout: CoreLayout,
    sketches: SketchBatch,
    noise: NoiseModel = NoiseModel("none"),
    seed=None,
) -> MeasurementRecord:
    """Run the full acquisition: project, add noise, debias, record."""
    mat = interferometric_matrix(scene, layout)
    y = srop_forward(mat.data, sketches)
    noisy, eps = add_noise(y, noise, seed)
    return MeasurementRecord(
        raw=noisy,
        debiased=debias(noisy),
        noise=noise,
        epsilon=eps,
        mode="srop",
        seed=seed,
    )
