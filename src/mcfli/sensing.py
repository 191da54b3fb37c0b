"""Forward operators of the sensing chain.

The chain factors as: vignetted image -> interferometric matrix (one Fourier
coefficient per core pair, a plain ``(q, q)`` complex array) -> symmetric
rank-one projections against the sketching vectors -> mean-subtraction
(debiasing).  The data is that one map, :meth:`CombinedOperator.forward`:
the raw projections ``SropOperator(sketches).forward(interferometric_matrix(
scene, layout))`` less their mean; a caller that wants noise adds it to the
output.  The first map is written once, as :func:`image_to_matrix` (one FFT,
then a gather of the visibility bins) with its exact adjoint
:func:`matrix_to_image` (scatter, then one inverse FFT); the fused operator,
its dense matrices and the raster scan all compose that pair, so
:meth:`CoreLayout.scatter` is the one sum over the core pairs that share a
bin: a row of either dense matrix is the scatter of one sketch's outer
product, read as an image or at the visibility bins.  A sketch set is a
complex ``(m, q)`` array, whose quadratic forms :class:`SropOperator` alone
takes, a bounded chunk of rows at a time, with no other copy of the array
held.  The image reaches the measurements only through the bins the core pairs
occupy, so the map factors as ``C Phi`` through :func:`image_to_visibilities`
(``Phi``), the isometry onto real coordinates of the spectrum at those bins
(adjoint :func:`visibilities_to_image`), which are fewer than the pixels
whenever bins are left unoccupied.  :class:`VisibilityOperator` holds ``C`` or
the upper triangle of its Gram ``C^T C`` and applies the map's normal operator
through it; the TV solve of the imaging demo runs on it.

Illumination has one model: a :class:`WavefieldSet` of per-core fields,
whose speckle for a sketch ``alpha`` is ``|sum_q alpha_q E_q|^2``.  The set
owns the measurement model of its fields: ``sensing_matrix`` gives the raw
single-pixel rows (the speckles times the pixel volume), and
``interferometric_matrix`` the cross-core overlaps whose rank-one projections
are the same values.  The far-field plane waves at the cores' own frequencies
are the set :func:`plane_wave_fields` builds, and their overlaps, summed
pixel by pixel, are the direct oracle of :func:`interferometric_matrix`; the
calibration perturbs and recovers the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .grid import Grid
from .layout import CoreLayout
from .scene import SceneImage
from .solvers.linop import MatrixOperator, operator_norm

# imaginary residue allowed when casting SROP outputs to real, relative to
# the Frobenius norm of the projected matrix
IMAG_RESIDUE_RTOL = 1e-12
# Every loop over chunks of rows takes its ranges from _row_chunks, under one
# of two budgets on the bytes of a chunk's largest temporary:
# - DENSE_CHUNK_BYTES, 64 KiB, for the dense builds (_outer_spectra), half of
#   glibc's default mmap threshold.  A temporary past the threshold is mapped,
#   and freeing it raises the threshold, which grows the peak resident set of
#   the solves that follow (at 1 MiB, the 1-D sweep's peak RSS read
#   44.2-44.4 -> 46.0-46.1 MB; see LANCZOS_MAX_BASIS).
# - STREAM_CHUNK_BYTES, 1 MiB, for the SROP's streams of sketch rows and the
#   tile products of the visibility Gram (square tiles of 362 rows).  At
#   64 KiB the matrix-free 2-D TV solve took 5.61-5.86 s against 3.64-3.65 s.
# The Gram's row blocks of the (m, D) map take eight times STREAM_CHUNK_BYTES.
# Each block streams the stored triangle once, so a larger one saves time (at
# the demo point, 8 MiB is 426 of 3000 rows and about 0.5 s of tile products,
# against 0.65 s at 4 MiB), while the triangle and one block stay below the
# (m, D) matrix.  The tiles also set the triangle's row blocks: at D = 2460
# its product makes 14 matrix-vector products that stream 55 MB (the 27.7 MB
# triangle twice) against the full Gram's 48 MB, while 20 row blocks of 128
# rows made it about 1.5 times as slow.
DENSE_CHUNK_BYTES = 1 << 16
STREAM_CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# interferometric matrix
# ---------------------------------------------------------------------------


def image_to_matrix(layout: CoreLayout, values: np.ndarray) -> np.ndarray:
    """Raw (un-symmetrized) interferometric matrix of a grid-shaped real
    image: one FFT, then the visibility bins gathered per core pair."""
    grid = layout.grid
    return grid.fourier_scale * layout.gather(grid.fft(values).ravel())


def matrix_to_image(layout: CoreLayout, matrix: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`image_to_matrix`: the matrix entries scattered
    onto their visibility bins, then one inverse FFT; grid-shaped and real.

    A stack of matrices ``(..., q, q)`` maps to a stack of images
    ``(..., *grid.shape)`` through one scatter and one inverse FFT, and each
    image has the bits of a call on its matrix alone.
    """
    return _spectra_to_images(layout.grid, layout.scatter(matrix))


def _spectra_to_images(grid: Grid, spectra: np.ndarray) -> np.ndarray:
    image = grid.ifft(spectra.reshape(spectra.shape[:-1] + grid.shape))
    return np.real(image) * grid.fourier_scale


def interferometric_matrix(scene: SceneImage, layout: CoreLayout) -> np.ndarray:
    """The ``(q, q)`` matrix whose ``(j, k)`` entry is the vignetted image's
    Fourier coefficient at the visibility of cores ``j`` and ``k``
    (:func:`image_to_matrix`).  On an on-grid layout it equals, to machine
    precision, the direct pixel-by-pixel sum against the plane waves,
    ``plane_wave_fields(layout).interferometric_matrix(scene.vignetted_values)``,
    which stays exact off the grid and serves as the oracle."""
    if scene.grid != layout.grid:
        raise ValueError("scene and layout are defined on different grids")
    return image_to_matrix(layout, scene.vignetted_values)


# ---------------------------------------------------------------------------
# visibility coordinates
# ---------------------------------------------------------------------------


def _real_coordinates(layout: CoreLayout, spectra: np.ndarray) -> np.ndarray:
    """Real coordinates of flat spectra ``(..., n)`` at the layout's
    occupied bins: the real part at the self-conjugate bins, then ``sqrt(2)
    Re`` and ``sqrt(2) Im`` at one bin of each conjugate pair."""
    real, pairs, _ = layout.visibility_bins
    paired = spectra[..., pairs] * np.sqrt(2.0)
    return np.concatenate((spectra[..., real].real, paired.real, paired.imag), axis=-1)


def image_to_visibilities(layout: CoreLayout, values: np.ndarray) -> np.ndarray:
    """The unitary spectrum (:meth:`Grid.fft`) of a grid-shaped real image at
    the bins the layout's core pairs occupy, as real coordinates.

    A conjugate pair of bins carries one complex value of a real image's
    spectrum, stored as ``sqrt(2) Re`` and ``sqrt(2) Im``; a self-conjugate
    bin carries one real value.  The map is an isometry on those bins, so it
    preserves inner products of images whose spectra live there, and the
    centred sensing map factors through it (:class:`VisibilityOperator`).
    """
    return _real_coordinates(layout, layout.grid.fft(values).ravel())


def visibilities_to_image(layout: CoreLayout, coords: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`image_to_visibilities`: the coordinates placed
    on their bins and mirrored, then one inverse FFT; grid-shaped and real."""
    grid = layout.grid
    real, pairs, mirrors = layout.visibility_bins
    split = np.cumsum((real.size, pairs.size))
    on_real, re, im = np.split(np.asarray(coords, dtype=np.float64), split)
    paired = (re + 1j * im) / np.sqrt(2.0)
    spectrum = np.zeros(grid.n_points, dtype=np.complex128)
    spectrum[real] = on_real
    spectrum[pairs] = paired
    spectrum[mirrors] = paired.conj()
    return np.real(grid.ifft(spectrum.reshape(grid.shape)))


# ---------------------------------------------------------------------------
# symmetric rank-one projections
# ---------------------------------------------------------------------------


class SropOperator:
    """Hermitian matrix -> real measurements through rank-one sketches.

    ``forward`` computes the raw quadratic forms ``a^H H a`` of the matrix
    against each row ``a`` of the complex ``(m, q)`` sketch array (random,
    Nyquist pairs or raster steering); :class:`CombinedOperator` debiases
    them.  The operator holds the sketch array and nothing else: ``forward``
    and ``adjoint`` take the sketches a chunk of rows at a time
    (:func:`_row_chunks`, at most ``STREAM_CHUNK_BYTES`` of complex rows)
    and conjugate each chunk as they go.  ``as_matrix`` gives the same map
    as a dense real matrix on the float64 view of the Hermitian matrix.
    """

    def __init__(self, sketches: np.ndarray):
        sketches = np.asarray(sketches, dtype=np.complex128)
        if sketches.ndim != 2:
            raise ValueError(f"expected an (m, q) sketch array, got shape {sketches.shape}")
        self.sketches = sketches
        self.m, self.q = sketches.shape

    def _chunks(self):
        """Yield each row chunk of the sketches with a ``(rows, q)`` complex
        work array, a view into one buffer that every chunk reuses."""
        chunks = _row_chunks(self.m, 16 * self.q, STREAM_CHUNK_BYTES)
        rows = max((c.stop - c.start for c in chunks), default=0)
        work = np.empty((rows, self.q), dtype=np.complex128)
        for part in chunks:
            yield part, work[: part.stop - part.start]

    def forward(self, matrix) -> np.ndarray:
        h = np.asarray(matrix, dtype=np.complex128)
        if h.shape != (self.q, self.q):
            raise ValueError(f"expected a {self.q}x{self.q} matrix, got {h.shape}")
        # per chunk, conj(a H^T) . a: the conjugate of a^H H a, whose real
        # part has the bits of the one-shot einsum(conj(A), A @ H.T)
        y = np.empty(self.m, dtype=np.complex128)
        for part, work in self._chunks():
            a = self.sketches[part]
            np.matmul(a, h.T, out=work)
            np.conjugate(work, out=work)
            np.einsum("mq,mq->m", work, a, out=y[part])
        scale = max(np.linalg.norm(h), np.finfo(float).tiny)
        residue = np.abs(y.imag).max()
        if residue > IMAG_RESIDUE_RTOL * scale:
            raise ValueError(
                f"non-Hermitian input: imaginary residue {residue:.2e} "
                f"exceeds {IMAG_RESIDUE_RTOL:.0e} * ||H||_F"
            )
        return y.real

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """Weighted sum of the sketch outer products; exactly Hermitian."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.m,):
            raise ValueError(f"expected {self.m} weights, got shape {z.shape}")
        return self._outer_sum(z)

    def _outer_sum(self, z: np.ndarray) -> np.ndarray:
        """``sum_i z_i a_i a_i^H`` as ``a^T (conj(a) z)`` summed over the row
        chunks."""
        out = np.zeros((self.q, self.q), dtype=np.complex128)
        for part, work in self._chunks():
            a = self.sketches[part]
            np.conjugate(a, out=work)
            work *= z[part, None]
            out += a.T @ work
        return out

    def as_matrix(self) -> np.ndarray:
        """Dense real ``(m, 2 q^2)`` matrix of the map.

        Row ``i`` is the float64 view of ``a_i a_i^H``, so ``as_matrix() @
        h.view(np.float64).ravel()`` equals ``forward(h)`` for Hermitian
        ``h`` (``a^H h a`` is the real inner product of ``h`` with ``a a^H``).
        The rows lie in the Hermitian subspace, so the matrix has the map's
        norm.
        """
        a = self.sketches
        return (a[:, :, None] * a.conj()[:, None, :]).view(np.float64).reshape(self.m, -1)


def _row_chunks(m: int, row_bytes: int, budget: int) -> list[slice]:
    """Row ranges over ``0..m`` of at most ``budget`` bytes each (at least
    one row), except that a one-row remainder of chunks of several rows joins
    the chunk before it: numpy sends a one-row matrix product to a
    matrix-vector product, whose bits differ from the matrix product's."""
    size = max(1, budget // row_bytes)
    edges = list(range(0, m, size))
    if size > 1 and len(edges) > 1 and m - edges[-1] == 1:
        edges.pop()
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:] + [m])]


# ---------------------------------------------------------------------------
# fused image-to-measurement operator
# ---------------------------------------------------------------------------


class CombinedOperator:
    """The full debiased sensing map from a real image to measurements.

    ``forward`` takes a flat (or grid-shaped) real image of the layout's grid
    and returns the projections of its interferometric matrix less their
    mean, which hides the matrix diagonal (unit-modulus sketches weigh every
    diagonal entry alike).  ``adjoint`` is the exact transpose, the SROP
    adjoint of the centred weights, and ``normal`` their composition.
    ``as_matrix`` materializes the map as a dense ``(m, n)`` array,
    worthwhile for the desk-scale Monte-Carlo runs, or as its ``(m, D)``
    factor on the ``D`` visibility coordinates.
    """

    def __init__(self, layout: CoreLayout, sketches: np.ndarray):
        self.srop = SropOperator(sketches)
        if self.srop.q != layout.order:
            raise ValueError(
                f"sketch length {self.srop.q} != number of cores {layout.order}"
            )
        self.layout = layout
        self.grid = layout.grid
        self.m, self.n = self.srop.m, self.grid.n_points

    def _shaped(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape == self.grid.shape:
            return v
        if v.shape == (self.n,):
            return v.reshape(self.grid.shape)
        raise ValueError(f"image shape {v.shape} does not match the grid")

    def forward(self, v: np.ndarray) -> np.ndarray:
        y = self.srop.forward(image_to_matrix(self.layout, self._shaped(v)))
        return y - y.mean()

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return matrix_to_image(self.layout, self.srop.adjoint(z - z.mean())).ravel()

    def normal(self, v: np.ndarray) -> np.ndarray:
        return self.adjoint(self.forward(v))

    def as_matrix(self, basis: str = "pixels") -> np.ndarray:
        """Dense real matrix of the map, built anew on each call.

        Row ``i`` is read off the scattered outer product of sketch ``i``,
        ``layout.scatter(a a^H)`` (:func:`_outer_spectra`), less the mean
        row.  ``pixels`` gives the ``(m, n)`` matrix equal to ``forward`` on
        flat images: each row is its spectrum's inverse FFT, with the bits of
        ``matrix_to_image(layout, np.outer(a, a.conj()))``.

        ``visibilities`` gives the ``(m, D)`` matrix ``C`` on the layout's
        ``D`` visibility coordinates, with ``forward(f) = C @
        image_to_visibilities(layout, f)`` to rounding: each row is its
        spectrum read at the visibility bins (:func:`_visibility_rows`).  The
        map has rank at most ``D``, which is below ``n`` once the cores leave
        bins unoccupied (2460 against 4096 for 110 cores on a 64x64 grid).
        """
        if basis not in ("pixels", "visibilities"):
            raise ValueError(f"unknown basis {basis!r}")
        if basis == "visibilities":
            # one block of every row, written into the returned array
            return next(_visibility_rows(self.layout, self.srop, [slice(0, self.m)]))
        rows = np.empty((self.m, self.n))
        for part, spectra in _outer_spectra(self.layout, self.srop.sketches):
            rows[part] = _spectra_to_images(self.grid, spectra).reshape(len(spectra), -1)
        # the debiasing, as the mean of the held rows: the sweep CSVs' bits
        rows -= rows.mean(axis=0)
        return rows


def _outer_spectra(layout: CoreLayout, sketches: np.ndarray):
    """Yield each row range of the ``(m, q)`` sketches with the spectra
    ``layout.scatter(a a^H)`` of its rows, ``(rows, n)``; no chunk's outer
    products or spectra exceed ``DENSE_CHUNK_BYTES`` (at least one row)."""
    row_bytes = 16 * max(layout.order**2, layout.grid.n_points)
    for part in _row_chunks(len(sketches), row_bytes, DENSE_CHUNK_BYTES):
        a = sketches[part]
        yield part, layout.scatter(a[:, :, None] * a.conj()[:, None, :])


def _visibility_rows(layout: CoreLayout, srop: SropOperator, blocks: list[slice]):
    """Yield the centred rows of the ``(m, D)`` map on the visibility
    coordinates, one row range of ``blocks`` at a time, as views into one
    buffer that the next block overwrites.

    Row ``i`` is the coordinate vector of the scattered outer product of
    sketch ``i`` (:func:`_outer_spectra`): the spectrum's real coordinates at
    the visibility bins (:func:`_real_coordinates`), times the grid's
    ``fourier_scale``.  The mean row is read the same way off the scattered
    mean outer product, since the rows are linear in it.
    """
    scale = layout.grid.fourier_scale
    # the debiasing, off the mean outer product: the Gram never holds all rows
    mean = layout.scatter(srop._outer_sum(np.ones(srop.m)) / srop.m)
    mean_row = scale * _real_coordinates(layout, mean)
    rows = np.empty((max(b.stop - b.start for b in blocks), mean_row.size))
    for block in blocks:
        out = rows[: block.stop - block.start]
        for part, spectra in _outer_spectra(layout, srop.sketches[block]):
            out[part] = _real_coordinates(layout, spectra)
        out *= scale
        out -= mean_row
        yield out


def _visibility_gram(layout: CoreLayout, srop: SropOperator) -> list[np.ndarray]:
    """The upper triangle of the symmetric ``(D, D)`` Gram ``G = C^T C`` of
    the ``(m, D)`` map ``C`` on the visibility coordinates, with ``C`` never
    held whole and no lower tile stored.

    Returns the row blocks ``G[lo:hi, lo:]``, views into one buffer, whose
    row ranges tile ``0..D``; a block's ``lo`` is ``D`` less its width.  Its
    leading ``(hi - lo)`` square, the diagonal tile, is upper-triangular with
    its diagonal halved, so :func:`_gram_product` counts it once through the
    block and once through its transpose.  Each block of
    :func:`_visibility_rows` (eight times ``STREAM_CHUNK_BYTES`` at most)
    adds its tile products into the blocks; no tile product exceeds
    ``STREAM_CHUNK_BYTES``.  The blocks take ``(D^2 + D * tile) / 2`` floats
    at most, against ``D^2`` for the full Gram.
    """
    real, pairs, _ = layout.visibility_bins
    dim = real.size + 2 * pairs.size
    if dim == 0:
        return []
    tile = max(1, int(np.sqrt(STREAM_CHUNK_BYTES // 8)))
    tiles = [slice(lo, min(lo + tile, dim)) for lo in range(0, dim, tile)]
    sizes = [(t.stop - t.start) * (dim - t.start) for t in tiles]
    parts = np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1])
    blocks = [part.reshape(t.stop - t.start, -1) for t, part in zip(tiles, parts)]
    row_blocks = _row_chunks(srop.m, 8 * dim, 8 * STREAM_CHUNK_BYTES)
    for rows in _visibility_rows(layout, srop, row_blocks):
        for i, (ti, block) in enumerate(zip(tiles, blocks)):
            lo = ti.start
            for tj in tiles[i:]:
                block[:, tj.start - lo : tj.stop - lo] += rows[:, ti].T @ rows[:, tj]
    for block in blocks:
        width = len(block)
        corner = block[:, :width]
        corner[np.tril_indices(width, -1)] = 0.0
        corner[np.diag_indices(width)] *= 0.5
    return blocks


def _gram_product(blocks: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """``G v`` from the upper row blocks of :func:`_visibility_gram`: two
    matrix-vector products per block, one with the block (its rows of the
    upper triangle) and one with its transpose (the mirrored columns), so
    each stored byte is streamed twice; numpy has no symmetric product."""
    out = np.zeros_like(v)
    for block in blocks:
        rows, width = block.shape
        lo = v.size - width
        out[lo : lo + rows] += block.dot(v[lo:])
        out[lo:] += v[lo : lo + rows].dot(block)
    return out


class VisibilityOperator:
    """The centred sensing map ``B = C Phi`` of a :class:`CombinedOperator`
    on the ``D`` visibility coordinates, held in the form that makes its
    normal map ``B^T B = Phi^T C^T C Phi`` cheaper.

    ``Phi`` is :func:`image_to_visibilities` and ``C`` the ``(m, D)`` map on
    the coordinates.  Around one FFT and one inverse FFT, ``normal`` costs
    either two products with ``C`` (``as_matrix(basis="visibilities")``) or
    one with the symmetric ``(D, D)`` Gram ``G = C^T C``, held as its upper
    triangle (:func:`_visibility_gram`, about ``D^2 / 2`` floats, built
    without holding ``C``) and applied by :func:`_gram_product`.  The
    operator holds ``C`` when ``m < D`` and the upper triangle of ``G``
    otherwise.  Per call ``G`` is the cheaper from ``m = D / 2`` on (its
    product streams the ``D^2 / 2`` stored floats twice, against ``m D``
    twice for ``C``), but its build costs
    ``m D^2`` flops, and on a 2-CPU host at ``D = 2460`` the solve on ``C``
    stayed the faster up to ``m`` between ``0.6 D`` (2000 iterations) and
    ``0.8 D`` (300 iterations).  The norm bound is Lanczos on whichever is
    held.  ``forward`` and ``adjoint`` run through ``C`` when it is held and
    are the combined operator's, matrix-free, when it is not.  Images are
    flat or grid-shaped; ``normal`` and ``adjoint`` return flat images.
    """

    def __init__(self, op: CombinedOperator):
        self.combined = op
        self.layout = op.layout
        self.grid = op.grid
        self.m, self.n = op.m, op.n
        real, pairs, _ = op.layout.visibility_bins
        dim = real.size + 2 * pairs.size
        if op.m < dim:
            self.factor = MatrixOperator(op.as_matrix(basis="visibilities"))
            self.coords = self.factor
        else:
            self.factor = None
            blocks = _visibility_gram(op.layout, op.srop)
            self.coords = SimpleNamespace(n=dim, normal=partial(_gram_product, blocks))
        # Phi is a co-isometry, so ||B|| = ||C||: Lanczos runs on the D
        # coordinates, with no FFT per step (its value bounds the eigenvalue
        # the top Ritz pair converged to; see operator_norm)
        self._norm_bound = operator_norm(self.coords)

    def _coordinates(self, v: np.ndarray) -> np.ndarray:
        image = np.asarray(v, dtype=np.float64).reshape(self.grid.shape)
        return image_to_visibilities(self.layout, image)

    def forward(self, v: np.ndarray) -> np.ndarray:
        if self.factor is None:
            return self.combined.forward(v)
        return self.factor.forward(self._coordinates(v))

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        if self.factor is None:
            return self.combined.adjoint(z)
        return visibilities_to_image(self.layout, self.factor.adjoint(z)).ravel()

    def normal(self, v: np.ndarray) -> np.ndarray:
        coords = self.coords.normal(self._coordinates(v))
        return visibilities_to_image(self.layout, coords).ravel()


# ---------------------------------------------------------------------------
# illumination modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WavefieldSet:
    """Per-core complex fields on a grid: the one illumination model.

    A sketch ``alpha`` lights the speckle ``|sum_q alpha_q E_q|^2``.  The
    far-field plane waves (:func:`plane_wave_fields`) are one such set;
    perturbed and calibrated fields are others.
    """

    grid: Grid
    fields: np.ndarray  # (q, *grid.shape) complex
    mask: np.ndarray | None = None  # pixels where recovery was possible

    def __post_init__(self):
        self.fields.setflags(write=False)
        if self.mask is not None:
            self.mask.setflags(write=False)

    @property
    def order(self) -> int:
        return self.fields.shape[0]

    def predict_speckle(self, alpha: np.ndarray) -> np.ndarray:
        """Intensity produced by a sketch through these fields.

        ``alpha`` is one sketch ``(q,)`` or a batch ``(m, q)``; the result is
        grid-shaped, with a leading axis of length ``m`` for a batch.
        """
        amp = np.tensordot(np.asarray(alpha, dtype=np.complex128), self.fields, axes=1)
        out = np.abs(amp) ** 2
        if self.mask is not None:
            out = np.where(self.mask, out, 0.0)
        return out

    def sensing_matrix(self, sketches: np.ndarray) -> np.ndarray:
        """Raw ``(m, n)`` measurement rows of an ``(m, q)`` sketch array: row
        ``i`` is the speckle of sketch ``i`` (:meth:`predict_speckle`) times
        the pixel volume, so its product with a flat image gives the raw
        single-pixel values."""
        if np.ndim(sketches) != 2 or np.shape(sketches)[1] != self.order:
            raise ValueError(f"expected (m, {self.order}) sketches, got {np.shape(sketches)}")
        speckles = self.predict_speckle(sketches).reshape(len(sketches), -1)
        return self.grid.pixel_volume * speckles

    def interferometric_matrix(self, values: np.ndarray) -> np.ndarray:
        """The cross-core overlaps weighted by a grid-shaped image:
        ``pixel_volume * sum_x conj(E_j(x)) f(x) E_k(x)``, over the masked
        pixels only.  Its rank-one projection against a sketch is the
        matching row of :meth:`sensing_matrix` times the image."""
        values = np.asarray(values)
        if values.shape != self.grid.shape:
            raise ValueError(f"image shape {values.shape} != grid shape {self.grid.shape}")
        if self.mask is not None:
            values = np.where(self.mask, values, 0.0)
        flat = self.fields.reshape(self.order, -1)
        weighted = flat.conj() * values.ravel()
        return self.grid.pixel_volume * (weighted @ flat.T)


def plane_wave_fields(layout: CoreLayout) -> WavefieldSet:
    """The far-field model: core ``q`` emits ``exp(+2i pi nu_q . x)`` at its
    own (unsnapped) frequency ``nu_q = p_q / fov`` (``core_frequencies``),
    with unit amplitude."""
    grid = layout.grid
    waves = np.exp(2j * np.pi * (grid.points() @ layout.core_frequencies.T))  # (n, q)
    return WavefieldSet(grid=grid, fields=waves.T.reshape(layout.order, *grid.shape))


def rs_scan(scene: SceneImage, layout: CoreLayout) -> np.ndarray:
    """Full raster scan over the grid: the image blurred by the array PSF.

    It is the SROP of the steering sketches ``S[t] = exp(-2i pi
    core_frequencies @ x_t)``, one beam focused on each grid point ``x_t``,
    in closed form: on a lattice layout the flat scan equals
    ``SropOperator(S).forward(interferometric_matrix(scene, layout))`` to
    rounding, and off it the scan is the snapped model's.
    """
    grid = layout.grid
    mat = interferometric_matrix(scene, layout)
    return matrix_to_image(layout, mat) * (np.sqrt(grid.n_points) / grid.fourier_scale)
