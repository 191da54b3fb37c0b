"""Core layouts and their visibility (difference-set) bookkeeping.

A layout holds the distal-plane positions of the fiber cores in core
pitches: the lattice unit ``lambda * z / fov`` (optical constants times the
inverse field of view), at which two cores one pitch apart probe frequencies
one bin apart.  Every ordered pair ``(j, k)`` of cores probes the object
spectrum at the visibility ``(p_j - p_k) / fov``, that is at bin
``p_j - p_k``.  Positions are stored continuous; visibilities are snapped to
the nearest bin when building the index map, and the snap residual is
recorded per pair so that departures from the on-grid assumption stay
measurable.  Duplicate off-diagonal bins are allowed and counted rather than
rejected.  A layout is its grid and positions with the bookkeeping derived
from them; which constructor drew the positions is not recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# the Fermat spiral's diameter as a share of the grid's aliasing-free
# aperture (n1 core pitches)
SPIRAL_APERTURE_SHARE = 0.5


@dataclass(frozen=True, eq=False)
class CoreLayout:
    grid: Grid
    positions: np.ndarray  # (q, dim) distal-plane coordinates, core pitches
    bin_map: np.ndarray  # (q, q) flat frequency-bin index; diagonal -> bin 0
    snap_residuals: np.ndarray  # (q, q) max per-axis |rounding residual|, bin units

    def __post_init__(self):
        for arr in (self.positions, self.bin_map, self.snap_residuals):
            arr.setflags(write=False)

    @property
    def order(self) -> int:
        return self.positions.shape[0]

    @property
    def core_frequencies(self) -> np.ndarray:
        """Per-core frequency ``p_q / fov``, shape (q, dim): the one place
        positions become frequencies."""
        return self.positions / self.grid.fov

    @cached_property
    def off_diagonal_bins(self) -> np.ndarray:
        """Flat bin of every ordered pair ``j != k`` (multiset, q(q-1) entries),
        in row-major pair order."""
        return self.bin_map[~np.eye(self.order, dtype=bool)]

    @property
    def distinct_visibilities(self) -> int:
        """Number of distinct non-zero frequency bins hit by core pairs."""
        bins = np.unique(self.off_diagonal_bins)
        return int(bins.size - np.count_nonzero(bins == 0))

    @property
    def multiplicities(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied off-diagonal bins and how many ordered pairs hit each."""
        return np.unique(self.off_diagonal_bins, return_counts=True)

    @property
    def is_distinct(self) -> bool:
        """True when every off-diagonal visibility occupies its own non-zero bin."""
        bins, counts = self.multiplicities
        return bool(np.all(counts == 1) and not np.any(bins == 0))

    @property
    def max_snap_residual(self) -> float:
        return float(self.snap_residuals.max()) if self.order else 0.0

    @cached_property
    def visibility_bins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bins that off-diagonal pairs occupy, split for real coordinates:
        ``(self_conjugate, pairs, mirrors)``.

        ``self_conjugate`` holds the occupied bins that are their own mirror
        (bin 0 and the Nyquist bins), ``pairs`` one bin of every occupied
        conjugate pair and ``mirrors`` its mirror, all in increasing order of
        the first bin.  The diagonal's bin 0 is left out unless an
        off-diagonal pair lands there too: unit-modulus sketches put the same
        weight on it in every measurement, so the centred map never sees it.
        """
        bins = np.unique(self.off_diagonal_bins)
        per_axis = np.unravel_index(bins, self.grid.shape)
        mirror = np.ravel_multi_index(
            tuple(-k % self.grid.n1 for k in per_axis), self.grid.shape
        )
        first = bins < mirror
        out = (bins[mirror == bins], bins[first], mirror[first])
        for arr in out:
            arr.setflags(write=False)
        return out

    # -- spectrum <-> matrix maps ----------------------------------------

    def gather(self, spectrum: np.ndarray) -> np.ndarray:
        """Lift a flat spectrum onto core pairs: entry ``(j,k)`` reads its bin.

        The diagonal reads bin 0 (the zero frequency) for every core.
        """
        return spectrum[self.bin_map]

    def scatter(self, matrix: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`gather`: accumulate matrix entries into bins.

        Duplicate bins are summed; conjugate pairs land in mirrored bins, so a
        Hermitian input produces a conjugate-symmetric spectrum.  A stack of
        matrices ``(..., q, q)`` gives a stack of flat spectra ``(..., n)``.
        Each spectrum sums its bins in pair order starting from 0.0, so it
        has the bits of a call on that matrix alone.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        batch = matrix.shape[:-2]
        n = self.grid.n_points
        rows = matrix.reshape(-1, self.bin_map.size)
        out = np.zeros((rows.shape[0], n), dtype=np.complex128)
        # row r accumulates into its own length-n slice of the flat output
        index = self.bin_map.reshape(-1) + n * np.arange(rows.shape[0])[:, None]
        np.add.at(out.reshape(-1), index.reshape(-1), rows.reshape(-1))
        return out.reshape(batch + (n,))


def _build_layout(grid: Grid, positions: np.ndarray) -> CoreLayout:
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if positions.shape[1] != grid.dim:
        raise ValueError(
            f"positions have dim {positions.shape[1]}, grid has dim {grid.dim}"
        )
    in_bins = positions[:, None, :] - positions[None, :, :]
    snapped = np.rint(in_bins)
    residual = np.abs(in_bins - snapped).max(axis=-1)
    bin_map = grid.bin_index(snapped.astype(np.int64))
    return CoreLayout(
        grid=grid,
        positions=positions,
        bin_map=np.ascontiguousarray(bin_map.astype(np.int64)),
        snap_residuals=residual,
    )


def explicit_layout(grid: Grid, positions: np.ndarray) -> CoreLayout:
    """Layout from user-provided distal-plane positions, in core pitches
    (units of ``lambda * z / fov``); integer positions lie on the
    lattice, so every visibility lands on a bin."""
    return _build_layout(grid, positions)


def random_layout_1d(grid: Grid, q: int, seed) -> CoreLayout:
    """Draw ``q`` core positions uniformly without replacement on a 1-D comb.

    Candidate positions are the ``n1 + 1`` integers in ``[-n1/2, n1/2]``
    (core pitches), stored as float64, so all visibilities land on-grid
    (modulo the spectral wrap for separations beyond ``n1/2`` pitches).
    Deterministic under a fixed seed.
    """
    if grid.dim != 1:
        raise ValueError("random_layout_1d requires a 1-D grid")
    if q < 2:
        raise ValueError(f"need at least 2 cores, got {q}")
    n_slots = grid.n1 + 1
    if q > n_slots:
        raise ValueError(f"q={q} exceeds the {n_slots} distinct grid positions")
    rng = np.random.default_rng(seed)
    slots = rng.choice(n_slots, size=q, replace=False) - grid.n1 // 2
    return _build_layout(grid, slots[:, None])


def fermat_spiral_layout(grid: Grid, q: int) -> CoreLayout:
    """Arrange ``q`` cores on a golden-angle spiral in the distal plane.

    The radius grows as the square root of the core index and the azimuth
    steps by the golden angle, which spreads the pairwise differences and
    keeps off-diagonal visibilities (nearly) all distinct.  The scaling
    constants are not canonical; the spiral's diameter is
    ``SPIRAL_APERTURE_SHARE * n1`` core pitches, half of the aliasing-free
    aperture of the grid.  The positions are in core pitches and mostly off
    the lattice.  Whether all off-diagonal gridded visibilities are actually
    unique at this grid resolution is reported by ``CoreLayout.is_distinct``.
    """
    if grid.dim != 2:
        raise ValueError("fermat_spiral_layout requires a 2-D grid")
    if q < 1:
        raise ValueError(f"need at least 1 core, got {q}")
    diameter = SPIRAL_APERTURE_SHARE * grid.n1
    idx = np.arange(q, dtype=np.float64)
    radius = 0.5 * diameter * np.sqrt(idx / max(q - 1, 1))
    angle = idx * GOLDEN_ANGLE
    positions = np.stack(
        [radius * np.cos(angle), radius * np.sin(angle)], axis=1
    )
    return _build_layout(grid, positions)


def downsample_layout(layout: CoreLayout, step: int) -> CoreLayout:
    """Keep every ``step``-th core (used to thin a spiral, e.g. 110 -> 55)."""
    return _build_layout(layout.grid, layout.positions[::step])
