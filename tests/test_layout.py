import numpy as np
import pytest

from mcfli import (
    explicit_layout,
    fermat_spiral_layout,
    make_grid,
    random_layout_1d,
)


def brute_force_distinct(layout):
    """Independent enumeration of distinct nonzero visibility bins."""
    grid = layout.grid
    seen = set()
    q = layout.order
    for j in range(q):
        for k in range(q):
            if j == k:
                continue
            b = np.rint(layout.positions[j] - layout.positions[k])
            key = tuple(int(v) % grid.n1 for v in b)
            if grid.dim == 1:
                if key[0] != 0:
                    seen.add(key)
            elif key != (0, 0):
                seen.add(key)
    return len(seen)


def test_two_cores_give_one_conjugate_pair():
    g = make_grid(1, 256, 1.0)
    lay = random_layout_1d(g, 2, seed=5)
    assert lay.distinct_visibilities == 2


def test_q16_count_matches_brute_force():
    g = make_grid(1, 256, 1.0)
    lay = random_layout_1d(g, 16, seed=7)
    count = lay.distinct_visibilities
    assert count <= 240
    assert count == brute_force_distinct(lay)


def test_layout_roundtrip():
    # a layout is its grid and positions: rebuilding from them gives it back
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 8, seed=0)
    back = explicit_layout(lay.grid, lay.positions)
    assert np.array_equal(back.positions, lay.positions)
    assert np.array_equal(back.bin_map, lay.bin_map)
    assert back.grid == lay.grid


def test_seeded_determinism():
    g = make_grid(1, 256, 1.0)
    a = random_layout_1d(g, 12, seed=42)
    b = random_layout_1d(g, 12, seed=42)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.bin_map, b.bin_map)


def test_visibility_symmetry():
    # bin of (k, j) is the conjugate (negated) bin of (j, k)
    g = make_grid(1, 128, 1.0)
    lay = random_layout_1d(g, 10, seed=3)
    n = g.n1
    for j in range(10):
        for k in range(10):
            assert lay.bin_map[k, j] == (-lay.bin_map[j, k]) % n
    # the visibility multiset equals its own negation
    bins = sorted(lay.off_diagonal_bins)
    neg = sorted((-b) % n for b in lay.off_diagonal_bins)
    assert bins == neg


def test_diagonal_maps_to_zero_bin():
    g = make_grid(2, 32, 1.0)
    lay = fermat_spiral_layout(g, 9)
    assert np.all(lay.bin_map.diagonal() == 0)


def test_q_exceeding_grid_rejected():
    g = make_grid(1, 8, 1.0)
    with pytest.raises(ValueError):
        random_layout_1d(g, 10, seed=0)
    with pytest.raises(ValueError):
        random_layout_1d(g, 1, seed=0)


def test_fermat_paper_configuration():
    g = make_grid(2, 256, 1.0)
    lay = fermat_spiral_layout(g, 110)
    assert lay.order == 110
    assert lay.positions.shape == (110, 2)
    # spiral fits inside the default aperture
    radii = np.linalg.norm(lay.positions, axis=1)
    assert radii.max() <= 0.25 * g.n1 + 1e-12


def test_fermat_single_core():
    g = make_grid(2, 64, 1.0)
    lay = fermat_spiral_layout(g, 1)
    assert lay.distinct_visibilities == 0
    assert lay.off_diagonal_bins.size == 0


def test_fermat_uniqueness_flag_matches_bin_count():
    # on a coarse grid the flag is computed, not assumed
    g = make_grid(2, 32, 1.0)
    lay = fermat_spiral_layout(g, 110)
    distinct = brute_force_distinct(lay)
    assert lay.distinct_visibilities == distinct
    expected_flag = distinct == 110 * 109 and not np.any(
        lay.off_diagonal_bins == 0
    )
    assert lay.is_distinct == expected_flag


def test_fermat_requires_2d():
    g = make_grid(1, 64, 1.0)
    with pytest.raises(ValueError):
        fermat_spiral_layout(g, 8)


def test_snap_residual_zero_on_grid():
    # positions are lattice coordinates: a random comb holds integers, and
    # rounding a spiral's positions puts it on the lattice
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 6, seed=1)
    assert np.array_equal(lay.positions, np.rint(lay.positions))
    assert lay.max_snap_residual == 0.0
    g2 = make_grid(2, 64, 1.0)
    spiral = fermat_spiral_layout(g2, 110)
    assert spiral.max_snap_residual > 0.0
    assert explicit_layout(g2, np.rint(spiral.positions)).max_snap_residual == 0.0


def test_snap_residual_recorded_off_grid():
    g = make_grid(1, 64, 1.0)
    positions = np.array([[0.0], [1.3], [5.02]])
    lay = explicit_layout(g, positions)
    assert lay.max_snap_residual == pytest.approx(0.3, abs=1e-9)


def test_multiplicities_count_every_pair():
    g = make_grid(1, 16, 1.0)
    lay = random_layout_1d(g, 6, seed=0)
    bins, counts = lay.multiplicities
    assert counts.sum() == 6 * 5
    assert np.all(counts >= 1)


def test_gather_scatter_adjoint():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 8, seed=9)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    lhs = np.vdot(lay.gather(u), mat)
    rhs = np.vdot(u, lay.scatter(mat))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_scatter_of_a_stack_is_bit_identical_to_per_matrix_calls():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 12, seed=2)
    assert not lay.is_distinct
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, 2, 12, 12)) + 1j * rng.standard_normal((3, 2, 12, 12))
    out = lay.scatter(stack)
    assert out.shape == (3, 2, 64)
    for idx in np.ndindex(3, 2):
        single = np.zeros(64, dtype=np.complex128)
        np.add.at(single, lay.bin_map.ravel(), stack[idx].ravel())
        assert lay.scatter(stack[idx]).tobytes() == single.tobytes()
        assert out[idx].tobytes() == single.tobytes()
