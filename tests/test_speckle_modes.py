import numpy as np
import pytest

from mcfli import (
    SceneImage,
    draw_sketches,
    explicit_layout,
    fermat_spiral_layout,
    interferometric_matrix,
    make_grid,
    random_layout_1d,
    plane_wave_fields,
    rs_scan,
    sparse_scene,
)
from mcfli.sensing import SropOperator

from fixtures import delta_scene, gaussian_vignette, zeros_scene


def snapped_spiral(grid, q):
    return explicit_layout(grid, np.rint(fermat_spiral_layout(grid, q).positions))


def test_single_core_field_is_flat():
    g = make_grid(2, 16, 1.0)
    lay = fermat_spiral_layout(g, 1)
    w = gaussian_vignette(g)
    field = plane_wave_fields(lay).predict_speckle(np.array([1.0 + 0j])) * w
    assert np.allclose(field, w, atol=1e-12)


def test_beamformed_peak_at_origin():
    g = make_grid(2, 32, 1.0)
    lay = fermat_spiral_layout(g, 11)
    field = plane_wave_fields(lay).predict_speckle(np.ones(11, complex))
    center = (g.n1 // 2, g.n1 // 2)
    assert field[center] == pytest.approx(11.0**2, rel=1e-12)
    assert np.unravel_index(np.argmax(field), field.shape) == center


def test_speckle_nonnegative():
    g = make_grid(2, 16, 1.0)
    lay = fermat_spiral_layout(g, 7)
    sk = draw_sketches(7, 3, seed=0)
    for alpha in sk:
        field = plane_wave_fields(lay).predict_speckle(alpha)
        assert field.min() >= 0


def test_speckle_projection_consistency():
    # integrating the speckle against the image equals the rank-one
    # projection of the interferometric matrix
    g = make_grid(1, 128, 1.0)
    lay = random_layout_1d(g, 8, seed=3)
    sk = draw_sketches(8, 6, seed=4)
    scene = sparse_scene(g, 6, seed=5, zero_mean=False)
    y_srop = SropOperator(sk).forward(interferometric_matrix(scene, lay))
    for idx, alpha in enumerate(sk):
        field = plane_wave_fields(lay).predict_speckle(alpha)
        y_field = g.pixel_volume * np.sum(field * scene.values)
        assert y_field == pytest.approx(y_srop[idx], rel=1e-8)


# ---------------------------------------------------------------------------
# raster scanning
# ---------------------------------------------------------------------------


def steering_sketches(layout):
    """One beamforming sketch per grid point ``x_t``, in the scan's pixel
    order: ``exp(-2i pi nu . x_t)`` focuses the beam on ``x_t``."""
    return np.exp(-2j * np.pi * (layout.grid.points() @ layout.core_frequencies.T))


@pytest.mark.parametrize(
    "layout",
    [lambda: random_layout_1d(make_grid(1, 256, 1.0), 26, seed=11),
     lambda: snapped_spiral(make_grid(2, 64, 1.0), 110)],
    ids=["1d-comb", "snapped-spiral"],
)
def test_rs_scan_is_the_srop_of_steering_sketches(layout):
    # raster scanning is a sensing mode of the SROP scheme: the scan is the
    # projection of the interferometric matrix against the steering sketches
    lay = layout()
    rng = np.random.default_rng(12)
    scene = SceneImage(grid=lay.grid, values=rng.uniform(0, 1, lay.grid.shape))
    srop = SropOperator(steering_sketches(lay)).forward(interferometric_matrix(scene, lay))
    scan = rs_scan(scene, lay).ravel()
    assert np.linalg.norm(scan - srop) <= 1e-13 * np.linalg.norm(srop)


def test_rs_at_origin_on_delta_scene():
    g = make_grid(1, 128, 1.0)
    lay = random_layout_1d(g, 7, seed=6)
    amp = 2.0
    scene = delta_scene(g, amplitude=amp)
    val = rs_scan(scene, lay)[g.n1 // 2]
    # direct beam-pattern evaluation at the spike
    field = plane_wave_fields(lay).predict_speckle(np.ones(7, complex))
    expect = g.pixel_volume * amp * field[g.n1 // 2]
    assert val == pytest.approx(expect, rel=1e-10)
    assert val == pytest.approx(g.pixel_volume * amp * 7**2, rel=1e-10)


def test_rs_scan_of_delta_is_psf():
    g = make_grid(1, 128, 1.0)
    lay = random_layout_1d(g, 6, seed=7)
    amp = 1.5
    scene = delta_scene(g, amplitude=amp)
    scan = rs_scan(scene, lay)
    psf = plane_wave_fields(lay).predict_speckle(np.ones(6, complex))
    assert np.allclose(scan, g.pixel_volume * amp * psf, atol=1e-8 * psf.max())


def test_rs_translation_identity():
    # tilting the beam equals translating the scene
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 6, seed=8)
    scene = sparse_scene(g, 5, seed=9, zero_mean=False)
    shift_pixels = 7
    translated = SceneImage(grid=g, values=np.roll(scene.values, -shift_pixels))
    lhs = np.roll(rs_scan(scene, lay), -shift_pixels)
    rhs = rs_scan(translated, lay)
    assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-12 * np.abs(rhs).max())


# ---------------------------------------------------------------------------
# speckle illumination
# ---------------------------------------------------------------------------


def test_si_zero_scene():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 5, seed=1)
    sk = draw_sketches(5, 8, seed=2)
    rows = plane_wave_fields(lay).sensing_matrix(sk)
    y = rows @ zeros_scene(g).values.ravel()
    assert np.all(y == 0)
    assert rows.shape == (8, 64)


def test_si_matches_srop_path():
    g = make_grid(1, 128, 1.0)
    lay = random_layout_1d(g, 7, seed=3)
    sk = draw_sketches(7, 8, seed=4)
    scene = sparse_scene(g, 4, seed=5, zero_mean=False)
    y = plane_wave_fields(lay).sensing_matrix(sk) @ scene.values.ravel()
    y_srop = SropOperator(sk).forward(interferometric_matrix(scene, lay))
    assert np.allclose(y, y_srop, rtol=1e-8, atol=1e-12)


def test_si_debiasing_matrix_identity():
    # mean subtraction equals applying I - (1/M) 1 1^T to S^T f
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 6, seed=6)
    sk = draw_sketches(6, 10, seed=7)
    scene = sparse_scene(g, 4, seed=8)
    y = plane_wave_fields(lay).sensing_matrix(sk) @ scene.values.ravel()
    m = len(sk)
    d = np.eye(m) - np.ones((m, m)) / m
    assert np.allclose(y - y.mean(), d @ y, atol=1e-14 * max(1.0, np.abs(y).max()))


def test_si_on_snapped_2d_spiral():
    g = make_grid(2, 16, 1.0)
    lay = snapped_spiral(g, 6)
    sk = draw_sketches(6, 5, seed=9)
    rng = np.random.default_rng(10)
    scene = SceneImage(grid=g, values=rng.uniform(0, 1, g.shape))
    y = plane_wave_fields(lay).sensing_matrix(sk) @ scene.values.ravel()
    mat = interferometric_matrix(scene, lay)
    assert np.allclose(y, SropOperator(sk).forward(mat), rtol=1e-8)


def test_si_columns_are_vignetted_speckles():
    g = make_grid(2, 16, 1.0)
    lay = fermat_spiral_layout(g, 7)
    sk = draw_sketches(7, 5, seed=11)
    w = gaussian_vignette(g)
    rng = np.random.default_rng(12)
    scene = SceneImage(grid=g, values=rng.uniform(0, 1, g.shape))
    fields = plane_wave_fields(lay)
    rows = fields.sensing_matrix(sk) * w.ravel()
    y = rows @ scene.values.ravel()
    assert rows.shape == (len(sk), g.n_points)
    for idx, alpha in enumerate(sk):
        speckle = (fields.predict_speckle(alpha) * w).ravel()
        assert np.allclose(rows[idx], g.pixel_volume * speckle, rtol=1e-12, atol=0)
        expect = g.pixel_volume * speckle @ scene.values.ravel()
        assert y[idx] == pytest.approx(expect, rel=1e-12)
