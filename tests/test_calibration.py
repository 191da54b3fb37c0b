from dataclasses import replace

import numpy as np
import pytest

from mcfli import (
    CombinedOperator,
    SceneImage,
    WavefieldSet,
    draw_sketches,
    explicit_layout,
    fermat_spiral_layout,
    interferometric_matrix,
    make_grid,
    random_layout_1d,
    recover_fields,
    render_fringes,
    sparse_scene,
    synth_fields,
)
from mcfli.calibration import _smooth_profile, speckle_cross_correlation
from mcfli.sensing import SropOperator, plane_wave_fields


def snapped_spiral(grid, q):
    return explicit_layout(grid, np.rint(fermat_spiral_layout(grid, q).positions))


@pytest.fixture(scope="module")
def setup_2d():
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 6)
    return grid, layout


def test_farfield_fields_reproduce_projection(setup_2d):
    grid, layout = setup_2d
    fields = synth_fields(layout)
    sk = draw_sketches(6, 5, seed=0)
    rng = np.random.default_rng(1)
    scene = SceneImage(grid=grid, values=rng.uniform(0, 1, grid.shape))
    y_srop = SropOperator(sk).forward(interferometric_matrix(scene, layout))
    for idx in range(len(sk)):
        s = fields.predict_speckle(sk[idx])
        val = grid.pixel_volume * np.sum(s * scene.values)
        assert val == pytest.approx(y_srop[idx], rel=1e-8)


def plane_wave(layout, q):
    grid = layout.grid
    phase = grid.points() @ layout.core_frequencies[q]
    return np.exp(2j * np.pi * phase).reshape(grid.shape)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["amplitude-ripple", "phase-aberration"])
def test_perturbation_stream_is_pinned(dim, kind):
    # core q's field is its plane wave times the q-th profile drawn from
    # default_rng(seed), whatever the kind
    if dim == 1:
        grid = make_grid(1, 64, 1.0)
        layout = random_layout_1d(grid, 7, seed=1)
    else:
        grid = make_grid(2, 16, 1.0)
        layout = fermat_spiral_layout(grid, 7)
    delta, seed = 0.3, 12
    fields = synth_fields(layout, perturbation=(kind, delta), seed=seed)
    ideal = plane_wave_fields(layout)
    assert np.array_equal(synth_fields(layout).fields, ideal.fields)
    rng = np.random.default_rng(seed)
    for q in range(layout.order):
        wave = plane_wave(layout, q)
        assert np.allclose(ideal.fields[q], wave, rtol=0, atol=1e-12)
        profile = _smooth_profile(grid, rng)
        if kind == "amplitude-ripple":
            expect = 1.0 + delta * profile
        else:
            expect = np.exp(1j * delta * profile)
        assert np.allclose(fields.fields[q] / wave, expect, rtol=0, atol=1e-12)


def test_unknown_perturbation_rejected(setup_2d):
    _, layout = setup_2d
    with pytest.raises(ValueError):
        synth_fields(layout, perturbation=("tilt", 0.1))


@pytest.mark.parametrize("kind", ["amplitude-ripple", "phase-aberration"])
@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_depth_rejected(setup_2d, kind, delta):
    _, layout = setup_2d
    with pytest.raises(ValueError, match="perturbation depth must be finite"):
        synth_fields(layout, perturbation=(kind, delta))


def test_generalized_matrix_matches_interferometric(setup_2d):
    grid, layout = setup_2d
    fields = synth_fields(layout)
    rng = np.random.default_rng(2)
    scene = SceneImage(grid=grid, values=rng.uniform(0, 1, grid.shape))
    # the snapped layout is on-grid, so the FFT path is an independent oracle
    g_mat = fields.interferometric_matrix(scene.values)
    i_mat = interferometric_matrix(scene, layout)
    assert np.linalg.norm(g_mat - i_mat) <= 1e-10 * np.linalg.norm(i_mat)


def test_generalized_matrix_hermitian_psd(setup_2d):
    grid, layout = setup_2d
    fields = synth_fields(layout, perturbation=("amplitude-ripple", 0.1), seed=3)
    rng = np.random.default_rng(4)
    scene = SceneImage(grid=grid, values=rng.uniform(0, 1, grid.shape))
    g_mat = fields.interferometric_matrix(scene.values)
    w = np.linalg.eigvalsh(g_mat)
    assert w.min() >= -1e-10 * np.abs(w).max()


def test_amplitude_ripple_bounded_model_deviation(setup_2d):
    grid, layout = setup_2d
    rng = np.random.default_rng(5)
    scene = SceneImage(grid=grid, values=rng.uniform(0, 1, grid.shape))
    i_mat = plane_wave_fields(layout).interferometric_matrix(scene.vignetted_values)
    fields = synth_fields(layout, perturbation=("amplitude-ripple", 0.05), seed=6)
    g_mat = fields.interferometric_matrix(scene.values)
    rel = np.linalg.norm(g_mat - i_mat) / np.linalg.norm(i_mat)
    assert rel <= 0.15


def test_single_core_speckle_ignores_phase(setup_2d):
    grid, _ = setup_2d
    layout1 = snapped_spiral(grid, 1)
    fields = synth_fields(layout1, perturbation=("amplitude-ripple", 0.2), seed=7)
    s1 = fields.predict_speckle(np.array([np.exp(0.3j)]))
    s2 = fields.predict_speckle(np.array([np.exp(-2.1j)]))
    assert np.allclose(s1, s2, atol=1e-12 * s1.max())


def test_generalized_forward_matches_combined(setup_2d):
    grid, layout = setup_2d
    fields = synth_fields(layout)
    sk = draw_sketches(6, 8, seed=8)
    scene = sparse_scene(grid, 5, seed=9, zero_mean=False)
    z = fields.sensing_matrix(sk) @ scene.values.ravel()
    z -= z.mean()
    op = CombinedOperator(layout, sk)
    y = op.forward(scene.values)
    assert np.linalg.norm(z - y) <= 1e-6 * max(np.linalg.norm(y), 1e-300)


def test_generalized_forward_zero_scene(setup_2d):
    grid, layout = setup_2d
    fields = synth_fields(layout)
    sk = draw_sketches(6, 4, seed=10)
    scene = SceneImage(grid=grid, values=np.zeros(grid.shape))
    z = fields.sensing_matrix(sk) @ scene.values.ravel()
    assert np.all(z - z.mean() == 0)


@pytest.mark.parametrize(
    "case", ["amplitude-ripple", "phase-aberration", "recovered", "masked"]
)
def test_sensing_rows_are_projections_of_the_overlaps(setup_2d, case):
    # through any fields, each raw value is the rank-one projection of the
    # image-weighted overlap matrix
    grid, layout = setup_2d
    kind = "amplitude-ripple" if case == "amplitude-ripple" else "phase-aberration"
    fields = synth_fields(layout, perturbation=(kind, 0.5), seed=13)
    if case == "recovered":
        fields = recover_fields(render_fringes(fields, noise_sigma=0.01, seed=14))
    elif case == "masked":
        mask = np.zeros(grid.shape, dtype=bool)
        mask[: grid.n1 // 2] = True
        fields = replace(fields, mask=mask)
    sk = draw_sketches(6, 9, seed=15)
    f = np.random.default_rng(16).uniform(0, 1, grid.shape)
    y = fields.sensing_matrix(sk) @ f.ravel()
    y_srop = SropOperator(sk).forward(fields.interferometric_matrix(f))
    assert np.linalg.norm(y - y_srop) <= 1e-10 * np.linalg.norm(y_srop)


def test_sensing_model_checks_its_inputs(setup_2d):
    grid, layout = setup_2d
    fields = synth_fields(layout)
    with pytest.raises(ValueError):
        fields.sensing_matrix(draw_sketches(5, 3, seed=0))
    with pytest.raises(ValueError):
        fields.interferometric_matrix(np.zeros(grid.n_points))


# ---------------------------------------------------------------------------
# fringes
# ---------------------------------------------------------------------------


def test_fringe_formula_constant_fields():
    grid = make_grid(2, 8, 1.0)
    fields = WavefieldSet(
        grid=grid, fields=np.ones((2, 8, 8), dtype=np.complex128)
    )
    stack = render_fringes(fields)
    steps = 2 * np.pi * np.arange(8) / 8
    for k in range(8):
        assert np.allclose(stack.frames[1, k], 2 + 2 * np.cos(steps[k]), atol=1e-12)


def test_frame_count_is_linear_in_cores():
    grid = make_grid(2, 8, 1.0)
    layout = snapped_spiral(grid, 5)
    fields = synth_fields(layout)
    stack = render_fringes(fields)
    assert stack.n_frames == 8 * 5 + 1


def test_frames_sum_to_static_intensity():
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 4)
    fields = synth_fields(layout, perturbation=("amplitude-ripple", 0.1), seed=0)
    stack = render_fringes(fields)
    ref = np.abs(fields.fields[0]) ** 2
    for q in range(4):
        static = ref + np.abs(fields.fields[q]) ** 2
        total = stack.frames[q].sum(axis=0)
        assert np.allclose(total, 8 * static, atol=1e-10 * static.max())


def test_seventh_dft_coefficient():
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 4)
    fields = synth_fields(layout, perturbation=("phase-aberration", 0.3), seed=1)
    stack = render_fringes(fields)
    ref = fields.fields[0]
    for q in range(4):
        coef = np.fft.fft(stack.frames[q], axis=0)[7]
        r0, rq = np.abs(ref), np.abs(fields.fields[q])
        rel_phase = np.angle(fields.fields[q]) - np.angle(ref)
        expect = 4 * (2 * r0 * rq) * np.exp(1j * rel_phase)
        assert np.allclose(coef, expect, atol=1e-9 * np.abs(expect).max())


# ---------------------------------------------------------------------------
# recovery round trips
# ---------------------------------------------------------------------------


def test_noiseless_roundtrip_exact():
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 6)
    fields = synth_fields(layout, perturbation=("phase-aberration", 0.4), seed=2)
    recovered = recover_fields(render_fringes(fields))
    sk = draw_sketches(6, 20, seed=3)
    for alpha in sk:
        corr = speckle_cross_correlation(
            recovered.predict_speckle(alpha), fields.predict_speckle(alpha)
        )
        assert corr >= 0.999


def test_recovered_reference_has_zero_phase():
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 4)
    fields = synth_fields(layout, perturbation=("phase-aberration", 0.5), seed=4)
    recovered = recover_fields(render_fringes(fields))
    phase = np.angle(recovered.fields[0])[recovered.mask]
    assert np.abs(phase).max() <= 1e-9


def test_recovery_is_global_phase_referenced():
    # recovered fields equal the true ones times exp(-i phase of core 0)
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 5)
    fields = synth_fields(layout, perturbation=("phase-aberration", 0.3), seed=5)
    recovered = recover_fields(render_fringes(fields))
    ref_phase = np.exp(-1j * np.angle(fields.fields[0]))
    for q in range(5):
        expect = fields.fields[q] * ref_phase
        diff = np.abs(recovered.fields[q] - expect)[recovered.mask]
        assert diff.max() <= 1e-9


def test_forward_predictions_invariant_to_reference_phase():
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 5)
    fields = synth_fields(layout, perturbation=("amplitude-ripple", 0.1), seed=6)
    recovered = recover_fields(render_fringes(fields))
    sk = draw_sketches(5, 6, seed=7)
    scene = sparse_scene(grid, 4, seed=8, zero_mean=False)
    z_true = fields.sensing_matrix(sk) @ scene.values.ravel()
    z_rec = recovered.sensing_matrix(sk) @ scene.values.ravel()
    z_true, z_rec = z_true - z_true.mean(), z_rec - z_rec.mean()
    assert np.allclose(z_rec, z_true, atol=1e-9 * max(np.abs(z_true).max(), 1e-300))


def test_noisy_roundtrip():
    grid = make_grid(2, 16, 1.0)
    layout = snapped_spiral(grid, 6)
    fields = synth_fields(layout, seed=9)
    stack = render_fringes(fields, noise_sigma=0.01, seed=10)
    recovered = recover_fields(stack)
    sk = draw_sketches(6, 20, seed=11)
    for alpha in sk:
        corr = speckle_cross_correlation(
            recovered.predict_speckle(alpha), fields.predict_speckle(alpha)
        )
        assert corr >= 0.99


def test_dark_reference_rejected():
    grid = make_grid(2, 16, 1.0)
    fields_arr = np.ones((3, 16, 16), dtype=np.complex128)
    # reference bright only in a thin strip: recovery must refuse
    fields_arr[0] *= 1e-9
    fields_arr[0, :2, :] = 1.0
    fields = WavefieldSet(grid=grid, fields=fields_arr)
    stack = render_fringes(fields)
    with pytest.raises(ValueError):
        recover_fields(stack)


@pytest.mark.parametrize("sigma", [-0.5, float("nan")])
def test_render_fringes_rejects_negative_noise(sigma, setup_2d):
    # a negative sigma would render noiseless frames and report the sigma
    _, layout = setup_2d
    with pytest.raises(ValueError, match="noise_sigma"):
        render_fringes(synth_fields(layout), noise_sigma=sigma)
