import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from mcfli import (
    CombinedOperator,
    SceneImage,
    SropOperator,
    draw_sketches,
    interferometric_matrix,
    make_grid,
    random_layout_1d,
    sparse_scene,
)
from mcfli import sensing
from mcfli.layout import explicit_layout, fermat_spiral_layout
from mcfli.sensing import (
    VisibilityOperator,
    image_to_visibilities,
    matrix_to_image,
    plane_wave_fields,
    visibilities_to_image,
)
from mcfli.solvers import MatrixOperator, operator_norm
from mcfli.solvers.linop import LANCZOS_RTOL

from fixtures import random_hermitian, spikes_scene, zeros_scene


def direct_sum_oracle(scene, layout):
    """Entrywise double sum over pixels and core pairs (no FFT anywhere)."""
    grid = layout.grid
    f = scene.vignetted_values.ravel()
    pts = grid.points()
    freqs = layout.core_frequencies
    q = layout.order
    out = np.zeros((q, q), dtype=complex)
    for j in range(q):
        for k in range(q):
            nu = freqs[j] - freqs[k]
            out[j, k] = grid.pixel_volume * np.sum(
                f * np.exp(-2j * np.pi * (pts @ nu))
            )
    return out


def srop_centered_forward(matrix, sketches):
    """Centered projections computed entry-wise from the centered sketch
    matrices (the slow, explicit path; coincides with the raw ``SropOperator``
    projections less their mean).
    """
    h = np.asarray(matrix, dtype=np.complex128)
    avg = (sketches.T @ sketches.conj()) / len(sketches)  # mean of the outer products
    out = np.empty(len(sketches))
    for m_idx in range(len(sketches)):
        a = sketches[m_idx]
        centered = np.outer(a, a.conj()) - avg
        val = np.sum(centered.conj() * h)
        out[m_idx] = val.real
    return out


# ---------------------------------------------------------------------------
# interferometric matrix
# ---------------------------------------------------------------------------


def test_zero_scene_gives_zero_matrix():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 5, seed=0)
    mat = interferometric_matrix(zeros_scene(g), lay)
    assert np.all(mat == 0)


def test_nonnegative_scene_gives_psd_matrix():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 8, seed=1)
    rng = np.random.default_rng(2)
    scene = SceneImage(grid=g, values=rng.uniform(0, 1, g.shape))
    mat = interferometric_matrix(scene, lay)
    w = np.linalg.eigvalsh(mat)
    assert w.min() >= -1e-10 * np.abs(w).max()


def test_fft_path_matches_direct_double_sum():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 5, seed=3)
    scene = sparse_scene(g, 3, seed=4)
    fft_mat = interferometric_matrix(scene, lay)
    oracle = direct_sum_oracle(scene, lay)
    scale = np.linalg.norm(oracle)
    assert np.linalg.norm(fft_mat - oracle) <= 1e-10 * scale


def test_direct_path_agrees_with_fft_on_grid():
    g = make_grid(2, 16, 1.0)
    lay = fermat_spiral_layout(g, 6)
    # snap the spiral onto the frequency comb so both paths see the same model
    lay = explicit_layout(g, np.rint(lay.positions))
    rng = np.random.default_rng(5)
    scene = SceneImage(grid=g, values=rng.standard_normal(g.shape))
    a = interferometric_matrix(scene, lay)
    b = plane_wave_fields(lay).interferometric_matrix(scene.vignetted_values)
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


def test_constant_diagonal_equals_scaled_dc():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 6, seed=6)
    scene = sparse_scene(g, 4, seed=7, zero_mean=False)
    mat = interferometric_matrix(scene, lay)
    dc = g.fourier_scale * g.fft(scene.values)[0]
    assert np.allclose(np.diag(mat), dc, rtol=1e-12, atol=1e-14)


def test_grid_mismatch_rejected():
    g1 = make_grid(1, 64, 1.0)
    g2 = make_grid(1, 32, 1.0)
    lay = random_layout_1d(g1, 4, seed=0)
    with pytest.raises(ValueError):
        interferometric_matrix(zeros_scene(g2), lay)


def test_frobenius_identity_on_distinct_layout():
    # for zero-mean scenes on layouts with all-distinct visibilities, the
    # matrix energy equals the energy of the restricted spectrum
    g = make_grid(1, 256, 1.0)
    lay = None
    for seed in range(50):
        cand = random_layout_1d(g, 6, seed=seed)
        if cand.is_distinct:
            lay = cand
            break
    assert lay is not None, "no distinct layout found in 50 seeds"
    scene = sparse_scene(g, 10, seed=3, zero_mean=True)
    mat = interferometric_matrix(scene, lay)
    lhs = np.linalg.norm(mat) ** 2 / g.fourier_scale**2
    spectrum = g.fft(scene.values)
    bins = np.unique(lay.off_diagonal_bins)
    rhs = np.sum(np.abs(spectrum[bins]) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# rank of spike scenes
# ---------------------------------------------------------------------------


def direct_rank(scene, layout):
    """Singular values above ``1e-8`` of the largest, of the direct
    (plane-wave) interferometric matrix."""
    mat = plane_wave_fields(layout).interferometric_matrix(scene.vignetted_values)
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s > 1e-8 * s[0]))


def test_rank_single_spike():
    g = make_grid(1, 64, 1.0)
    lay = random_layout_1d(g, 6, seed=0)
    assert direct_rank(spikes_scene(g, 1, seed=1), lay) == 1


def test_rank_four_spikes_q16():
    g = make_grid(1, 256, 1.0)
    lay = random_layout_1d(g, 16, seed=2)
    assert direct_rank(spikes_scene(g, 4, seed=3), lay) == 4


def test_rank_saturates_at_core_count():
    g = make_grid(1, 256, 1.0)
    lay = random_layout_1d(g, 4, seed=4)
    assert direct_rank(spikes_scene(g, 20, seed=5), lay) == 4


# ---------------------------------------------------------------------------
# rank-one projections
# ---------------------------------------------------------------------------


def test_identity_projects_to_core_count():
    q = 9
    sk = draw_sketches(q, 12, seed=0)
    y = SropOperator(sk).forward(np.eye(q))
    assert np.allclose(y, q, rtol=1e-13)


def test_mean_estimates_trace():
    q, m = 6, 20000
    sk = draw_sketches(q, m, seed=1)
    h = random_hermitian(q, seed=2, constant_diagonal=0.7)
    y = SropOperator(sk).forward(h)
    se = y.std(ddof=1) / np.sqrt(m)
    assert abs(y.mean() - np.trace(h).real) <= 3 * se


def test_quadratic_form_matches_double_loop():
    q = 4
    sk = draw_sketches(q, 1, seed=3)
    h = random_hermitian(q, seed=4)
    y = SropOperator(sk).forward(h)[0]
    a = sk[0]
    acc = 0.0 + 0.0j
    for j in range(q):
        for k in range(q):
            acc += np.conj(a[j]) * h[j, k] * a[k]
    assert y == pytest.approx(acc.real, rel=1e-12)
    assert abs(acc.imag) <= 1e-12 * np.linalg.norm(h)


def test_non_hermitian_input_rejected():
    sk = draw_sketches(4, 3, seed=5)
    bad = np.arange(16.0).reshape(4, 4) + 1j
    with pytest.raises(ValueError):
        SropOperator(sk).forward(bad)


def test_sketch_arrays_must_be_two_dimensional():
    # a single sketch is a (1, q) array; a bare (q,) vector is refused, not
    # read as q sketches of length one
    sk = draw_sketches(4, 3, seed=5)
    fields = plane_wave_fields(random_layout_1d(make_grid(1, 32, 1.0), 4, seed=0))
    with pytest.raises(ValueError):
        SropOperator(sk[0])
    with pytest.raises(ValueError):
        fields.sensing_matrix(sk[0])


def test_centered_forward_kills_diagonal():
    q = 5
    sk = draw_sketches(q, 8, seed=6)
    diag = np.diag(np.random.default_rng(7).standard_normal(q)).astype(complex)
    scale = max(np.linalg.norm(diag), 1.0)
    y = srop_centered_forward(diag, sk)
    assert np.abs(y).max() <= 1e-12 * scale
    raw = SropOperator(sk).forward(diag)
    assert np.abs(raw - raw.mean()).max() <= 1e-12 * scale


def test_centered_forward_diagonal_shift_invariance():
    q = 5
    sk = draw_sketches(q, 6, seed=8)
    h = random_hermitian(q, seed=9)
    shifted = h + 3.7 * np.eye(q)
    a = srop_centered_forward(h, sk)
    b = srop_centered_forward(shifted, sk)
    assert np.allclose(a, b, atol=1e-12 * np.linalg.norm(shifted))


def test_centered_forward_equals_debiased_forward():
    q, m = 3, 6
    sk = draw_sketches(q, m, seed=10)
    h = random_hermitian(q, seed=11)
    explicit = srop_centered_forward(h, sk)
    raw = SropOperator(sk).forward(h)
    fast = raw - raw.mean()
    assert np.allclose(explicit, fast, atol=1e-13 * np.linalg.norm(h))


def test_srop_adjoint_identity():
    q, m = 7, 15
    sk = draw_sketches(q, m, seed=12)
    rng = np.random.default_rng(13)
    op = SropOperator(sk)
    for centered in (False, True):
        h = random_hermitian(q, seed=rng.integers(2**31))
        z = rng.standard_normal(m)
        y = op.forward(h)
        zc = z - z.mean() if centered else z
        lhs = (y - y.mean() if centered else y) @ z
        rhs = np.sum(np.conj(op.adjoint(zc)) * h).real
        assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("rows", [2, 3])
def test_chunked_srop_matches_the_one_shot_forms(rows, monkeypatch):
    # a budget of 2 or 3 sketch rows: 13 rows leave a one-row remainder,
    # which joins the chunk before it
    q, m = 7, 13
    monkeypatch.setattr(sensing, "STREAM_CHUNK_BYTES", 16 * q * rows)
    sizes = [c.stop - c.start for c in sensing._row_chunks(m, 16 * q, 16 * q * rows)]
    assert sizes == [rows] * (m // rows - 1) + [rows + 1]
    # chunks of one row (a row past the budget) take no merge
    sizes = [c.stop - c.start for c in sensing._row_chunks(7, 200000, 1 << 16)]
    assert sizes == [1] * 7
    sk = draw_sketches(q, m, seed=12)
    h = random_hermitian(q, seed=13)
    z = np.random.default_rng(14).standard_normal(m)
    raw = np.einsum("mq,mq->m", sk.conj(), sk @ h.T).real
    outer = (sk[:, :, None] * sk.conj()[:, None, :]).view(np.float64).reshape(m, -1)
    op = SropOperator(sk)
    y = op.forward(h)
    assert np.array_equal(y, raw)
    assert np.array_equal(y - y.mean(), raw - raw.mean())
    assert np.array_equal(op.as_matrix(), outer)
    for zc in (z, z - z.mean()):
        want = (sk.T * zc) @ sk.conj()
        assert np.linalg.norm(op.adjoint(zc) - want) <= 1e-13 * np.linalg.norm(want)


def test_srop_holds_only_its_sketches():
    # at the 2-D point one (m, q) complex array is 5.3 MB: the operator keeps
    # no copy of it past a call, and a call's temporaries stay near the 1 MiB
    # chunk budget
    grid = make_grid(2, 64, 1.0)
    layout = fermat_spiral_layout(grid, 110)
    sketches = draw_sketches(110, 3000, seed=0)
    v = np.random.default_rng(1).standard_normal(grid.n_points)
    CombinedOperator(layout, sketches[:2]).normal(v)  # fills the layout's caches
    tracemalloc.start()
    try:
        op = CombinedOperator(layout, sketches)
        op.normal(v)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        op.normal(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 1 << 16
    assert peak - held <= 2 << 20


def test_lemma1_second_moment_identity():
    # (1/M) A* A (J) concentrates on J for hollow J under unit-modulus sketches
    q, m = 6, 20000
    sk = draw_sketches(q, m, seed=14)
    j_mat = random_hermitian(q, seed=15, hollow=True)
    op = SropOperator(sk)
    y = op.forward(j_mat)
    recon = op.adjoint(y) / m
    # entrywise standard error of the averaged summand
    summand = (sk.T[:, None, :] * sk.conj().T[None, :, :]) * y[None, None, :]
    se = summand.std(axis=2, ddof=1) / np.sqrt(m)
    diff = np.abs(recon - j_mat)
    mask = ~np.eye(q, dtype=bool)
    assert np.all(diff[mask] <= 3.5 * np.abs(se[mask]) + 1e-12)


def test_centered_srop_l1_sandwich():
    # loose concentration bracket for the per-measurement l1 norm
    q, m = 6, 2000
    j_mat = random_hermitian(q, seed=16, hollow=True)
    j_unit = j_mat / np.linalg.norm(j_mat)
    ratios = []
    for seed in range(100):
        sk = draw_sketches(q, m, seed=1000 + seed)
        raw = SropOperator(sk).forward(j_unit)
        y = raw - raw.mean()
        ratios.append(np.abs(y).sum() / m)
    assert min(ratios) >= 0.05
    assert max(ratios) <= 1.2


# ---------------------------------------------------------------------------
# combined operator
# ---------------------------------------------------------------------------


def _combined(n1=128, q=10, m=24, seed=0):
    g = make_grid(1, n1, 1.0)
    lay = random_layout_1d(g, q, seed=seed)
    sk = draw_sketches(q, m, seed=seed + 1)
    return CombinedOperator(lay, sk)


def test_combined_zero_maps():
    op = _combined()
    assert np.all(op.forward(np.zeros(op.n)) == 0)
    assert np.all(op.adjoint(np.zeros(op.m)) == 0)


def test_combined_adjoint_pairs():
    op = _combined(n1=256, q=12, m=64, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.standard_normal(op.n)
        z = rng.standard_normal(op.m)
        lhs = op.forward(v) @ z
        rhs = v @ op.adjoint(z)
        denom = 0.5 * (
            np.linalg.norm(op.forward(v)) * np.linalg.norm(z)
            + np.linalg.norm(v) * np.linalg.norm(op.adjoint(z))
        )
        assert abs(lhs - rhs) <= 1e-10 * max(denom, 1e-300)


def test_combined_matches_unfused_pipeline():
    g = make_grid(1, 256, 1.0)
    lay = random_layout_1d(g, 8, seed=4)
    sk = draw_sketches(8, 20, seed=5)
    scene = sparse_scene(g, 5, seed=6, zero_mean=True)
    op = CombinedOperator(lay, sk)
    srop = SropOperator(sk)
    raw = srop.forward(interferometric_matrix(scene, lay))
    assert np.array_equal(op.forward(scene.values), raw - raw.mean())
    z = np.random.default_rng(7).standard_normal(op.m)
    unfused = matrix_to_image(lay, srop.adjoint(z - z.mean())).ravel()
    assert np.array_equal(op.adjoint(z), unfused)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-comb", "2d-spiral"])
def test_dense_matrix_matches_operator(dim):
    # the 2-D Fermat spiral is off-grid, so its visibilities are snapped
    if dim == 1:
        op = _combined(n1=64, q=7, m=18, seed=7)
    else:
        g = make_grid(2, 16, 1.0)
        op = CombinedOperator(fermat_spiral_layout(g, 12), draw_sketches(12, 60, seed=7))
    dense = op.as_matrix()
    rng, rng_z = np.random.default_rng(8), np.random.default_rng(9)
    for _ in range(5):
        v = rng.standard_normal(op.n)
        z = rng_z.standard_normal(op.m)
        assert np.allclose(dense @ v, op.forward(v), atol=1e-12)
        assert np.allclose(dense.T @ z, op.adjoint(z), atol=1e-12)


def per_row_dense(op):
    """The dense map built one sketch at a time with unbatched numpy calls:
    one ``np.add.at`` scatter and one inverse FFT per row."""
    grid, bins = op.grid, op.layout.bin_map.ravel()
    rows = np.empty((op.m, op.n))
    for i, a in enumerate(op.srop.sketches):
        spectrum = np.zeros(grid.n_points, dtype=np.complex128)
        np.add.at(spectrum, bins, np.outer(a, a.conj()).ravel())
        image = np.fft.fftshift(np.fft.ifftn(spectrum.reshape(grid.shape)))
        rows[i] = (np.real(image * np.sqrt(grid.n_points)) * grid.fourier_scale).ravel()
    rows -= rows.mean(axis=0)
    return rows


@pytest.mark.parametrize(
    "dim,q,m", [(1, 26, 98), (1, 4, 122), (2, 12, 60)], ids=["1d-q26", "1d-q4", "2d-spiral"]
)
def test_dense_matrix_bit_identical_to_per_row_build(dim, q, m):
    if dim == 1:
        g = make_grid(1, 256, 1.0)
        lay = random_layout_1d(g, q, seed=3)
    else:
        g = make_grid(2, 16, 1.0)
        lay = fermat_spiral_layout(g, q)
    if q == 26:
        assert not lay.is_distinct  # duplicate bins sum in pair order
    op = CombinedOperator(lay, draw_sketches(q, m, seed=4))
    assert op.as_matrix().tobytes() == per_row_dense(op).tobytes()


# ---------------------------------------------------------------------------
# visibility coordinates
# ---------------------------------------------------------------------------


def _visibility_case(case, m=60):
    """A CombinedOperator with ``m`` sketches on one of three layouts: the 2-D spiral, a 1-D
    comb with a pair 128 pitches apart (the Nyquist bin of n1=256), and an
    explicit 1-D layout with two cores 0.3 pitch apart (an off-diagonal pair
    snapped to bin 0)."""
    if case == "2d-spiral":
        g = make_grid(2, 16, 1.0)
        lay = fermat_spiral_layout(g, 12)
    elif case == "1d-nyquist":
        g = make_grid(1, 256, 1.0)
        slots = np.array([-64, -20, -3, 0, 5, 17, 41, 64])
        lay = explicit_layout(g, slots[:, None])
    else:
        g = make_grid(1, 64, 1.0)
        slots = np.array([-11.0, 0.0, 0.3, 4.0, 9.0, 20.0])
        lay = explicit_layout(g, slots[:, None])
    return CombinedOperator(lay, draw_sketches(lay.order, m, seed=7))


VISIBILITY_CASES = ["2d-spiral", "1d-nyquist", "1d-bin0"]


def test_visibility_cases_hit_their_special_bins():
    nyquist = _visibility_case("1d-nyquist").layout
    assert nyquist.visibility_bins[0].tolist() == [128]
    snapped = _visibility_case("1d-bin0").layout
    assert snapped.visibility_bins[0].tolist() == [0]
    spiral = _visibility_case("2d-spiral").layout
    real, pairs, mirrors = spiral.visibility_bins
    assert real.size == 0 and 2 * pairs.size == spiral.distinct_visibilities
    assert set(pairs) | set(mirrors) == set(spiral.off_diagonal_bins)


@pytest.mark.parametrize("case", VISIBILITY_CASES)
def test_visibility_coordinates_round_trip(case):
    lay = _visibility_case(case).layout
    real, pairs, _ = lay.visibility_bins
    coords = np.random.default_rng(1).standard_normal(real.size + 2 * pairs.size)
    back = image_to_visibilities(lay, visibilities_to_image(lay, coords))
    assert np.abs(back - coords).max() <= 1e-13 * np.abs(coords).max()


@pytest.mark.parametrize("case", VISIBILITY_CASES)
def test_visibility_coordinates_exact_adjoint(case):
    lay = _visibility_case(case).layout
    real, pairs, _ = lay.visibility_bins
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.standard_normal(lay.grid.shape)
        c = rng.standard_normal(real.size + 2 * pairs.size)
        lhs = image_to_visibilities(lay, f) @ c
        rhs = np.sum(f * visibilities_to_image(lay, c))
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(f) * np.linalg.norm(c)


@pytest.mark.parametrize("case", VISIBILITY_CASES)
def test_visibility_matrix_factors_the_pixel_matrix(case, monkeypatch):
    op = _visibility_case(case)
    grid = op.grid
    # the coordinates of every pixel's unit image, as a (D, n) matrix
    phi = np.stack(
        [image_to_visibilities(op.layout, e.reshape(grid.shape)) for e in np.eye(op.n)],
        axis=1,
    )
    pixels = op.as_matrix()
    factored = op.as_matrix(basis="visibilities") @ phi
    assert np.linalg.norm(factored - pixels) <= 1e-13 * np.linalg.norm(pixels)
    # Phi^T G Phi is the pixel Gram, with G applied to Phi's columns through
    # its upper blocks; a 512-byte stream budget splits the build into
    # several 4 KiB row blocks and 8-row tiles, and a 1-byte dense budget
    # into one-sketch chunks of outer-product spectra
    expect = pixels.T @ pixels
    for dense, stream in ((sensing.DENSE_CHUNK_BYTES, sensing.STREAM_CHUNK_BYTES), (1, 1 << 9)):
        monkeypatch.setattr(sensing, "DENSE_CHUNK_BYTES", dense)
        monkeypatch.setattr(sensing, "STREAM_CHUNK_BYTES", stream)
        blocks = sensing._visibility_gram(op.layout, op.srop)
        gram_phi = np.stack([sensing._gram_product(blocks, col) for col in phi.T], axis=1)
        assert np.linalg.norm(phi.T @ gram_phi - expect) <= 1e-13 * np.linalg.norm(expect)


@pytest.mark.parametrize("case", VISIBILITY_CASES)
def test_visibility_gram_holds_only_its_upper_triangle(case, monkeypatch):
    op = _visibility_case(case)
    c = op.as_matrix(basis="visibilities")
    dim = c.shape[1]
    v = np.random.default_rng(4).standard_normal(dim)
    want = c.T @ (c @ v)
    full = operator_norm(SimpleNamespace(n=dim, normal=(c.T @ c).dot))
    # budgets (dense, stream): the defaults; a 1-byte dense budget, one
    # sketch per chunk of outer-product spectra, which builds C and the Gram
    # with the default bits; and a 512-byte stream budget, 8-row tiles:
    # several blocks, the last one ragged
    default = (sensing.DENSE_CHUNK_BYTES, sensing.STREAM_CHUNK_BYTES)
    gram = sensing._visibility_gram(op.layout, op.srop)
    for dense, stream in (default, (1, default[1]), (1, 1 << 9)):
        monkeypatch.setattr(sensing, "DENSE_CHUNK_BYTES", dense)
        monkeypatch.setattr(sensing, "STREAM_CHUNK_BYTES", stream)
        tile = int(np.sqrt(stream // 8))
        blocks = sensing._visibility_gram(op.layout, op.srop)
        if stream == default[1]:
            assert op.as_matrix(basis="visibilities").tobytes() == c.tobytes()
            assert [b.tobytes() for b in blocks] == [b.tobytes() for b in gram]
        # row blocks G[lo:hi, lo:] over 0..D, views into one buffer
        assert [dim - b.shape[1] for b in blocks] == list(range(0, dim, tile))
        assert sum(len(b) for b in blocks) == dim
        assert len({id(b.base) for b in blocks}) == 1
        assert sum(b.nbytes for b in blocks) <= (dim**2 + dim * tile) / 2 * 8
        product = partial(sensing._gram_product, blocks)
        assert np.linalg.norm(product(v) - want) <= 1e-13 * np.linalg.norm(want)
        bound = operator_norm(SimpleNamespace(n=dim, normal=product))
        assert bound == pytest.approx(full, rel=LANCZOS_RTOL)


@pytest.mark.parametrize("case", VISIBILITY_CASES)
def test_visibility_operator_matches_the_pixel_matrix(case):
    # D = 84, 45 and 17 coordinates: the operator holds the factor C for 10
    # sketches and the Gram for 100
    rng = np.random.default_rng(3)
    for m in (10, 100):
        op = _visibility_case(case, m)
        vis, full = VisibilityOperator(op), op.as_matrix()
        assert (vis.factor is None) == (m == 100)
        v, z = rng.standard_normal(vis.n), rng.standard_normal(vis.m)
        for got, want in ((vis.forward(v), full @ v), (vis.adjoint(z), full.T @ z),
                          (vis.normal(v), full.T @ (full @ v))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert operator_norm(vis) == pytest.approx(
            operator_norm(MatrixOperator(full)), rel=LANCZOS_RTOL
        )


def test_visibility_operator_of_one_core_is_zero():
    # one core has no core pairs: no coordinates, and a zero norm bound
    grid = make_grid(2, 16, 1.0)
    op = CombinedOperator(fermat_spiral_layout(grid, 1), draw_sketches(1, 5, seed=0))
    vis = VisibilityOperator(op)
    assert vis.coords.n == 0
    assert operator_norm(vis) == 0.0
    assert np.all(vis.normal(np.ones(vis.n)) == 0)


def test_as_matrix_rejects_an_unknown_basis():
    with pytest.raises(ValueError):
        _combined().as_matrix(basis="fourier")


def test_combined_shape_validation():
    op = _combined()
    with pytest.raises(ValueError):
        op.forward(np.zeros(op.n + 1))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(op.m + 1))


# ---------------------------------------------------------------------------
# noise and the measured data
# ---------------------------------------------------------------------------


def test_centered_noise_variance_identity():
    # E |n_c|^2 = (1 - 1/M) E |n|^2, checked at the experiment size and at a
    # small M where the 1/M correction is actually visible
    rng_seed = 7
    noisy = np.random.default_rng(rng_seed).normal(0.0, 1.0, size=10**5)
    nc = noisy - noisy.mean()
    ratio = np.mean(nc**2) / np.mean(noisy**2)
    assert abs(ratio - (1 - 1e-5)) < 0.02

    m = 4
    acc_nc, acc_n = 0.0, 0.0
    for s in range(20000):
        noisy = np.random.default_rng(s).normal(0.0, 1.0, size=m)
        acc_nc += np.mean((noisy - noisy.mean()) ** 2)
        acc_n += np.mean(noisy**2)
    assert acc_nc / acc_n == pytest.approx(1 - 1 / m, abs=0.02)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-q6", "2d-spiral-q110"])
def test_measurement_record_roundtrip_invariants(dim):
    # the data is CombinedOperator.forward: the debiased projections of the
    # interferometric matrix, which sum to zero.  The 2-D case is the demo's
    # size, where the raw FFT matrix has to pass the projection's
    # Hermitian-residue check unsymmetrized
    if dim == 1:
        g = make_grid(1, 64, 1.0)
        lay = random_layout_1d(g, 6, seed=0)
        scene = sparse_scene(g, 3, seed=2)
    else:
        g = make_grid(2, 64, 1.0)
        lay = fermat_spiral_layout(g, 110)
        scene = SceneImage(grid=g, values=np.random.default_rng(2).uniform(0, 1, g.shape))
    sk = draw_sketches(lay.order, 12, seed=1)
    raw = SropOperator(sk).forward(interferometric_matrix(scene, lay))
    y = CombinedOperator(lay, sk).forward(scene.values)
    assert y.shape == raw.shape == (12,)
    assert abs(y.sum()) <= 1e-10 * max(np.abs(raw).max(), 1e-300)
    assert np.linalg.norm(y - (raw - raw.mean())) <= 1e-12 * max(np.linalg.norm(raw), 1e-300)
