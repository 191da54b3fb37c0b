import numpy as np
import pytest

from mcfli import make_grid


def test_2d_grid_constants():
    g = make_grid(2, 256, 1.0)
    assert g.n_points == 65536
    assert g.fourier_scale == pytest.approx(1.0 / 256.0, rel=1e-14)


def test_1d_grid_matches_experiment_size():
    g = make_grid(1, 256, 1.0)
    assert g.n_points == 256
    assert g.fourier_scale == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert g.pixel_pitch == pytest.approx(1.0 / 256.0)


def test_odd_n1_rejected():
    with pytest.raises(ValueError):
        make_grid(1, 3, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_fov_rejected(bad):
    with pytest.raises(ValueError):
        make_grid(1, 256, bad)


def test_bad_dim_rejected():
    with pytest.raises(ValueError):
        make_grid(3, 8, 1.0)


@pytest.mark.parametrize("dim,n1", [(1, 64), (2, 16)])
def test_fft_unitary_roundtrip(dim, n1):
    g = make_grid(dim, n1, 2.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.shape)
    spec = g.fft(f)
    assert np.linalg.norm(spec) == pytest.approx(np.linalg.norm(f), rel=1e-12)
    back = g.ifft(spec)
    assert np.allclose(back.real, f, atol=1e-12)


@pytest.mark.parametrize("dim,n1", [(1, 256), (2, 64)])
def test_ifft_of_a_stack_is_bit_identical_to_per_slice_calls(dim, n1):
    g = make_grid(dim, n1, 1.0)
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((2, 3) + g.shape) + 1j * rng.standard_normal((2, 3) + g.shape)
    out = g.ifft(stack)
    assert out.shape == stack.shape
    for idx in np.ndindex(2, 3):
        single = np.fft.fftshift(np.fft.ifftn(stack[idx])) * np.sqrt(g.n_points)
        assert g.ifft(stack[idx]).tobytes() == single.tobytes()
        assert out[idx].tobytes() == single.tobytes()


def test_fft_adjoint_identity():
    g = make_grid(1, 64, 1.0)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(64)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lhs = np.vdot(u, g.fft(f))
    rhs = np.vdot(g.ifft(u), f.astype(complex))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fft_frequency_convention():
    # a pure on-grid wave exp(2i pi k x / fov) lands in bin k
    g = make_grid(1, 32, 1.0)
    x = g.axis_coords()
    for k in (0, 3, -5):
        f = np.exp(2j * np.pi * k * x)
        spec = g.fft(f)
        expect = np.zeros(32, complex)
        expect[k % 32] = np.sqrt(32)
        assert np.allclose(spec, expect, atol=1e-12)


def test_bin_index_2d_matches_ravel():
    g = make_grid(2, 8, 1.0)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.shape)
    spec = g.fft(f).ravel()
    x = g.axis_coords()
    for kx, ky in [(0, 0), (3, -2), (-4, 1)]:
        wave = np.exp(2j * np.pi * (kx * x[:, None] + ky * x[None, :]))
        direct = np.sum(f * np.conj(wave)) / np.sqrt(g.n_points)
        idx = g.bin_index(np.array([kx, ky]))
        assert spec[idx] == pytest.approx(direct, rel=1e-10, abs=1e-12)
