import numpy as np
import pytest

from mcfli import HermitianMatrix, random_hermitian


def test_stored_matrix_exactly_hermitian():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = HermitianMatrix(a + a.conj().T)
    assert np.array_equal(h.data, h.data.conj().T)


def test_non_hermitian_rejected():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    with pytest.raises(ValueError):
        HermitianMatrix(a)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((3, 4)))


def test_structured_constructors():
    h = random_hermitian(6, seed=4, hollow=True)
    assert np.all(np.diag(h.data) == 0)
    h = random_hermitian(6, seed=5, constant_diagonal=2.5)
    assert np.allclose(np.diag(h.data), 2.5)
    h = random_hermitian(6, seed=6, psd=True)
    w = np.linalg.eigvalsh(h.data)
    assert w.min() >= -1e-10 * w.max()


def test_numerical_rank():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    h = HermitianMatrix(np.outer(v, v.conj()))
    assert h.numerical_rank() == 1
    assert HermitianMatrix(np.zeros((4, 4))).numerical_rank() == 0
