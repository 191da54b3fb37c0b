import numpy as np

from fixtures import random_hermitian


def test_stored_matrix_exactly_hermitian():
    h = random_hermitian(6, seed=2)
    assert h.dtype == np.complex128 and h.shape == (6, 6)
    assert np.array_equal(h, h.conj().T)


def test_structured_constructors():
    h = random_hermitian(6, seed=4, hollow=True)
    assert np.all(np.diag(h) == 0)
    h = random_hermitian(6, seed=5, constant_diagonal=2.5)
    assert np.allclose(np.diag(h), 2.5)
