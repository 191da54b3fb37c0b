import numpy as np
import pytest

from mcfli import SropOperator, nyquist_recover
from mcfli.solvers import nyquist_sketches

from fixtures import random_hermitian


def test_sketch_count_and_sparsity():
    for q in (2, 3, 5, 8):
        sk = nyquist_sketches(q)
        assert sk.shape == (q * (q - 1) + 1, q)
        # every pair vector is 2-sparse, and e_0 closes the set
        for vec in sk[:-1]:
            assert np.count_nonzero(vec) == 2
        assert np.array_equal(sk[-1], np.eye(q)[0])


def test_scaled_identity_recovered_exactly():
    for q in (2, 4, 6):
        truth = 3.25 * np.eye(q, dtype=complex)
        y = SropOperator(nyquist_sketches(q)).forward(truth)
        rec = nyquist_recover(y, q)
        assert np.allclose(rec, truth, atol=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_roundtrip_constant_diagonal(q):
    for trial in range(20):
        truth = random_hermitian(q, seed=100 * q + trial, constant_diagonal=None)
        # force a constant diagonal with a random level
        data = truth.copy()
        level = np.random.default_rng(trial).standard_normal()
        np.fill_diagonal(data, level)
        y = SropOperator(nyquist_sketches(q)).forward(data)
        rec = nyquist_recover(y, q)
        err = np.linalg.norm(rec - data) / max(np.linalg.norm(data), 1e-300)
        assert err <= 1e-10


def test_minimal_case_q2_needs_three_measurements():
    assert len(nyquist_sketches(2)) == 3
    truth = np.array([[1.5, 0.2 - 0.7j], [0.2 + 0.7j, 1.5]])
    y = SropOperator(nyquist_sketches(2)).forward(truth)
    assert y.shape == (3,)
    rec = nyquist_recover(y, 2)
    assert np.allclose(rec, truth, atol=1e-12)


def test_wrong_measurement_count_rejected():
    with pytest.raises(ValueError):
        nyquist_recover(np.zeros(5), 3)


def test_recover_after_forward_is_identity_property():
    # composition on constant-diagonal Hermitian matrices is the identity
    rng = np.random.default_rng(0)
    for q in (3, 6):
        for _ in range(5):
            a = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            h = 0.5 * (a + a.conj().T)
            np.fill_diagonal(h, rng.standard_normal())
            rec = nyquist_recover(SropOperator(nyquist_sketches(q)).forward(h), q)
            assert np.linalg.norm(rec - h) <= 1e-10 * np.linalg.norm(h)
