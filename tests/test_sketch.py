import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfli import draw_sketches

EPS = np.finfo(float).eps


def test_unit_modulus_paper_size():
    sketches = draw_sketches(110, 1, seed=0)
    assert np.all(np.abs(np.abs(sketches) - 1.0) <= EPS)


def test_entrywise_mean_vanishes():
    sketches = draw_sketches(8, 10**5, seed=1)
    mean = sketches.mean(axis=0)
    assert np.abs(mean).max() < 0.02


def test_seeded_determinism():
    a = draw_sketches(16, 32, seed=9)
    b = draw_sketches(16, 32, seed=9)
    assert a.tobytes() == b.tobytes()


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        draw_sketches(0, 4, seed=0)
    with pytest.raises(ValueError):
        draw_sketches(4, 0, seed=0)


def test_second_moment_is_unit_and_square_mean_vanishes():
    # the moments the debiasing trick relies on: E|a|^2 = E|a|^4 = 1, E a^2 = 0
    a = draw_sketches(4, 2 * 10**4, seed=3).ravel()
    assert np.abs(a**2).mean() == pytest.approx(1.0, abs=1e-12)
    assert np.abs((a**2).mean()) < 0.02


@settings(max_examples=25, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_unit_modulus_property(q, m, seed):
    sketches = draw_sketches(q, m, seed=seed)
    assert sketches.shape == (m, q)
    assert np.all(np.abs(np.abs(sketches) - 1.0) <= EPS)


def test_sketch_stream_is_pinned_and_read_only():
    # the bits of the phase stream every seeded sweep and demo rests on: a
    # small set, one sketch, and seed sequences at a sweep cell's size and at
    # the 2-D point's
    cases = [(5, 7, 3), (1, 1, 0), (26, 98, np.random.SeedSequence((20260809, 4, 26, 98, 0))),
             (110, 3000, np.random.SeedSequence((100, 110, 3000)))]
    for q, m, seed in cases:
        sketches = draw_sketches(q, m, seed=seed)
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (m, q))
        assert sketches.dtype == np.complex128
        assert sketches.tobytes() == np.exp(1j * phases).tobytes()
        assert not sketches.flags.writeable
        with pytest.raises(ValueError):
            sketches[0, 0] = 1.0
