import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprecode.channel import gram_polar, sample_channel, sample_noise
from fdprecode.errors import ConfigurationError
from fdprecode.simulator import DminSamples, ks_test_chisq
from fdprecode.streams import substream


def test_sample_channel_deterministic_for_seed():
    h1 = sample_channel(1, 1, substream(1234))
    h2 = sample_channel(1, 1, substream(1234))
    assert h1 == h2
    h3 = sample_channel(3, 2, substream(77))
    h4 = sample_channel(3, 2, substream(77))
    assert np.array_equal(h3, h4)
    assert h3.shape == (2, 3)


def test_sample_channel_invalid_dimensions():
    with pytest.raises(ConfigurationError):
        sample_channel(0, 1, substream(0))
    with pytest.raises(ConfigurationError):
        sample_channel(2, -1, substream(0))


def test_channel_second_moment_unit():
    h = sample_channel(1, 1, substream(2024, 0, 1))
    samples = np.abs(sample_channel(100000, 1, substream(2024, 0, 2))) ** 2
    mean = samples.mean()
    assert 0.99 <= mean <= 1.01
    assert abs(h) < 10  # sanity on a single draw


def test_channel_mean_near_zero():
    h = sample_channel(100000, 1, substream(55))
    assert abs(h.mean()) < 0.01


def test_channel_magnitude_chisquare():
    # 2|h|^2 for CN(0,1) entries is chi-square with 2 degrees of freedom
    h = sample_channel(100000, 1, substream(31))
    z = 2.0 * np.abs(h.ravel()) ** 2
    stat, p = ks_test_chisq(DminSamples(samples=z, nt=1, nr=1), 2)
    assert p >= 0.01, (stat, p)


def test_gram_orthogonal_columns():
    rho, alpha = gram_polar(np.eye(2, dtype=complex)[None])
    assert rho[0, 0] == 0.0
    assert alpha[0, 0] == 0.0


def test_gram_hand_values():
    rho, alpha = gram_polar(np.array([[1.0, 1.0]], dtype=complex)[None])
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert alpha[0, 0] == pytest.approx(0.0, abs=1e-15)

    rho, alpha = gram_polar(np.array([[1.0, 1.0j]])[None])
    # g_21 = conj(j) * 1 = -j
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert alpha[0, 0] == pytest.approx(-np.pi / 2, abs=1e-15)


def test_gram_negative_real_phase_is_principal():
    _, alpha = gram_polar(np.array([[1.0, -1.0]], dtype=complex)[None])
    assert alpha[0, 0] == pytest.approx(np.pi)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(1, 4))
def test_polar_reconstruction(seed, nt, nr):
    h = sample_channel(nt, nr, substream(seed))
    rho, alpha = gram_polar(h[None])
    assert rho.shape == alpha.shape == (1, nt * (nt - 1) // 2)
    for k, (n, m) in enumerate(zip(*np.tril_indices(nt, -1))):
        g = np.sum(np.conj(h[:, n]) * h[:, m])
        rec = rho[0, k] * np.exp(1j * alpha[0, k])
        assert abs(rec - g) < 1e-12 * (1.0 + rho[0, k])
        assert rho[0, k] >= 0.0
        assert -np.pi < alpha[0, k] <= np.pi


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_gram_hermitian_symmetry(seed):
    h = sample_channel(4, 2, substream(seed))
    rho, alpha = gram_polar(h[None])
    g = rho[0] * np.exp(1j * alpha[0])
    pairs = list(zip(*np.tril_indices(4, -1)))
    for n in range(4):
        for m in range(4):
            gnm = np.sum(np.conj(h[:, n]) * h[:, m])
            gmn = np.sum(np.conj(h[:, m]) * h[:, n])
            assert gnm == pytest.approx(np.conj(gmn), abs=1e-13)
            if n > m:
                assert g[pairs.index((n, m))] == pytest.approx(gnm, abs=1e-12)
            elif n < m:
                assert np.conj(g[pairs.index((m, n))]) == pytest.approx(gnm, abs=1e-12)


def test_sample_noise_moments():
    n = sample_noise(100000, 4.0, substream(7))
    mean_power = np.mean(np.abs(n) ** 2)
    assert 3.95 <= mean_power <= 4.05
    # each quadrature carries half the variance
    assert np.var(n.real) == pytest.approx(2.0, rel=0.03)
    assert np.var(n.imag) == pytest.approx(2.0, rel=0.03)


def test_sample_noise_reproducible():
    assert np.array_equal(sample_noise(8, 0.5, substream(3)), sample_noise(8, 0.5, substream(3)))


def test_sample_noise_rejects_bad_variance():
    with pytest.raises(ConfigurationError):
        sample_noise(2, 0.0, substream(0))
    with pytest.raises(ConfigurationError):
        sample_noise(2, -1.0, substream(0))
