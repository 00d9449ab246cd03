import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprecode.channel import gram_polar, rayleigh, scaled_complex
from fdprecode.errors import ConfigurationError
from fdprecode.simulator import ks_test_chisq
from fdprecode.streams import normal_from_uniform

from draws import channels
from oracles import uniforms


def test_sample_channel_deterministic_for_seed():
    h1 = channels(1234, 0, 1, 1, 1)
    h2 = channels(1234, 0, 1, 1, 1)
    assert np.array_equal(h1, h2)
    h3 = channels(77, 0, 5, 2, 3)
    h4 = channels(77, 0, 5, 2, 3)
    assert np.array_equal(h3, h4)
    assert h3.shape == (5, 2, 3)


def test_sample_channel_invalid_dimensions():
    with pytest.raises(ConfigurationError):
        rayleigh(np.zeros((1, 0)), 1, 0)
    with pytest.raises(ConfigurationError):
        rayleigh(np.zeros((1, 4)), -1, 2)
    with pytest.raises(ConfigurationError):
        rayleigh(np.zeros((1, 5)), 1, 2)


def _normals(rows, cols):
    """Normals as the simulator draws them, from random words (strided views below)."""
    raw = np.random.default_rng([71, rows, cols]).integers(0, 1 << 64, size=(rows, cols),
                                                           dtype=np.uint64)
    return normal_from_uniform(uniforms(raw))


@pytest.mark.parametrize("nr, nt", [(1, 8), (2, 3), (3, 2), (1, 1)])
def test_rayleigh_is_bitwise_the_former_expression(nr, nt):
    k = nr * nt
    wide = _normals(100_000, 4 * k + 1)
    for normals in (wide[:, :2 * k], wide[:, 1::2], wide[::2, 1:2 * k + 1]):
        former = (normals[:, :k] + 1j * normals[:, k:]).reshape(-1, nr, nt) / np.sqrt(2.0)
        handed = []

        def alloc(shape, dtype):
            handed.append(np.full(shape, np.nan, dtype))
            return handed[-1]

        for h in (rayleigh(normals, nr, nt), rayleigh(normals, nr, nt, alloc)):
            # a view of (nt, B, nr) column blocks, the precoder's layout
            assert np.moveaxis(h, 2, 0).flags.c_contiguous
            assert np.array_equal(np.ascontiguousarray(h).view(np.uint64), former.view(np.uint64))
        assert [(a.shape, a.dtype) for a in handed] == [((nt, normals.shape[0], nr), complex)]
        assert np.shares_memory(h, handed[0])


@pytest.mark.parametrize("sigma2", [2.0, 0.37, 1e-5])
@pytest.mark.parametrize("nr", [1, 2, 3])
def test_noise_is_bitwise_the_former_expression(nr, sigma2):
    # the simulator's receiver noise: real parts, then imaginary parts, times sqrt(sigma2 / 2)
    wide = _normals(100_000, 4 * nr + 1)
    for gn in (wide[:, -2 * nr:], wide[:, 1::2], wide[::3, :2 * nr]):
        former = (gn[:, :nr] + 1j * gn[:, nr:]) * np.sqrt(sigma2 / 2.0)
        out = np.full((gn.shape[0], nr), np.nan, dtype=complex)
        got = scaled_complex(gn[:, :nr], gn[:, nr:], np.sqrt(sigma2 / 2.0), out)
        assert got is out
        assert np.array_equal(got.view(np.uint64), former.view(np.uint64))


# the channel-law tests draw 100000 CN(0, 1) gains as 100000 1x1 trials
def test_channel_second_moment_unit():
    h = channels(2024, 1 << 16, 1, 1, 1)
    samples = np.abs(channels(2024, 2 << 16, 100000, 1, 1)) ** 2
    mean = samples.mean()
    assert 0.99 <= mean <= 1.01
    assert abs(h) < 10  # sanity on a single draw


def test_channel_mean_near_zero():
    h = channels(55, 0, 100000, 1, 1)
    assert abs(h.mean()) < 0.01


def test_channel_magnitude_chisquare():
    # 2|h|^2 for CN(0,1) entries is chi-square with 2 degrees of freedom
    h = channels(31, 0, 100000, 1, 1)
    z = 2.0 * np.abs(h.ravel()) ** 2
    stat, p = ks_test_chisq(z, 2)
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
    h = channels(seed, 0, 1, nr, nt)[0]
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
    h = channels(seed, 0, 1, 2, 4)[0]
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
