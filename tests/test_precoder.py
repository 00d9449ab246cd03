import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprecode.channel import gram_polar
from fdprecode.errors import ConfigurationError
from fdprecode.precoder import feedback_angles_batch, per_antenna_phase_residuals, precoder_matrix

from draws import channels

CONFIGS = [(3, 1), (3, 2), (4, 1), (8, 1)]


def frob2(h):
    return float(np.sum(np.abs(h) ** 2))


def test_angles_hand_case_real():
    a, _ = feedback_angles_batch(np.array([[[1.0, 1.0]]]))
    theta = np.angle(a[0])
    assert theta[0] == 0.0
    assert theta[1] == pytest.approx(-np.pi / 2, abs=1e-15)


def test_angles_hand_case_quadrature():
    h = np.array([[1.0, 1.0j]])
    a, _ = feedback_angles_batch(h[None])
    theta = np.angle(a[0])
    # alpha_21 = -pi/2, so theta_2 = -pi (mod 2 pi); the zero-crossing holds exactly
    assert a[0, 1] == pytest.approx(-1.0, abs=1e-15)
    _, alpha = gram_polar(h[None])
    assert np.cos(theta[0] - theta[1] + alpha[0, 0]) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("nt, nr", [(3, 2), (8, 1), (4, 4)])
def test_single_channel_angles_equal_batch_rows(nt, nr):
    h = channels(17, nt << 16 | nr, 256, nr, nt)
    a, h_eff = feedback_angles_batch(h)
    for b in range(h.shape[0]):
        row_a, row_h_eff = feedback_angles_batch(h[b:b + 1])
        assert np.array_equal(row_a[0], a[b])
        assert np.array_equal(row_h_eff[0], h_eff[b])


KERNEL_CONFIGS = [(2, 1), (3, 2), (4, 4), (8, 1), (8, 2), (16, 1)]


@pytest.mark.parametrize("nt, nr", KERNEL_CONFIGS)
def test_kernel_unit_phasors_first_exactly_one(nt, nr):
    a, _ = feedback_angles_batch(channels(31, nt << 16 | nr, 4096, nr, nt))
    assert a.shape == (4096, nt)
    assert np.all(a[:, 0] == 1.0)
    assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-15


@pytest.mark.parametrize("nt, nr", KERNEL_CONFIGS)
def test_kernel_h_eff_is_h_times_a(nt, nr):
    h = channels(37, nt << 16 | nr, 4096, nr, nt)
    a, h_eff = feedback_angles_batch(h)
    assert h_eff.shape == (4096, nr)
    fro = np.sqrt(np.sum(np.abs(h) ** 2, axis=(1, 2)))
    for b in range(h.shape[0]):
        assert np.max(np.abs(h_eff[b] - h[b] @ a[b])) <= 1e-12 * fro[b]


def test_kernel_degenerate_columns_give_unit_phasor():
    # orthogonal columns, a zero column, and an all-zero channel: z = 0 exactly
    h = np.zeros((3, 2, 3), dtype=complex)
    h[0] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    h[1] = [[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    a, h_eff = feedback_angles_batch(h)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(h_eff))
    assert a[0, 1] == 1.0 and a[0, 2] == 1.0
    assert a[1, 1] == 1.0
    assert np.all(a[2] == 1.0) and np.all(h_eff[2] == 0.0)
    # antenna 3 of channel 1 still cancels against the partial sum (1, 1)
    assert a[1, 2] == -1.0j


def test_kernel_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        feedback_angles_batch(np.ones((2, 3), dtype=complex))
    with pytest.raises(ConfigurationError):
        feedback_angles_batch(np.ones((2, 3, 1), dtype=complex))


def test_angles_require_two_antennas():
    with pytest.raises(ConfigurationError):
        feedback_angles_batch(np.array([[[1.0]]]))


def test_first_angle_zero_and_payload_size():
    for nt, nr in CONFIGS:
        a, _ = feedback_angles_batch(channels(5, nt << 16 | nr, 1, nr, nt))
        assert a.shape == (1, nt)
        assert np.angle(a[0, 0]) == 0.0  # the feedback payload is theta[1:], nt - 1 reals


def test_phase_condition_residual_random():
    # the total cross-term cosine sum vanishes: the precoder cancels every cross term
    h = channels(11, 0, 1, 2, 3)
    a, _ = feedback_angles_batch(h)
    assert abs(np.sum(per_antenna_phase_residuals(h[0], np.angle(a[0])))) < 1e-12 * frob2(h)


def test_per_antenna_residuals_random():
    for nt, nr in CONFIGS:
        for seed in range(10):
            h = channels(seed, nt << 16 | nr, 1, nr, nt)
            a, _ = feedback_angles_batch(h)
            res = per_antenna_phase_residuals(h[0], np.angle(a[0]))
            assert np.max(np.abs(res)) < 1e-9 * frob2(h)


def test_residual_hand_cases():
    # all-zero angles leave the single cross term at cos(0) = 1
    h = np.array([[1.0, 1.0]])
    assert per_antenna_phase_residuals(h, np.zeros(2)) == pytest.approx([0.0, 1.0], abs=1e-15)
    # orthogonal columns: every rho vanishes, any angles give zero
    h = np.eye(2, dtype=complex)
    assert np.all(per_antenna_phase_residuals(h, np.array([0.3, -1.2])) == 0.0)


def test_precoder_matrix_rank_one_action():
    rng = np.random.default_rng([21, 0, 0])
    theta = rng.uniform(-np.pi, np.pi, size=5)
    a = np.exp(1j * theta)
    f = precoder_matrix(a)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.allclose(f @ x, a * np.sum(x), rtol=0, atol=1e-12)


def test_all_zero_angles_give_all_ones_action():
    f = precoder_matrix(np.exp(1j * np.zeros(4)))
    x = np.arange(1.0, 5.0) + 0j
    assert np.array_equal(f @ x, np.full(4, x.sum()))


def test_effective_channel_hand_case():
    a, he = feedback_angles_batch(np.array([[[1.0, 1.0]]]))
    assert np.array_equal(a[0], [1.0, -1.0j])
    assert he[0, 0] == pytest.approx(1.0 - 1.0j, abs=1e-15)
    assert abs(he[0, 0]) ** 2 == pytest.approx(2.0, abs=1e-14)


def test_norm_identity_all_configs():
    for nt, nr in CONFIGS:
        h = np.concatenate([channels(seed, (10 * nt + nr) << 16, 1, nr, nt) for seed in range(250)])
        _, he = feedback_angles_batch(h)
        f2 = np.sum(np.abs(h) ** 2, axis=(1, 2))
        assert np.all(np.abs(np.sum(np.abs(he) ** 2, axis=1) - f2) < 1e-9 * f2)


def test_distance_identity_against_bruteforce():
    # oracle: full ||H F dx||^2 with F materialized, vs ||H||_F^2 |sum dx|^2
    rng = np.random.default_rng([123, 0, 0])
    for nt, nr in CONFIGS:
        hs = channels(123, 0, 250, nr, nt)
        for h, a in zip(hs, feedback_angles_batch(hs)[0]):
            f = precoder_matrix(a)
            dx = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
            lhs = float(np.sum(np.abs(h @ (f @ dx)) ** 2))
            rhs = frob2(h) * abs(np.sum(dx)) ** 2
            assert abs(lhs - rhs) < 1e-9 * rhs


def test_identity_fails_without_feedback():
    # witnesses that the feedback is necessary: theta = 0 breaks the identity
    violations = 0
    for seed in range(50):
        h = channels(seed, 999 << 16, 1, 1, 3)[0]
        he = h @ np.ones(3)
        f2 = frob2(h)
        if abs(np.sum(np.abs(he) ** 2) - f2) > 1e-3 * f2:
            violations += 1
    assert violations > 40


def test_branch_insensitivity():
    # either atan2 root zeroes that antenna's inner sum
    for seed in range(20):
        h = channels(seed, 12345 << 16, 1, 2, 5)
        a, _ = feedback_angles_batch(h)
        theta = np.angle(a[0])
        f2 = frob2(h)
        for n in range(1, 5):
            flipped = theta.copy()
            flipped[n] += np.pi
            assert abs(per_antenna_phase_residuals(h[0], flipped)[n]) < 1e-9 * f2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-10, 10, allow_nan=False))
def test_global_phase_invariance(seed, shift):
    h = channels(seed, 0, 1, 2, 4)
    a, _ = feedback_angles_batch(h)
    theta = np.angle(a[0])
    p1 = np.sum(np.abs(h[0] @ np.exp(1j * theta)) ** 2)
    p2 = np.sum(np.abs(h[0] @ np.exp(1j * (theta + shift))) ** 2)
    assert p2 == pytest.approx(p1, rel=1e-12)
