"""Feedback angles and the rank-one unit-modulus precoder built from them.

The precoder matrix F has every column equal to the vector a with entries
a_i = exp(1j * theta_i), |a_i| = 1, so F x = a * sum(x). The receiver picks
the nt - 1 angles theta_2..theta_nt (theta_1 = 0 by convention) so that for
each n the weighted cosine sum over earlier antennas

    sum_{m<n} rho[n, m] * cos(theta_m - theta_n + alpha[n, m])

vanishes, which removes every cross term from ||H F dx||^2 and yields the
distance identity ||H F dx||^2 = ||H||_F^2 * |sum(dx)|^2.
"""

import math

import numpy as np

from .channel import gram_polar, pair_columns
from .errors import ConfigurationError

# below this magnitude the zero-crossing constraint for an antenna is vacuous
_DEGENERATE_EPS = 1e-300


def feedback_angles_batch(rho: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The nt angles (theta_1 = 0 exactly) for each row of packed cross terms.

    rho and alpha are `gram_polar`'s (B, nt * (nt - 1) // 2) arrays.
    theta_2 = alpha[2,1] - pi/2 solves the first zero-crossing directly; each
    later theta_n = atan2(-A_n, B_n) zeroes A_n cos(theta_n) + B_n sin(theta_n)
    on a fixed branch (either atan2 branch is a valid root).
    """
    b, pairs = rho.shape
    nt = (1 + math.isqrt(1 + 8 * pairs)) // 2
    if nt < 2 or nt * (nt - 1) // 2 != pairs:
        raise ConfigurationError(
            f"feedback angles need nt * (nt - 1) / 2 cross terms with nt >= 2, got {pairs}")
    theta = np.zeros((b, nt))
    theta[:, 1] = alpha[:, 0] - np.pi / 2.0
    for n in range(2, nt):
        cols = pair_columns(n)
        phase = theta[:, :n] + alpha[:, cols]
        a_n = np.sum(rho[:, cols] * np.cos(phase), axis=1)
        b_n = np.sum(rho[:, cols] * np.sin(phase), axis=1)
        degenerate = (np.abs(a_n) < _DEGENERATE_EPS) & (np.abs(b_n) < _DEGENERATE_EPS)
        theta[:, n] = np.where(degenerate, 0.0, np.arctan2(-a_n, b_n))
    return theta


def precoder_matrix(a: np.ndarray) -> np.ndarray:
    """Materialize the rank-one (nt, nt) matrix whose every column is a."""
    a = np.asarray(a, dtype=complex)
    return np.repeat(a[:, None], a.shape[0], axis=1)


def per_antenna_phase_residuals(h: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Inner cosine sum for each antenna n; entry 0 is trivially zero.

    Angles produced by the recursion drive every entry to ~0 individually,
    a stronger statement than the total phase condition.
    """
    h = np.asarray(h, dtype=complex)
    rho, alpha = gram_polar(h[None])
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(h.shape[1])
    for n in range(1, h.shape[1]):
        cols = pair_columns(n)
        out[n] = np.sum(rho[0, cols] * np.cos(theta[:n] - theta[n] + alpha[0, cols]))
    return out


def phase_condition_residual(h: np.ndarray, theta: np.ndarray) -> float:
    """Total cross-term cosine sum; ~0 iff the precoder cancels all cross terms."""
    return float(np.sum(per_antenna_phase_residuals(h, theta)))


def effective_channel(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Scalar-input channel h_eff = H a seen by the effective symbol sum(x).

    For a built from feedback angles of the same H, ||h_eff||^2 equals
    ||H||_F^2, which is exactly the full-diversity distance identity.
    """
    return np.asarray(h, dtype=complex) @ np.asarray(a, dtype=complex)


def angles_for_channel(h: np.ndarray) -> np.ndarray:
    """Convenience: feedback angles straight from a channel matrix."""
    return feedback_angles_batch(*gram_polar(np.asarray(h, dtype=complex)[None]))[0]

