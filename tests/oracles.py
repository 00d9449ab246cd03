"""Reference implementations of the paper's claims, written the plain way.

The package never calls these; the tests hold its fast paths against them.
"""

import numpy as np

from fdprecode.channel import gram_polar


def precoder(a):
    """The rank-one precoder: (..., nt, nt) matrices whose every column is a[...]."""
    return np.repeat(a[..., None], a.shape[-1], axis=-1)


def phase_residuals(h, theta):
    """(B, nt) inner cosine sums sum_{m<n} rho[n, m] cos(theta_m - theta_n + alpha[n, m])
    of a (B, nr, nt) channel batch at (B, nt) angles, from the polar Gram pair;
    column 0 is trivially zero."""
    rho, alpha = gram_polar(h)
    out = np.zeros(theta.shape)
    for n in range(1, theta.shape[1]):
        cols = slice(n * (n - 1) // 2, n * (n + 1) // 2)
        out[:, n] = np.sum(rho[:, cols] * np.cos(theta[:, :n] - theta[:, n:n + 1] + alpha[:, cols]),
                           axis=1)
    return out


def ml_decode(y, transfer, codewords):
    """Per row b, the first k minimizing ||y_b - transfer_b x_k|| by np.linalg.norm."""
    cand = np.einsum("bon,kn->bko", transfer, codewords)
    return np.argmin(np.linalg.norm(y[:, None, :] - cand, axis=2), axis=1)
