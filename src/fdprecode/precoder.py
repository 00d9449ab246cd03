"""Feedback angles and the rank-one unit-modulus precoder built from them.

The precoder matrix F has every column equal to the vector a with entries
a_i = exp(1j * theta_i), |a_i| = 1, so F x = a * sum(x). The receiver picks
the nt - 1 angles theta_2..theta_nt (theta_1 = 0 by convention) so that for
each n the weighted cosine sum over earlier antennas

    sum_{m<n} rho[n, m] * cos(theta_m - theta_n + alpha[n, m])

vanishes, which removes every cross term from ||H F dx||^2 and yields the
distance identity ||H F dx||^2 = ||H||_F^2 * |sum(dx)|^2.

That sum is Re(e^{-j theta_n} z_n) with z_n = sum_{m<n} G[n, m] e^{j theta_m}
= h_n^H (sum_{m<n} a_m h_m), column n's conjugate times the partial
effective channel built so far. `feedback_angles_batch` walks the antennas
once with that running sum and sets a_n = -j z_n / |z_n| without any
trigonometry; the finished sum is h_eff = H a. F itself is never formed.
"""

import numpy as np

from .errors import ConfigurationError

# below this magnitude the zero-crossing constraint for an antenna is vacuous
_DEGENERATE_EPS = 1e-300


def feedback_angles_batch(h: np.ndarray, alloc=np.empty) -> tuple[np.ndarray, np.ndarray]:
    """Feedback phasors and effective channels of a (B, nr, nt) channel batch.

    Returns (a, h_eff): a (B, nt) holds a = exp(1j * theta) with a[:, 0] == 1
    exactly, and h_eff (B, nr) is H a. For n >= 1, z = h_n^H s with
    s = sum_{m<n} a_m h_m, and a_n = -1j * z / |z| zeroes Re(conj(a_n) z),
    the root theta_n = atan2(-Re z, Im z) (theta_2 = alpha[2,1] - pi/2 for
    n = 1); a_n is exactly 1 where |z| is below `_DEGENERATE_EPS`. With
    nt = 1 no angle is fed back: a == 1 and h_eff == h[:, :, 0].

    The antennas are read as (nt, B, nr) column blocks, without a copy when
    h is a view of such an array (as `channel.rayleigh` returns). Every
    array made here, the results included, comes from alloc(shape, dtype).
    """
    if h.ndim != 3:
        raise ConfigurationError(f"channel batch must be 3-D, got shape {h.shape}")
    b, nr, nt = h.shape
    cols = np.moveaxis(h, 2, 0)
    if not (cols.flags.c_contiguous and cols.dtype == complex):
        cols = alloc((nt, b, nr), complex)
        cols[...] = np.moveaxis(h, 2, 0)
    a = alloc((nt, b), complex)
    a.fill(1.0)
    s = alloc((b, nr), complex)
    s[...] = cols[0]
    z, mag, ok = alloc((b,), complex), alloc((b,)), alloc((b,), bool)
    tmp = alloc((b, nr), complex)
    for n in range(1, nt):
        np.einsum("bo,bo->b", np.conjugate(cols[n], out=tmp), s, out=z)
        np.abs(z, out=mag)
        np.divide(np.multiply(-1j, z, out=z), mag, out=a[n],
                  where=np.greater_equal(mag, _DEGENERATE_EPS, out=ok))
        s += np.multiply(a[n][:, None], cols[n], out=tmp)
    return a.T, s
