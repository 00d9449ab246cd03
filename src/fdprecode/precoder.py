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
once with that running sum, straight from the standard normals the channels
are drawn from: it builds one antenna's column at a time, sets
a_n = -j z_n / |z_n| without any trigonometry and folds a_n h_n into the
sum. The decoder needs only the finished sum h_eff = H a, so neither the
channel batch H, nor the phasors a, nor F is ever formed.
"""

import numpy as np

from .channel import antenna_gains, gain_parts

# below this magnitude the zero-crossing constraint for an antenna is vacuous
_DEGENERATE_EPS = 1e-300


def feedback_angles_batch(normals: np.ndarray, nr: int, nt: int, alloc=np.empty) -> np.ndarray:
    """Effective channels h_eff = H a, (B, nr), of the channels drawn from (B, 2 * nr * nt) normals.

    H is the batch `channel.rayleigh(normals, nr, nt)` returns, but only one
    antenna's (B, nr) column h_n of it is held at a time, built by the same
    `channel.antenna_gains` call. With s = sum_{m<n} a_m h_m and a_0 = 1,
    z = h_n^H s and a_n = -1j * z / |z| zeroes Re(conj(a_n) z), the root
    theta_n = atan2(-Re z, Im z) (theta_2 = alpha[2,1] - pi/2 for n = 1);
    a_n is exactly 1 where |z| is below `_DEGENERATE_EPS`. Only the (B,)
    phasor of the current antenna is kept. With nt = 1 no angle is fed
    back and h_eff is the one column. Every array made here, the result
    included, comes from alloc(shape, dtype).
    """
    re, im = gain_parts(normals, nr, nt)
    b = normals.shape[0]
    s = antenna_gains(re, im, 0, alloc((b, nr), complex))
    h, tmp = alloc((b, nr), complex), alloc((b, nr), complex)
    a, z, mag, ok = alloc((b,), complex), alloc((b,), complex), alloc((b,)), alloc((b,), bool)
    for n in range(1, nt):
        antenna_gains(re, im, n, h)
        np.einsum("bo,bo->b", np.conjugate(h, out=tmp), s, out=z)
        np.abs(z, out=mag)
        a.fill(1.0)
        np.divide(np.multiply(-1j, z, out=z), mag, out=a,
                  where=np.greater_equal(mag, _DEGENERATE_EPS, out=ok))
        s += np.multiply(a[:, None], h, out=tmp)
    return s
