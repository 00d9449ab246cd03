"""Rayleigh MIMO channels, and the polar cross-correlation pair of a batch.

A channel matrix is a complex ndarray of shape (nr, nt): row = receive
antenna, column = transmit antenna, entries i.i.d. CN(0, 1) with total unit
variance split equally between real and imaginary parts, so that the
expected squared Frobenius norm is nt * nr.
"""

import numpy as np

from .errors import ConfigurationError


def rayleigh(normals: np.ndarray, nr: int, nt: int) -> np.ndarray:
    """(B, nr, nt) channels of i.i.d. CN(0, 1) gains from (B, 2 * nr * nt) standard normals.

    In each row the first nr * nt normals are the real parts and the rest the
    imaginary parts, both in row-major (receive, transmit) order.
    """
    if nt < 1 or nr < 1:
        raise ConfigurationError(f"antenna counts must be >= 1, got nt={nt}, nr={nr}")
    k = nr * nt
    if normals.ndim != 2 or normals.shape[1] != 2 * k:
        raise ConfigurationError(f"need (B, {2 * k}) normals for {nr}x{nt} channels, "
                                 f"got shape {normals.shape}")
    # numpy divides a complex by a real as a product with the reciprocal: z / sqrt(2), bit for bit
    return scaled_complex(normals[:, :k], normals[:, k:], 1.0 / np.sqrt(2.0)).reshape(-1, nr, nt)


def scaled_complex(re: np.ndarray, im: np.ndarray, scale: float) -> np.ndarray:
    """(re + 1j * im) * scale, bit for bit but for signed zeros, in one new array."""
    z = np.empty(re.shape, dtype=complex)
    np.multiply(re, scale, out=z.real)
    np.multiply(im, scale, out=z.imag)
    return z


def gram_polar(h_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar cross-correlations of a (B, nr, nt) channel batch, packed.

    Returns (rho, alpha), each of shape (B, nt * (nt - 1) // 2), holding the
    pairs n > m (0-based) in ``np.tril_indices(nt, -1)`` order, so antenna
    n's terms are the columns n (n - 1) / 2 .. n (n + 1) / 2 - 1. There
    ``rho * exp(1j * alpha)`` equals sum_o conj(H[o, n]) * H[o, m]; rho is
    nonnegative, alpha is the principal value in (-pi, pi], and alpha is
    fixed to 0 wherever rho vanishes. Only these pairs are computed. No
    simulation path calls this: it stays in the package only because
    perfbench/tracing.py wraps ``simulator.gram_polar``.
    """
    if h_batch.ndim != 3:
        raise ConfigurationError(f"channel batch must be 3-D, got shape {h_batch.shape}")
    b, _, nt = h_batch.shape
    rho = np.empty((b, nt * (nt - 1) // 2))
    alpha = np.empty_like(rho)
    for n in range(1, nt):
        cols = slice(n * (n - 1) // 2, n * (n + 1) // 2)
        g = np.einsum("bo,bom->bm", h_batch[:, :, n].conj(), h_batch[:, :, :n])
        rho[:, cols] = np.abs(g)
        # adding +0j normalizes -0.0 imaginary parts so negative reals map to +pi
        alpha[:, cols] = np.where(rho[:, cols] == 0.0, 0.0, np.angle(g + 0j))
    return rho, alpha
