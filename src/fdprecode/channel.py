"""Rayleigh MIMO channels, and the polar cross-correlation pair of a batch.

A channel matrix is a complex ndarray of shape (nr, nt): row = receive
antenna, column = transmit antenna, entries i.i.d. CN(0, 1) with total unit
variance split equally between real and imaginary parts, so that the
expected squared Frobenius norm is nt * nr. `rayleigh` sizes its channel
batch itself and takes it from the caller's `alloc(shape, dtype)`.
"""

import numpy as np

from .errors import ConfigurationError


def rayleigh(normals: np.ndarray, nr: int, nt: int, alloc=np.empty) -> np.ndarray:
    """(B, nr, nt) channels of i.i.d. CN(0, 1) gains from (B, 2 * nr * nt) standard normals.

    In each row the first nr * nt normals are the real parts and the rest the
    imaginary parts, both in row-major (receive, transmit) order. The result
    is a view of `alloc((nt, B, nr), complex)`, so that each transmit
    antenna's column block is contiguous, as the precoder reads it.
    """
    if nt < 1 or nr < 1:
        raise ConfigurationError(f"antenna counts must be >= 1, got nt={nt}, nr={nr}")
    k = nr * nt
    if normals.ndim != 2 or normals.shape[1] != 2 * k:
        raise ConfigurationError(f"need (B, {2 * k}) normals for {nr}x{nt} channels, "
                                 f"got shape {normals.shape}")
    b = normals.shape[0]
    out = alloc((nt, b, nr), complex)
    re, im = (p.reshape(b, nr, nt) for p in (normals[:, :k], normals[:, k:]))
    for n in range(nt):  # one (B, nr) block per antenna is faster than one 3-D pass
        # numpy divides a complex by a real as a product with the reciprocal: z / sqrt(2), bit for bit
        scaled_complex(re[:, :, n], im[:, :, n], 1.0 / np.sqrt(2.0), out[n])
    return out.transpose(1, 2, 0)


def scaled_complex(re: np.ndarray, im: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """(re + 1j * im) * scale into `out`, bit for bit but for signed zeros."""
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


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
