"""Rayleigh MIMO channel, receiver cross-correlation statistics, and AWGN.

A channel matrix is a complex ndarray of shape (nr, nt): row = receive
antenna, column = transmit antenna, entries i.i.d. CN(0, 1) with total unit
variance split equally between real and imaginary parts, so that the
expected squared Frobenius norm is nt * nr.
"""

import numpy as np

from .errors import ConfigurationError


def sample_channel(nt: int, nr: int, stream: np.random.Generator) -> np.ndarray:
    """Draw an (nr, nt) matrix of i.i.d. CN(0, 1) gains from `stream`."""
    if nt < 1 or nr < 1:
        raise ConfigurationError(f"antenna counts must be >= 1, got nt={nt}, nr={nr}")
    g = stream.standard_normal((2, nr, nt))
    return (g[0] + 1j * g[1]) / np.sqrt(2.0)


def sample_noise(nr: int, sigma2: float, stream: np.random.Generator) -> np.ndarray:
    """Draw an (nr,) CN(0, sigma2) noise vector; sigma2 is the total per-entry variance."""
    if nr < 1:
        raise ConfigurationError(f"nr must be >= 1, got nr={nr}")
    if sigma2 <= 0:
        raise ConfigurationError(f"noise variance must be positive, got {sigma2}")
    g = stream.standard_normal((2, nr))
    return (g[0] + 1j * g[1]) * np.sqrt(sigma2 / 2.0)


def pair_columns(n: int) -> slice:
    """The columns of `gram_polar`'s output that hold the pairs (n, 0..n-1)."""
    return slice(n * (n - 1) // 2, n * (n + 1) // 2)


def gram_polar(h_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar cross-correlations of a (B, nr, nt) channel batch, packed.

    Returns (rho, alpha), each of shape (B, nt * (nt - 1) // 2), holding the
    pairs n > m (0-based) in ``np.tril_indices(nt, -1)`` order, so antenna
    n's terms are the columns `pair_columns(n)`. There ``rho * exp(1j * alpha)``
    equals sum_o conj(H[o, n]) * H[o, m]; rho is nonnegative, alpha is the
    principal value in (-pi, pi], and alpha is fixed to 0 wherever rho
    vanishes. Only these pairs are computed.
    """
    if h_batch.ndim != 3:
        raise ConfigurationError(f"channel batch must be 3-D, got shape {h_batch.shape}")
    b, _, nt = h_batch.shape
    rho = np.empty((b, nt * (nt - 1) // 2))
    alpha = np.empty_like(rho)
    for n in range(1, nt):
        cols = pair_columns(n)
        g = np.einsum("bo,bom->bm", h_batch[:, :, n].conj(), h_batch[:, :, :n])
        rho[:, cols] = np.abs(g)
        # adding +0j normalizes -0.0 imaginary parts so negative reals map to +pi
        alpha[:, cols] = np.where(rho[:, cols] == 0.0, 0.0, np.angle(g + 0j))
    return rho, alpha
