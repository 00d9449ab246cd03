"""Reference implementations of the Philox draws and of the paper's claims, written the plain way.

The package never calls these; the tests hold its fast paths against them.
"""

import numpy as np

from fdprecode.channel import gram_polar


def philox_words(seed, purpose, point, start_block, n_blocks):
    """uint64 Philox words of counter blocks [start_block, start_block + n_blocks) at the
    address `streams` draws from: 256-bit counter words [block, 0, point, purpose]."""
    counter = (purpose << 192) | (point << 128) | start_block
    return np.random.Philox(key=seed & ((1 << 128) - 1), counter=counter).random_raw(4 * n_blocks)


def uniforms(words):
    """((w >> 11) + 0.5) * 2**-53 of uint64 words, clamped to 1 - 2**-53 (where it rounds to 1)."""
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53)


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


def axis_table(xs, ys, order=None):
    """The sums x + 1j * y over every pair of levels, x major, in `order`."""
    table = np.empty((xs.size, ys.size), dtype=complex)
    table.real, table.imag = xs[:, None], ys[None, :]
    table = table.ravel()
    return table if order is None else table[order]


def sorted_axis_grid(sums, even_rel=1e-6):
    """The sort-based axis-grid recognizer: (x levels, y levels, (nx, ny)
    position table) when the distinct real and imaginary parts, found by
    sorting and comparing neighbours, number nx and ny >= 2 with
    nx * ny == N, lie within `even_rel` steps of even spacing, and every
    (x, y) pair occurs once; else None."""
    levels = []
    for part in (sums.real, sums.imag):
        v = np.sort(part)
        levels.append(v[np.concatenate(([True], v[1:] != v[:-1]))])
    nx, ny = levels[0].size, levels[1].size
    if nx * ny != sums.size or min(nx, ny) < 2:
        return None
    for lv in levels:
        step = (lv[-1] - lv[0]) / (lv.size - 1)
        if not np.all(np.abs(lv - np.linspace(lv[0], lv[-1], lv.size)) <= even_rel * step):
            return None
    table = np.full((nx, ny), -1, np.intp)
    table[np.searchsorted(levels[0], sums.real), np.searchsorted(levels[1], sums.imag)] = np.arange(sums.size)
    return None if table.min() < 0 else (*levels, table)
