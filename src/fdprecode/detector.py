"""Exact maximum-likelihood detection for the precoded system.

Two equivalent paths: an exhaustive search over the full codebook (the
oracle, cost O(N * nt * nr) per decode; the same batched search decodes the
unprecoded V-BLAST baseline) and a fast decoder over the sum constellation.
Because F x = a * sum(x), the metric ||y - H F x||^2 depends on x only
through s = sum(x), so the fast path is a nearest-point search for the
matched-filter reduction s_mf = (h_eff^H y) / ||h_eff||^2 -- the same argmin.
Both break ties toward the smallest codeword index.

The fast path looks the nearest sum up in a uniform bucket grid of cells of
side d_min / 2, which holds at most one sum per cell. A query is compared
with the sums in the 5 x 5 cells around its own; the block's minimum is
certified when it is below the block's inner radius 2 * (d_min / 2), since no
sum outside the block can then be as close. Uncertified, off-grid and
non-finite queries, and whole tables too small or too sparse for a grid,
take the exhaustive argmin over all sums, so every decision equals
argmin |s_mf - sums|, ties included.
"""

import numpy as np

from .constellation import DEFAULT_DISTINCT_TOL, ConstellationSets, _min_pairwise
from .errors import ConfigurationError, EnumerationBudgetError
from .precoder import precoder_matrix

BRUTEFORCE_BUDGET = 1 << 16


def codeword_matrix(cs: ConstellationSets) -> np.ndarray:
    """All codewords as an (N, nt) array in lexicographic index order."""
    n = cs.codebook_size
    if n > BRUTEFORCE_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration infeasible: {n} codewords exceed the budget {BRUTEFORCE_BUDGET}; "
            "use the sum-constellation decoder")
    return np.stack(np.meshgrid(*cs.sets, indexing="ij"), -1).reshape(n, cs.nt)


def exhaustive_decode_batch(y: np.ndarray, transfer: np.ndarray,
                            codewords: np.ndarray) -> np.ndarray:
    """argmin_k ||y_b - transfer_b @ x_k||^2 for every row b.

    y is (B, nr), transfer (B, nr, nt) and codewords (N, nt); chunked so the
    (chunk, N, nr) candidate table stays near 32 MB.
    """
    n = codewords.shape[0]
    out = np.empty(y.shape[0], dtype=np.int64)
    chunk = max(1, (1 << 21) // (n * y.shape[1]))
    for lo in range(0, y.shape[0], chunk):
        cand = np.einsum("kn,bon->bko", codewords, transfer[lo:lo + chunk])
        metrics = np.sum(np.abs(y[lo:lo + chunk, None, :] - cand) ** 2, axis=2)
        out[lo:lo + chunk] = np.argmin(metrics, axis=1)
    return out


def ml_decode_bruteforce(y: np.ndarray, h: np.ndarray, a: np.ndarray,
                         cs: ConstellationSets) -> int:
    """Exhaustive ML decode of y = H F x + n; returns the codeword index."""
    hf = np.asarray(h, dtype=complex) @ precoder_matrix(a)
    y = np.asarray(y, dtype=complex)
    return int(exhaustive_decode_batch(y[None], hf[None], codeword_matrix(cs))[0])


class FastMLDecoder:
    """ML decoder over the (N,) codeword sums from `sum_constellation`, with
    its bucket grid built once.

    Refuses colliding sums at construction: the decision would be ambiguous.
    The grid's cell side is half the minimum spacing d that this check
    computes, so a cell holds at most one sum; it is padded by `_RADIUS + 1`
    cells on every side, and empty cells hold the sentinel index N, whose
    point lies at infinity. No grid is built for tables of at most
    (2 * _RADIUS + 1)^2 sums, or when the grid would need more than
    `_MAX_CELLS_PER_SUM` cells per sum; every query then takes the
    exhaustive argmin.
    """

    _RADIUS = 2               # block of (2r+1)^2 cells searched around the query's cell
    _MAX_CELLS_PER_SUM = 16   # grid size cap, in cells per sum
    _GATHER_ROWS = 4096       # queries per candidate gather, bounding its temporaries

    def __init__(self, sums: np.ndarray):
        d, _, _ = _min_pairwise(sums)
        if not d > DEFAULT_DISTINCT_TOL:
            raise ConfigurationError(
                f"sum constellation is not injective (minimum spacing {d:g}); "
                "decisions would be ambiguous")
        self.sums = sums
        self._grid = None
        r = self._RADIUS
        n = self.sums.size
        if n <= (2 * r + 1) ** 2:
            return
        c = d / 2.0
        x0, y0 = self.sums.real.min(), self.sums.imag.min()
        ix = np.floor((self.sums.real - x0) / c).astype(np.intp)
        iy = np.floor((self.sums.imag - y0) / c).astype(np.intp)
        pad = r + 1
        nx, ny = int(ix.max()) + 1 + 2 * pad, int(iy.max()) + 1 + 2 * pad
        if nx * ny > self._MAX_CELLS_PER_SUM * n:
            return
        grid = np.full((nx, ny), n, dtype=np.intp)
        grid[ix + pad, iy + pad] = np.arange(n)
        assert np.count_nonzero(grid != n) == n, "two sums share a grid cell"
        self._grid = grid.ravel()
        self._points = np.append(self.sums, complex(np.inf, np.inf))
        self._frame = (x0, y0, c, pad, nx, ny)
        dx, dy = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
        self._offsets = (dx * ny + dy).ravel()
        self._bound = r * c * (1.0 - 1e-9)

    def decode(self, y: np.ndarray, h_eff: np.ndarray) -> int:
        return int(self.decode_batch(np.asarray(y, dtype=complex)[None, :],
                                     np.asarray(h_eff, dtype=complex)[None, :])[0])

    def decode_batch(self, y: np.ndarray, h_eff: np.ndarray) -> np.ndarray:
        """Vectorized decode of (B, nr) receptions against (B, nr) effective channels."""
        s_mf = np.sum(h_eff.conj() * y, axis=1) / np.sum(np.abs(h_eff) ** 2, axis=1)
        if self._grid is None:
            return self._argmin(s_mf)
        out = np.empty(s_mf.size, dtype=np.int64)
        step = self._GATHER_ROWS
        for lo in range(0, s_mf.size, step):
            out[lo:lo + step] = self._lookup(s_mf[lo:lo + step])
        rest = np.nonzero(out < 0)[0]
        if rest.size:
            out[rest] = self._argmin(s_mf[rest])
        return out

    def _lookup(self, q: np.ndarray) -> np.ndarray:
        """Grid decision for each query in q, or -1 where the grid cannot certify one."""
        x0, y0, c, pad, nx, ny = self._frame
        r = self._RADIUS
        with np.errstate(over="ignore"):
            fx = np.floor((q.real - x0) / c) + pad
            fy = np.floor((q.imag - y0) / c) + pad
        # non-finite cells, NaN included, fail the range test and fall back
        rows = np.nonzero((fx >= r) & (fx < nx - r) & (fy >= r) & (fy < ny - r))[0]
        cell = fx[rows].astype(np.intp) * ny + fy[rows].astype(np.intp)
        cand = self._grid[cell[:, None] + self._offsets[None, :]]
        dist = np.abs(q[rows, None] - self._points[cand])
        best = dist.min(axis=1)
        # smallest sum index among the tied candidates
        idx = np.where(dist == best[:, None], cand, self.sums.size).min(axis=1)
        ok = best < self._bound
        out = np.full(q.size, -1, dtype=np.int64)
        out[rows[ok]] = idx[ok]
        return out

    def _argmin(self, s_mf: np.ndarray) -> np.ndarray:
        """Exhaustive argmin |s_mf - sums|, chunked so the (chunk, N) table stays ~32 MB."""
        out = np.empty(s_mf.size, dtype=np.int64)
        chunk = max(1, (1 << 21) // max(1, self.sums.size))
        for lo in range(0, s_mf.size, chunk):
            hi = min(lo + chunk, s_mf.size)
            out[lo:hi] = np.argmin(np.abs(s_mf[lo:hi, None] - self.sums[None, :]), axis=1)
        return out
