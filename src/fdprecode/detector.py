"""Exact maximum-likelihood detection, precoded and unprecoded.

Two decoders: an exhaustive search over the full codebook (real arithmetic, no
BLAS call), which decodes the unprecoded V-BLAST baseline, and a fast decoder
over the sum constellation for the precoded scheme. Because F x = a * sum(x),
the metric ||y - H F x||^2 depends on x only through s = sum(x), so the fast
path is a nearest-point search for the matched-filter reduction
s_mf = (h_eff^H y) / ||h_eff||^2 -- the same argmin as the exhaustive search
through H F. Both break ties toward the smallest codeword index.

The fast path looks the nearest sum up in a uniform bucket grid of cells of
side c just under d_min / sqrt(2), which holds at most one sum per cell. A
query is compared with the sums in the 3 x 3 cells around its own; the
block's minimum is certified when it is below c, since every sum outside the
block is at least c away. Uncertified, off-grid and non-finite queries, and
whole tables of at most 25 sums or too sparse for a grid, take the
exhaustive argmin over all sums, so every decision equals
argmin |s_mf - sums|, ties included.
"""

import numpy as np

from .constellation import DEFAULT_DISTINCT_TOL, ConstellationSets, _min_pairwise
from .errors import ConfigurationError, EnumerationBudgetError

BRUTEFORCE_BUDGET = 1 << 16


def codeword_matrix(cs: ConstellationSets) -> np.ndarray:
    """All codewords as an (N, nt) array in lexicographic index order; a
    codebook over BRUTEFORCE_BUDGET raises, pointing to the precoded scheme."""
    n = cs.codebook_size
    if n > BRUTEFORCE_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration infeasible: {n} codewords exceed the budget {BRUTEFORCE_BUDGET}; "
            "the unprecoded_vblast baseline decodes exhaustively; use --scheme proposed")
    return np.stack(np.meshgrid(*cs.sets, indexing="ij"), -1).reshape(n, cs.nt)


def exhaustive_decode_batch(y: np.ndarray, transfer: np.ndarray,
                            codewords: np.ndarray) -> np.ndarray:
    """argmin_k ||y_b - transfer_b @ x_k||^2 for every row b, ties to the smallest k.

    y is (B, nr), transfer (B, nr, nt), codewords (N, nt). Real arithmetic, no BLAS:
    per receive antenna o, Re and Im of transfer[o, n] * x_k[n] come off y_o in
    antenna order n; dr * dr + di * di is summed over o. A prefix x_k[:n + 1] that
    codewords share is computed once, in (prefixes, rows) planes of at most
    max(N, 2**15) elements, so each codeword's roundings are its own sequence's.
    """
    inv, levels = np.zeros(len(codewords), dtype=np.int64), []
    for col in codewords.T:  # per antenna n, the distinct prefixes x_k[:n + 1] by (parent, value)
        u, vi = np.unique(col, return_inverse=True)
        keys, inv = np.unique(inv * u.size + vi, return_inverse=True)
        levels.append((u.real[:, None], u.imag[:, None], keys // u.size, keys % u.size))
    out, step = np.empty(len(y), dtype=np.int64), max(1, (1 << 15) // len(codewords))
    for lo in range(0, len(y), step):
        yc, t, metric = y[lo:lo + step], transfer[lo:lo + step], 0.0
        for o in range(y.shape[1]):
            dr, di = yc[None, :, o].real, yc[None, :, o].imag
            for (ur, ui, parent, val), tn in zip(levels, t[:, o, :].T):
                dr = np.take(dr, parent, axis=0) - np.take(ur * tn.real - ui * tn.imag, val, axis=0)
                di = np.take(di, parent, axis=0) - np.take(ui * tn.real + ur * tn.imag, val, axis=0)
            metric = metric + (dr * dr + di * di)
        out[lo:lo + step] = np.argmin(np.take(metric, inv, axis=0), axis=0)
    return out


class FastMLDecoder:
    """ML decoder over the (N,) codeword sums from `sum_constellation`, with
    its bucket grid built once.

    Refuses colliding sums at construction: the decision would be ambiguous.
    The minimum spacing d comes from the same exact bucket-grid closest-pair
    search the constellation checker uses (`constellation._min_pairwise`).
    The grid's cell side c is d / sqrt(2) less a relative 1e-9, so a cell
    holds at most one sum; it is padded by 2 cells on every side,
    and empty cells hold the sentinel index N, whose point lies at infinity.
    A 3 x 3 block minimum below c (1 - 1e-9) is certified. No grid is built
    for tables of at most `_ARGMIN_SUMS` sums, or when the grid would need
    more than `_MAX_CELLS_PER_SUM` cells per sum; every query then takes the
    exhaustive argmin.
    """

    _ARGMIN_SUMS = 25         # tables this small decode faster by the exhaustive argmin
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
        n = self.sums.size
        if n <= self._ARGMIN_SUMS:
            return
        c = d / np.sqrt(2.0) * (1.0 - 1e-9)
        x0, y0 = self.sums.real.min(), self.sums.imag.min()
        ix = np.floor((self.sums.real - x0) / c).astype(np.intp)
        iy = np.floor((self.sums.imag - y0) / c).astype(np.intp)
        pad = 2
        nx, ny = int(ix.max()) + 1 + 2 * pad, int(iy.max()) + 1 + 2 * pad
        if nx * ny > self._MAX_CELLS_PER_SUM * n:
            return
        grid = np.full((nx, ny), n, dtype=np.intp)
        grid[ix + pad, iy + pad] = np.arange(n)
        assert np.count_nonzero(grid != n) == n, "two sums share a grid cell"
        self._grid = grid.ravel()
        self._points = np.append(self.sums, complex(np.inf, np.inf))
        self._frame = (x0, y0, c, pad, nx, ny)
        dx, dy = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
        self._offsets = (dx * ny + dy).reshape(-1, 1)
        self._bound = c * (1.0 - 1e-9)

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
        with np.errstate(over="ignore"):
            fx = np.floor((q.real - x0) / c) + pad
            fy = np.floor((q.imag - y0) / c) + pad
        # non-finite cells, NaN included, fail the range test and fall back
        rows = np.nonzero((fx >= 1) & (fx < nx - 1) & (fy >= 1) & (fy < ny - 1))[0]
        cell = fx[rows].astype(np.intp) * ny + fy[rows].astype(np.intp)
        cand = self._grid[self._offsets + cell]  # (block cells, queries): mins run along long rows
        dist = np.abs(q[rows] - self._points[cand])
        best = dist.min(axis=0)
        # smallest sum index among the tied candidates
        idx = np.where(dist == best, cand, self.sums.size).min(axis=0)
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
