"""Exact maximum-likelihood detection, precoded and unprecoded.

Two decoders: an exhaustive search over the full codebook (real arithmetic, no
BLAS call), which decodes the unprecoded V-BLAST baseline, and a fast decoder
over the sum constellation for the precoded scheme. Because F x = a * sum(x),
the metric ||y - H F x||^2 depends on x only through s = sum(x), so the fast
path is a nearest-point search for the matched-filter reduction
s_mf = (h_eff^H y) / ||h_eff||^2 -- the same argmin as the exhaustive search
through H F. Both break ties toward the smallest codeword index.

The fast path depends on the table. When more than 25 sums are exactly an
evenly spaced axis grid, as those of the 1- and 2-bit presets over 25 sums
are (a square QAM), each coordinate of the query rounds to its nearest
level, and a table maps the two levels to the sum's index. The decision is
certified when, on both axes, the query lies farther from the nearest
midpoint than rounding in |s_mf - s| could matter (Conway & Sloane, "Fast
quantizing and decoding algorithms for lattice quantizers and codes", IEEE
Trans. IT 28(2), 1982).
Any other table is looked up in a uniform bucket grid of cells of side c
just under d_min / sqrt(2), which holds at most one sum per cell. A query is
compared with the sums in the 3 x 3 cells around its own; the block's
minimum is certified when it is below c, since every sum outside the block
is at least c away. Uncertified, off-grid and non-finite queries, and whole
tables of at most 25 sums or too sparse for a grid, take the exhaustive
argmin over all sums, so every decision equals argmin |s_mf - sums|, ties
included.
"""

import numpy as np

from .constellation import DEFAULT_DISTINCT_TOL, ConstellationSets, axis_grid, _min_pairwise
from .errors import ConfigurationError, EnumerationBudgetError

BRUTEFORCE_BUDGET = 1 << 16


def _enumerable(cs: ConstellationSets) -> int:
    """The codebook size; one over BRUTEFORCE_BUDGET raises, pointing to the precoded scheme."""
    n = cs.codebook_size
    if n > BRUTEFORCE_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration infeasible: {n} codewords exceed the budget {BRUTEFORCE_BUDGET}; "
            "the unprecoded_vblast baseline decodes exhaustively; use --scheme proposed")
    return n


def codeword_matrix(cs: ConstellationSets) -> np.ndarray:
    """All codewords as an (N, nt) array in lexicographic index order; a
    codebook over BRUTEFORCE_BUDGET raises, pointing to the precoded scheme."""
    n = _enumerable(cs)
    return np.stack(np.meshgrid(*cs.sets, indexing="ij"), -1).reshape(n, cs.nt)


class ExhaustiveDecoder:
    """ML decoder over the codebook of a `ConstellationSets`, for the unprecoded baseline.

    `decode_batch(y, transfer)` returns argmin_k ||y_b - transfer_b @ x_k||^2
    for every row b, ties to the smallest k. Real arithmetic, no BLAS: per
    receive antenna o, Re and Im of transfer[o, n] * x_k[n] come off y_o in
    antenna order n; dr * dr + di * di is summed over o. A prefix x_k[:n + 1]
    that codewords share is computed once, in (prefixes, rows) planes of at
    most max(N, 2**15) elements (a level's point products take (|C_n|, rows)
    planes of the same rows), so each codeword's roundings are its own
    sequence's. The prefix tree is the codebook's lexicographic order: prefix
    k of antenna n extends prefix k // |C_n| of antenna n - 1 by point
    k % |C_n| of C_n, so the leaves are the codewords in index order. Gathers
    use `np.take`'s clip mode, which writes `out=` in place where raise mode
    copies; every index is in range.
    """

    def __init__(self, cs: ConstellationSets):
        self.size, self.points, self.levels = _enumerable(cs), max(c.size for c in cs.sets), []
        for k, c in zip(np.cumprod([c.size for c in cs.sets]), cs.sets):
            prefix = np.arange(k)
            self.levels.append((c.real[:, None], c.imag[:, None], prefix // c.size, prefix % c.size))

    def decode_batch(self, y: np.ndarray, transfer: np.ndarray, alloc=np.empty) -> np.ndarray:
        """Decisions for (B, nr) receptions through (B, nr, nt) transfers; the
        planes and the result come from alloc(shape, dtype), once per call."""
        rows, nr = y.shape
        step = max(1, min(rows, (1 << 15) // self.size))
        # one level's point products, then the prefix planes: no level has more prefixes
        flat = [alloc(size * step) for size in (self.points,) * 2 + (self.size,) * 7]
        out = alloc(rows, np.int64)
        for lo in range(0, rows, step):
            w = min(step, rows - lo)
            # contiguous (N, w) views of the flat buffers
            views = (b[:b.size // step * w].reshape(-1, w) for b in flat)
            xr, xi, tmp, metric, term, *planes = views
            for o in range(nr):
                dr, di = y[None, lo:lo + w, o].real, y[None, lo:lo + w, o].imag
                for lv, ((ur, ui, parent, val), tn) in enumerate(zip(self.levels,
                                                                     transfer[lo:lo + w, o, :].T)):
                    m, k = ur.shape[0], parent.size
                    ar = np.subtract(np.multiply(ur, tn.real, out=xr[:m]),
                                     np.multiply(ui, tn.imag, out=tmp[:m]), out=xr[:m])
                    ai = np.add(np.multiply(ui, tn.real, out=xi[:m]),
                                np.multiply(ur, tn.imag, out=tmp[:m]), out=xi[:m])
                    nxt_r, nxt_i = planes[lv % 2][:k], planes[2 + lv % 2][:k]
                    dr = np.subtract(np.take(dr, parent, axis=0, out=nxt_r, mode="clip"),
                                     np.take(ar, val, axis=0, out=tmp[:k], mode="clip"), out=nxt_r)
                    di = np.subtract(np.take(di, parent, axis=0, out=nxt_i, mode="clip"),
                                     np.take(ai, val, axis=0, out=tmp[:k], mode="clip"), out=nxt_i)
                # o = 0 writes the metric itself: 0.0 + (dr * dr + di * di) is that sum, never -0.0
                acc = metric if o == 0 else term
                np.add(np.multiply(dr, dr, out=acc), np.multiply(di, di, out=tmp), out=acc)
                if o:
                    metric += acc
            np.argmin(metric, axis=0, out=out[lo:lo + w])
        return out


class FastMLDecoder:
    """ML decoder over the (N,) codeword sums from `sum_constellation`, with
    its search structure built once.

    Refuses colliding sums at construction: the decision would be ambiguous. A
    table of more than `_ARGMIN_SUMS` sums that `constellation.axis_grid`
    finds to be exactly an evenly spaced axis grid keeps its levels and one
    (nx, ny) table from grid position to sum index; its spacing d is the
    smallest gap between adjacent levels. Any other table takes d from the
    exact bucket-grid closest-pair search the constellation checker uses
    (`constellation._min_pairwise`) and, above `_ARGMIN_SUMS` sums, a bucket
    grid of cell side c = d / sqrt(2) less a relative 1e-9, so a cell holds at
    most one sum; it is padded by 2 cells on every side, and empty cells hold
    the sentinel index N, whose point lies at infinity. A 3 x 3 block minimum
    below c (1 - 1e-9) is certified. No grid is built when it would need more
    than `_MAX_CELLS_PER_SUM` cells per sum; every query then takes the
    exhaustive argmin.
    """

    _ARGMIN_SUMS = 25         # tables this small decode faster by the exhaustive argmin
    _MAX_CELLS_PER_SUM = 16   # grid size cap, in cells per sum

    def __init__(self, sums: np.ndarray):
        self.sums = sums
        self._grid = self._axes = None
        n = sums.size
        axes = axis_grid(sums) if n > self._ARGMIN_SUMS else None
        if axes is None:
            d, _, _ = _min_pairwise(sums)
        else:
            *levels, table = axes
            d = min(np.diff(lv).min() for lv in levels)
        if not d > DEFAULT_DISTINCT_TOL:
            raise ConfigurationError(
                f"sum constellation is not injective (minimum spacing {d:g}); "
                "decisions would be ambiguous")
        if axes is not None:
            self._table, self._axes = table, tuple(self._slicer(lv) for lv in levels)
            return
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

    @staticmethod
    def _slicer(lv: np.ndarray) -> tuple:
        """One axis's slicing constants: its levels, the midpoints below and
        above each level (-inf and inf past the outer ones), the first level,
        1 / step, the last index, and the certificate's slacks eps * F and
        16 eps / g, with F the largest |level| and g the smallest gap.

        The midpoints are lv[i] / 2 + lv[i + 1] / 2, which cannot overflow."""
        mids = lv[:-1] / 2 + lv[1:] / 2
        eps = np.finfo(float).eps
        return (lv, np.concatenate(([-np.inf], mids)), np.concatenate((mids, [np.inf])), lv[0],
                (lv.size - 1) / (lv[-1] - lv[0]), lv.size - 1,
                eps * max(-lv[0], lv[-1]), 16 * eps / np.diff(lv).min())

    def decode_batch(self, y: np.ndarray, h_eff: np.ndarray, alloc=np.empty) -> np.ndarray:
        """Vectorized decode of (B, nr) receptions against (B, nr) effective channels.

        Every array made here, the decisions included, comes from
        alloc(shape, dtype); the bucket grid's gathers are (9, B), so the
        caller bounds them by the batch it passes.
        """
        b = y.shape[0]
        prod, mag2 = alloc(y.shape, complex), alloc(y.shape)
        s_mf, energy = alloc((b,), complex), alloc((b,))
        np.sum(np.multiply(np.conjugate(h_eff, out=prod), y, out=prod), axis=1, out=s_mf)
        np.sum(np.square(np.abs(h_eff, out=mag2), out=mag2), axis=1, out=energy)
        np.divide(s_mf, energy, out=s_mf)
        if self._axes is not None:
            out = self._slice(s_mf, alloc)
        elif self._grid is not None:
            out = self._lookup(s_mf, alloc)
        else:
            return self._argmin(s_mf, alloc)
        rest = np.less(out, 0, out=alloc((b,), bool))
        if rest.any():
            q = np.compress(rest, s_mf, out=alloc((np.count_nonzero(rest),), complex))
            out[rest] = self._argmin(q, alloc)
        return out

    def _slice(self, q: np.ndarray, alloc=np.empty) -> np.ndarray:
        """Axis-grid decision for each query in q, or -1 where it is not certified.

        Each coordinate rounds to its nearest level. A row is certified when,
        on both axes, its distance m to the nearer midpoint around its level
        (past an outer level, the inward one: g / 2 + t at distance t out)
        exceeds eps F + 16 eps b^2 / g, where b is the row's distance to the
        candidate sum. Every other sum's |q - s|^2 then exceeds the
        candidate's by at least 2 g m > 30 eps b^2, so its distance a exceeds
        b by more than 4 eps (a + b): more than the rounding of the float
        |q - s|, within a relative 4 eps of each, can close. The candidate is
        then argmin |q - sums|, with no tie. NaN and inf rows, and rows so far
        out that b^2 outgrows m, fail the test.
        """
        n = q.size
        cells = (alloc((n,), np.intp), alloc((n,), np.intp))
        f, m, b2 = alloc((n,)), alloc((n,)), alloc((n,))
        ok, test, out = alloc((n,), bool), alloc((n,), bool), alloc((n,), np.int64)
        parts = (q.real, q.imag)
        with np.errstate(over="ignore", invalid="ignore"):
            b2.fill(0.0)
            for part, cell, axis in zip(parts, cells, self._axes):
                levels, _, _, first, inv_step, last, _, _ = axis
                np.subtract(part, first, out=f)
                f *= inv_step
                np.clip(np.rint(f, out=f), 0, last, out=f)
                np.copyto(cell, f, casting="unsafe")  # NaN casts to any index; it is refused below
                np.subtract(part, np.take(levels, cell, out=f, mode="clip"), out=f)
                b2 += np.square(f, out=f)
            ok.fill(True)
            for part, cell, axis in zip(parts, cells, self._axes):
                _, below, above, _, _, _, slack, per_b2 = axis
                np.subtract(part, np.take(below, cell, out=f, mode="clip"), out=m)
                np.subtract(np.take(above, cell, out=f, mode="clip"), part, out=f)
                np.minimum(m, f, out=m)
                m -= slack
                ok &= np.greater(m, np.multiply(b2, per_b2, out=f), out=test)
        x, y = cells
        np.multiply(x, self._table.shape[1], out=x)
        np.take(self._table, np.add(x, y, out=x), out=out, mode="clip")
        np.copyto(out, -1, where=np.logical_not(ok, out=test))
        return out

    def _lookup(self, q: np.ndarray, alloc=np.empty) -> np.ndarray:
        """Grid decision for each query in q, or -1 where the grid cannot certify one.

        Every query takes the same steps: one off the grid, NaN included, is
        scored against clipped cells and then refused.
        """
        x0, y0, c, pad, nx, ny = self._frame
        n, block = q.size, (self._offsets.size, q.size)
        fx, fy, ok, test = alloc((n,)), alloc((n,)), alloc((n,), bool), alloc((n,), bool)
        cell, near, cand = alloc((n,), np.intp), alloc(block, np.intp), alloc(block, np.intp)
        diff, dist, out = alloc(block, complex), alloc(block), alloc((n,), np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            for f, part, origin in ((fx, q.real, x0), (fy, q.imag, y0)):
                np.subtract(part, origin, out=f)
                f /= c
                np.floor(f, out=f)
                f += pad
            np.greater_equal(fx, 1, out=ok)
            ok &= np.less(fx, nx - 1, out=test)
            ok &= np.greater_equal(fy, 1, out=test)
            ok &= np.less(fy, ny - 1, out=test)
            np.multiply(fx, ny, out=fx)
            fx += fy  # the flat cell index: exact on the grid, any value off it
            np.copyto(cell, fx, casting="unsafe")
            # (block cells, queries): mins run along long rows
            np.take(self._grid, np.add(self._offsets, cell, out=near), out=cand, mode="clip")
            np.take(self._points, cand, out=diff, mode="clip")
            np.abs(np.subtract(q, diff, out=diff), out=dist)
            best = np.min(dist, axis=0, out=fy)
            ok &= np.less(best, self._bound, out=test)
            # smallest sum index among the tied candidates
            np.copyto(cand, self.sums.size, where=np.not_equal(dist, best, out=alloc(block, bool)))
        out.fill(-1)
        np.copyto(out, np.min(cand, axis=0, out=cell), where=ok)
        return out

    def _argmin(self, s_mf: np.ndarray, alloc=np.empty) -> np.ndarray:
        """Exhaustive argmin |s_mf - sums|, in chunks whose (chunk, N) table
        holds at most max(N, 2**16) entries (1 MB of complex at 2**16)."""
        out = alloc((s_mf.size,), np.int64)
        chunk = max(1, min(s_mf.size, (1 << 16) // self.sums.size))
        diff, dist = alloc((chunk, self.sums.size), complex), alloc((chunk, self.sums.size))
        for lo in range(0, s_mf.size, chunk):
            hi = min(lo + chunk, s_mf.size)
            d = np.subtract(s_mf[lo:hi, None], self.sums[None, :], out=diff[:hi - lo])
            np.argmin(np.abs(d, out=dist[:hi - lo]), axis=1, out=out[lo:hi])
        return out
