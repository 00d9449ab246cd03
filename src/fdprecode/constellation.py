"""Per-antenna constellation sets, shipped presets, and the design toolkit.

The codeword x = (x_1, ..., x_nt) draws x_i from set C_i. Under the rank-one
precoder the receiver effectively sees only the symbol sum(x), so the system
has full diversity exactly when the codeword -> sum map is injective, i.e.
sum_i dx_i != 0 for every codeword pair. The minimum |sum dx| over pairs is
the coding-gain metric; designs maximize it under a transmit-power budget.

QAM convention: Q_M uses odd-integer levels before scaling, so Q_4 = {±1±j}
and Q_16 = {u + jv : u, v in {±1, ±3}}. All preset energies and distances
follow from this choice. Under it the 4-bit presets (scalings 1, 1/14, 1/28,
...) do NOT pass the sum-injectivity check: the symbol pairs
x_2 = (1+j)/14, x_3 = (3+j)/28 and x_2 = (3+j)/14, x_3 = (-1+j)/28 share the
partial sum (5+3j)/28, so two codewords collide. They ship as printed but
are flagged unverified (UNVERIFIED_PRESETS); the checker's verdict is
authoritative for whatever convention is configured.

The checker and the optimizer score a design by one exact closest-pair
search over its sums (`_min_pairwise`): all pairs at once for up to 64
points, and a bucket grid of about one point per cell above that, so a
65536-sum check costs one linear pass on a lattice, a few on other sums.
Its minimum equals an exhaustive pair scan's bit for bit. Above 64 sums the
checker first asks `axis_grid`, which `FastMLDecoder` shares, whether the
sums are exactly an evenly spaced axis grid, as those of the 1- and 2-bit
presets over 64 sums are: then the minimum is the smallest adjacent level
gap, no scan. The optimizer first scores leading subsets of a large stage's
sums (64 for all of a scale's rotations at once, then 1024 per candidate);
one spaced no wider than the incumbent settles the candidate, so the design
is the one exhaustive scoring picks.

Memory: the sum table, the stage sums and every array a scan writes come
from an `alloc(shape, dtype)` callable, the tile pipeline's one array
convention (see `workspace`), and numpy makes no temporary of their size.
`check_full_diversity` and the optimizer pass frames of one thread-local
`Workspace` that outlives the call, so a second check of 65536 sums
allocates and page-faults nothing; frames stack, so a scan never takes a
slot its caller holds. The thread keeps its largest scan's buffers, 80 to
110 bytes per sum, up to a 65536-sum scan's: after a larger check or design
run it drops every buffer over 1 MB that no frame holds. Other callers,
`FastMLDecoder`'s build among them, pass `np.empty` and allocate per call.

Constellation file format (used by the CLI): a header line ``nt bits``
followed by one line per point, ``i re im`` with 1-based antenna index i and
decimals printed at 17 significant digits for a lossless round trip.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError, InfeasibleDesignError
from .workspace import Workspace

ENUM_BUDGET = 1 << 20
DEFAULT_DISTINCT_TOL = 1e-12
_MAX_GRID_POINTS = 1 << 16

# closest-pair search: point counts up to which every pair is evaluated at
# once, and the candidate pairs evaluated together, bounding temporaries
_ALL_PAIRS_MAX = 64
_PAIR_CHUNK = 1 << 15
# optimizer stages above this many sums score the leading ones first
_SUBSET_SUMS = 1 << 10
# axis-grid levels may lie up to _EVEN_REL steps off even spacing
_EVEN_REL = 1e-6

# 4-bit presets fail sum-injectivity under the odd-integer QAM convention
UNVERIFIED_PRESETS = {(3, 4), (4, 4)}

# relative spread below which grid-search objectives count as tied; mathematically
# equal symmetric designs differ by ulps and must not defeat the lexicographic rule
_TIE_REL = 1e-9

# the checker's and the optimizer's scan arrays, kept per thread from call to
# call up to a 65536-sum scan's largest buffer, its complex sums
_SCAN = Workspace()
_SCAN_KEEP = (1 << 16) * np.dtype(complex).itemsize
_RUN = np.arange(1 << 13)  # the block `_arange` writes from, and `axis_grid`'s chunk
_RUN.setflags(write=False)


@dataclass(frozen=True)
class ConstellationSets:
    """Per-antenna point sets C_1..C_nt, each of cardinality 2**bits_per_symbol."""

    sets: tuple
    bits_per_symbol: int

    def __post_init__(self):
        if self.bits_per_symbol < 1:
            raise ConfigurationError(f"bits_per_symbol must be >= 1, got {self.bits_per_symbol}")
        if len(self.sets) < 1:
            raise ConfigurationError("need at least one constellation set")
        size = 1 << self.bits_per_symbol
        frozen = []
        for i, c in enumerate(self.sets):
            c = np.asarray(c, dtype=complex)
            if c.ndim != 1 or c.size != size:
                raise ConfigurationError(
                    f"set {i + 1} must hold {size} points for {self.bits_per_symbol} bits/symbol, got {c.size}")
            if not np.all(np.isfinite(c)):
                raise ConfigurationError(f"set {i + 1} contains non-finite points")
            d, _, _ = _min_pairwise(c)
            if d <= DEFAULT_DISTINCT_TOL:
                raise ConfigurationError(f"set {i + 1} has coincident points (spacing {d:g})")
            c.setflags(write=False)
            frozen.append(c)
        object.__setattr__(self, "sets", tuple(frozen))

    @property
    def nt(self) -> int:
        return len(self.sets)

    @property
    def codebook_size(self) -> int:
        return 1 << (self.nt * self.bits_per_symbol)


@dataclass(frozen=True)
class DiversityReport:
    passes: bool
    min_sum_distance: float
    witness: tuple | None  # pair of per-antenna index tuples at the minimal distance
    pairs_checked: int


@dataclass(frozen=True)
class GridSpec:
    """Search resolution: scale values b_step..1 and rotations 0..2pi - phi_step."""

    b_step: float
    phi_step: float

    def __post_init__(self):
        if not 0 < self.b_step <= 1:
            raise ConfigurationError(f"b_step must lie in (0, 1], got {self.b_step}")
        if not 0 < self.phi_step <= 2 * np.pi:
            raise ConfigurationError(f"phi_step must lie in (0, 2pi], got {self.phi_step}")
        n_b, n_phi = self._counts()
        if n_b * n_phi > _MAX_GRID_POINTS:
            raise ConfigurationError(
                f"b_step {self.b_step} and phi_step {self.phi_step} give {n_b:.3g} x {n_phi:.3g} "
                f"grid points, more than {_MAX_GRID_POINTS}")

    def _counts(self) -> tuple[float, float]:
        return np.floor(1.0 / self.b_step + 1e-9), np.floor(2 * np.pi / self.phi_step - 1e-9) + 1

    def scale_values(self) -> np.ndarray:
        return np.arange(1, int(self._counts()[0]) + 1) * self.b_step

    def rotation_values(self) -> np.ndarray:
        return np.arange(int(self._counts()[1])) * self.phi_step


@dataclass(frozen=True)
class OptimizationResult:
    """Optimized sets plus the per-set parameters and achieved metric."""

    sets: ConstellationSets
    scales: np.ndarray
    rotations: np.ndarray
    min_sum_distance: float


def qam_points(m: int) -> np.ndarray:
    """Square M-QAM with odd-integer levels, points ordered (re, im) ascending."""
    side = int(round(np.sqrt(m)))
    if m < 4 or side * side != m or side % 2 != 0:
        raise ConfigurationError(f"M must be a square QAM size (4, 16, 64, ...), got {m}")
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    u, v = np.meshgrid(levels, levels, indexing="ij")
    return (u + 1j * v).ravel()


def _pair(gen: complex) -> np.ndarray:
    return np.array([-gen, gen], dtype=complex)


def preset(nt: int, bits: int) -> ConstellationSets:
    """A shipped full-rate design for nt in {3, 4, 8, 16} and bits in {1, 2, 4}
    whose 2**(nt * bits) sums fit the enumeration budget, so the exhaustive
    checker can verify it: nine presets, 16x2, 8x4 and 16x4 excluded.

    1 bit/symbol alternates scaled real/imaginary antipodal pairs (with the
    rotated-and-scaled third set for nt = 3); 2 bits/symbol is the geometric
    4-QAM family with ratio 1/2; 4 bits/symbol scales 16-QAM by 1, 1/14, 1/28
    (and 1/56 for nt = 4). See the module notes on the unverified 4-bit entries.
    """
    if nt not in (3, 4, 8, 16) or bits not in (1, 2, 4) or 1 << (nt * bits) > ENUM_BUDGET:
        raise ConfigurationError(f"no preset for nt={nt}, bits={bits}")
    if bits == 1:
        if nt == 3:
            sets = [_pair(1.0), _pair(1j), _pair(0.675 * np.exp(1j * np.pi / 4))]
        else:
            gens = []
            for i in range(nt):
                r = 0.5 ** (i // 2)
                gens.append(r if i % 2 == 0 else r * 1j)
            sets = [_pair(g) for g in gens]
        return ConstellationSets(tuple(sets), 1)
    if bits == 2:
        return geometric_qam_family(nt, 4, 0.5)
    q16 = qam_points(16)
    scales = [1.0] + [1.0 / (14 * 2 ** (i - 1)) for i in range(1, nt)]
    return ConstellationSets(tuple(s * q16 for s in scales), 4)


def geometric_qam_family(nt: int, m: int, ratio: float) -> ConstellationSets:
    """Sets C_i = ratio**(i-1) * Q_M, whose sums tile a square QAM grid."""
    if nt < 1:
        raise ConfigurationError(f"nt must be >= 1, got {nt}")
    if not 0 < ratio < 1:
        raise ConfigurationError(f"ratio must lie in (0, 1), got {ratio}")
    q = qam_points(m)
    bits = int(round(np.log2(m)))
    return ConstellationSets(tuple(ratio ** i * q for i in range(nt)), bits)


def sum_constellation(cs: ConstellationSets, alloc=np.empty) -> np.ndarray:
    """Every codeword sum as an (N,) array, in lexicographic codeword order
    with antenna 1 most significant, enumerated left-to-right over antennas,
    in the one (N,) array that alloc(shape, dtype) gives.

    Raises EnumerationBudgetError when the codebook exceeds ENUM_BUDGET; the
    full-diversity verdicts in this package are only ever exhaustive, so an
    oversized codebook is an explicit error rather than a silent sample.
    """
    n = cs.codebook_size
    if n > ENUM_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration infeasible: codebook holds {n} sums, budget is {ENUM_BUDGET}")
    # in place: before antenna i, prefix r sits at r * step, and its sums with
    # C_i go to r * step + k * step / |C_i|, the k = 0 sum over the prefix;
    # one strided add per point, since a broadcast add buffers its operands
    out, step = alloc((n,), complex), n
    out[0] = 0.0
    for c in cs.sets:
        prefixes = out[::step]
        step //= c.size
        for k in range(c.size - 1, 0, -1):
            np.add(prefixes, c[k], out=out[k * step::c.size * step])
        prefixes += c[0]
    return out


def _stage_sums(prefix: np.ndarray, wc: np.ndarray, alloc=np.empty) -> np.ndarray:
    """The sums prefix[r] + wc[s], r-major, flat, in an array from `alloc`;
    one strided add per point, as in `sum_constellation`."""
    out = alloc((prefix.size, wc.size), complex)
    for k, w in enumerate(wc):
        np.add(prefix, w, out=out[:, k])
    return out.ravel()


@functools.cache
def _pairs(n: int) -> tuple:
    """np.triu_indices(n, 1): the index pairs i < j of n points, built once
    per n and read-only."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _min_pairwise(points: np.ndarray, alloc=np.empty) -> tuple[float, int, int]:
    """Exact minimum pairwise |difference| over finite points, and an index
    pair (i, j), i < j, attaining it; (inf, -1, -1) for fewer than two points.

    Up to _ALL_PAIRS_MAX points every pair is evaluated at once. Larger sets
    take a bucket-grid search (Khuller & Matias, Inf. Comput. 118, 1995):
    cells of side s just above the spacing d of an n-point rectangular grid
    filling the w x h bounding box, edges included, (w/d + 1)(h/d + 1) = n:
    O(n) cells even for collinear points, and a lattice's spacing certifies
    in the first pass. Each point is compared with the later points of its
    own cell and every point of the four cells ahead (two runs of the
    cell-sorted points), so every pair closer than s is evaluated once. When
    the best pair found is not certifiably closer than s, one more pass at
    side = that distance is exact. Every candidate distance is abs() of the
    complex difference, so the result is bit-identical to an exhaustive pair
    scan. On lattice-like sums a pass is linear; a dense cluster inside one
    cell costs its pairs squared. A pass takes every array it writes from
    alloc(shape, dtype).
    """
    n = points.size
    if n < 2:
        return np.inf, -1, -1
    if n <= _ALL_PAIRS_MAX:
        i, j = _pairs(n)
        d = np.abs(points[i] - points[j])
        k = int(np.argmin(d))
        return float(d[k]), int(i[k]), int(j[k])
    origin = points.real.min(), points.imag.min()
    w, h = points.real.max() - origin[0], points.imag.max() - origin[1]
    span = max(w, h)
    if not np.isfinite(span):
        raise ConfigurationError("points must be finite")
    # a computed cell coordinate is off by less than 4 n eps cells, so a pair
    # that is not evaluated is at least side / slack apart
    slack = 1.0 + 8 * n * np.finfo(float).eps
    # d in units of the longer edge, so nothing overflows; floored so that
    # identical or subnormal-spaced points still get a grid
    u, v = (w / span, h / span) if span > 0 else (0.0, 0.0)
    d = (u + v + np.sqrt((u + v) ** 2 + 4 * (n - 1) * u * v)) / (2 * (n - 1)) * span
    side = max(d * slack * slack, np.finfo(float).tiny)
    while True:
        best, i, j = _grid_closest(points, side, origin, alloc)
        if best * slack <= side:
            return best, i, j
        side = min(best, 2 * side) * slack


def _grid_closest(points: np.ndarray, side: float, origin, alloc=np.empty) -> tuple[float, int, int]:
    """Closest pair (d, i, j), i < j, among points in the same or adjacent
    cells of the `side` grid cornered at origin = (min real, min imag), or
    (inf, -1, -1) if no two points are neighbours; the scan ends early at a
    collision. Its arrays come from `alloc`, and every candidate pair is
    expanded into them, a chunk at a time."""
    n = points.size
    f, cx, cy = alloc((n,)), alloc((n,), np.intp), alloc((n,), np.intp)
    # 0, 1, 2, ...: a chunk holds at most _PAIR_CHUNK pairs or one row's,
    # fewer than n; filled to n here and to the most pairs once they are known
    ranks = alloc((max(n, _PAIR_CHUNK) + 1,), np.intp)
    rank = _arange(ranks[:n + 1])
    for part, low, cell in ((points.real, origin[0], cx), (points.imag, origin[1], cy)):
        np.floor(np.divide(np.subtract(part, low, out=f), side, out=f), out=f)
        np.copyto(cell, f, casting="unsafe")
    cy += 1
    ny = int(cy.max()) + 2  # an empty row below and above every column
    key = np.add(np.multiply(cx, ny, out=cx), cy, out=cx)
    # the words key * 2**bits + index are distinct, so sorting them in place
    # orders the points by key, ties by index; the grid has O(n) cells, so a
    # word stays far below 2**63
    bits = (n - 1).bit_length()
    word = np.bitwise_or(np.left_shift(key, bits, out=key), rank[:n], out=cy)
    word.sort()
    order = np.bitwise_and(word, (1 << bits) - 1, out=cx)
    key = np.right_shift(word, bits, out=cy)
    # clip mode writes out= in place, where raise mode copies; every index is in range
    sp = np.take(points, order, out=alloc((n,), complex), mode="clip")
    ends = alloc(((int(key[-1]) // ny + 2) * ny,), np.intp)  # points up to each cell
    ends.fill(0)
    np.add.at(ends, key, 1)
    np.cumsum(ends, out=ends)
    # candidates of the point at sorted position r, two runs in key order: the
    # rest of its own cell and the cell above, up to ends[key + 1], and the next
    # column's three cells, ends[key + ny - 2] to ends[key + ny + 1]; cum[r]
    # counts those of positions up to r
    cum, part = alloc((n,), np.intp), f.view(np.intp)
    np.take(ends[1:], key, out=cum, mode="clip")
    cum -= rank[1:n + 1]
    cum += np.take(ends[ny + 1:], key, out=part, mode="clip")
    cum -= np.take(ends[ny - 2:], key, out=part, mode="clip")
    np.cumsum(cum, out=cum)
    # chunks of rows holding about _PAIR_CHUNK pairs; a chunk scans the first
    # run of each of its rows, then the second run of each
    bounds, lo = [], 0
    while lo < n:
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _PAIR_CHUNK, side="right")))
        bounds.append((lo, hi, int(cum[hi - 1] - base)))
        lo = hi
    rows = max(hi - lo for lo, hi, _ in bounds)
    pairs = max(total for _, _, total in bounds)
    rank = _arange(ranks[:max(n, pairs) + 1], n + 1)
    count, start, shift = alloc((rows,), np.intp), alloc((rows,), np.intp), alloc((rows,), np.intp)
    a, b = alloc((pairs + 1,), np.intp), alloc((pairs,), np.intp)
    u, v, d = alloc((pairs,), complex), alloc((pairs,), complex), alloc((pairs,))
    best, bi, bj = np.inf, -1, -1
    for lo, hi, total in bounds:
        if best == 0.0:  # nothing beats a collision
            break
        if total == 0:
            continue
        w, k = hi - lo, key[lo:hi]
        for run in range(2):
            c, s, o = count[:w], start[:w], shift[:w]
            if run == 0:
                first = rank[lo + 1:hi + 1]
                np.subtract(np.take(ends[1:], k, out=c, mode="clip"), first, out=c)
            else:
                first = np.take(ends[ny - 2:], k, out=o, mode="clip")
                np.subtract(np.take(ends[ny + 1:], k, out=c, mode="clip"), first, out=c)
            t = int(np.cumsum(c, out=s)[-1])
            if t == 0:
                continue
            s -= c  # each row's first pair
            np.subtract(first, s, out=o)  # pair p of row r compares with position p + o[r]
            # row of each pair: the number of rows starting at or before it, less 1
            row = a[:t + 1]
            row.fill(0)
            np.add.at(row, s, 1)
            row = np.cumsum(row[:t], out=row[:t])
            row -= 1
            q = np.add(np.take(o, row, out=b[:t], mode="clip"), rank[:t], out=b[:t])
            row += lo
            dist = np.abs(np.subtract(np.take(sp, row, out=u[:t], mode="clip"),
                                      np.take(sp, q, out=v[:t], mode="clip"), out=u[:t]), out=d[:t])
            m = int(np.argmin(dist))
            if dist[m] < best:
                best = float(dist[m])
                bi, bj = sorted((int(order[row[m]]), int(order[q[m]])))
    return best, bi, bj


def _arange(out: np.ndarray, first: int = 0) -> np.ndarray:
    """out[i] = i for i >= first in the integer array `out`, a block at a time."""
    for lo in range(first, out.size, _RUN.size):
        np.add(_RUN[:out.size - lo], lo, out=out[lo:lo + _RUN.size])
    return out


def axis_grid(sums: np.ndarray, alloc=np.empty):
    """(x levels, y levels, (nx, ny) table of the index of each x_i + 1j y_j)
    when the sums are exactly an evenly spaced axis grid holding every level
    pair once, else None. O(N), no sort: the ny sums at the least real part
    put the y levels at rint((y - y0) / step), which must fill the axis within
    _EVEN_REL steps of even spacing, and the N / ny at the least y level the x
    levels; then every sum, _RUN.size at a time, must equal the levels it maps
    to and fill its own table position. The table and scratch come from alloc."""
    n = sums.size
    mask, table, axes, low = alloc((n,), bool), alloc((n,), np.intp), [], sums.real.min()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for part in (sums.real, sums.imag):
            m = np.count_nonzero(np.equal(part, low, out=mask))
            if m < 2 or n % m or axes and m * axes[0][0].size != n:
                return None
            edge = sums[mask]
            edge = edge.real if axes else edge.imag
            low, step = edge.min(), (edge.max() - edge.min()) / (m - 1)
            lv = np.full(m, np.nan)  # a level no edge value lands on fails the spacing test
            np.put(lv, np.rint((edge - low) * (1 / step)).astype(np.intp), edge, mode="clip")
            if not np.all(np.abs(lv - np.linspace(lv[0], lv[-1], m)) <= _EVEN_REL * step):
                return None
            axes.insert(0, (lv, low, 1 / step))
        chunk, ny = min(n, _RUN.size), axes[1][0].size
        f, ok, ix, iy = (alloc((chunk,), t) for t in (float, bool, np.intp, np.intp))
        table.fill(-1)
        for lo in range(0, n, chunk):
            part, w = sums[lo:lo + chunk], min(chunk, n - lo)
            for v, (lv, first, scale), at in zip((part.real, part.imag), axes, (ix, iy)):
                np.rint(np.multiply(np.subtract(v, first, out=f[:w]), scale, out=f[:w]), out=f[:w])
                np.copyto(at[:w], f[:w], casting="unsafe")
                if not np.equal(np.take(lv, at[:w], out=f[:w], mode="clip"), v, out=ok[:w]).all():
                    return None
            np.add(np.multiply(ix[:w], ny, out=ix[:w]), iy[:w], out=ix[:w])
            table[ix[:w]] = np.add(_RUN[:w], lo, out=iy[:w])
    # N positions and N sums: an unfilled position means two sums share one
    return None if table.min() < 0 else (axes[0][0], axes[1][0], table.reshape(-1, ny))


def _axis_closest(xs: np.ndarray, ys: np.ndarray, table: np.ndarray, alloc=np.empty):
    """`_min_pairwise`'s minimum over an `axis_grid`, under ==: the least adjacent
    level gap d, as a row pair differs by complex(gap, 0) (a column pair alike)
    and any other pair by about 2 or sqrt(2) gaps; with the smallest index pair
    (i, j), i < j, at d: i the least index at a d gap's end, j its least such neighbour."""
    d = min(np.diff(xs).min(), np.diff(ys).min())
    tx, ty = np.diff(xs) == d, np.diff(ys) == d
    rows, cols = (np.append(t, False) | np.insert(t, 0, False) for t in (tx, ty))  # at a d gap
    ends = np.logical_or(rows[:, None], cols, out=alloc(table.shape, bool))
    i = int(np.min(table, where=ends, initial=table.size))
    p, q = divmod(int(np.argmax(np.equal(table, i, out=ends))), ys.size)
    near = [table[p + s, q] for s in (-1, 1) if 0 <= p + s < xs.size and tx[p + min(s, 0)]]
    near += [table[p, q + s] for s in (-1, 1) if 0 <= q + s < ys.size and ty[q + min(s, 0)]]
    return float(d), i, int(min(near))


def _keeps_scan_bounded(fn):
    """fn, after which the thread's workspace drops every unheld buffer over
    _SCAN_KEEP bytes, so a scan of more than 65536 sums does not pin its memory."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            _SCAN.release(_SCAN_KEEP)
    return run


@_keeps_scan_bounded
def check_full_diversity(cs: ConstellationSets) -> DiversityReport:
    """Exhaustive sum-injectivity check: passes iff all codeword sums are
    pairwise farther apart than DEFAULT_DISTINCT_TOL, the rule FastMLDecoder
    and the optimizer apply, so a passing set is one the simulator decodes.

    min_sum_distance is the minimum over distinct codeword pairs of
    |sum_i dx_i| (the coding-gain metric, 0 when two codewords collide);
    the witness is a pair of per-antenna index tuples attaining it, on an
    `axis_grid` of over _ALL_PAIRS_MAX sums the smallest index pair at its
    least level gap; a smaller table costs less in the all-pairs pass.
    """
    with _SCAN.frame() as alloc:
        sums = sum_constellation(cs, alloc)
        with _SCAN.frame() as grid_alloc:  # released before a scan, which takes its usual slots
            axes = axis_grid(sums, grid_alloc) if sums.size > _ALL_PAIRS_MAX else None
            found = axes and _axis_closest(*axes, grid_alloc)
        d, i, j = found or _min_pairwise(sums, alloc)
    n = cs.codebook_size
    witness = None
    if i >= 0:
        digits = np.unravel_index([i, j], (1 << cs.bits_per_symbol,) * cs.nt)
        witness = tuple(tuple(int(v) for v in w) for w in zip(*digits))
    return DiversityReport(passes=bool(d > DEFAULT_DISTINCT_TOL), min_sum_distance=float(d),
                           witness=witness, pairs_checked=n * (n - 1) // 2)


def average_energy(cs: ConstellationSets) -> float:
    """Total mean symbol energy sum_i E|x_i|^2.

    For independent uniform zero-mean symbols this equals E|sum_i x_i|^2,
    the mean energy of the effective transmitted symbol.
    """
    return float(sum(float(np.mean(np.abs(c) ** 2)) for c in cs.sets))


@_keeps_scan_bounded
def optimize_rotations_scalings(base: ConstellationSets, grid: GridSpec,
                                power_budget: float) -> OptimizationResult:
    """Refine a base design by scaling/rotating each set, one set at a time.

    Set 1 is pinned at (b, phi) = (1, 0); a global rotation or scale changes
    nothing structurally and any overall scale is absorbed by the budget.
    For each later set i the search scans the (b, phi) grid and keeps the
    point maximizing the minimum pairwise distance of the partial sums over
    sets 1..i, subject to the accumulated energy staying within
    `power_budget` and the partial sums staying pairwise distinct (the
    stagewise intersection condition that guarantees full diversity).
    Objective values within a relative 1e-9 are treated as ties and the
    lexicographically smallest (b, phi) wins, so mathematically equivalent
    rotations resolve deterministically.

    Skipping is exact: a candidate wins only if its distance exceeds
    bar = incumbent * (1 + 1e-9) (the distinctness tolerance before any
    incumbent). A subset's closest pair is no closer than the whole stage's,
    so a subset minimum at most `bar` rules the candidate out. Stages of at
    most 64 sums score one scale's rotations in one array; a larger stage
    scores its leading 64 sums the same way (when |C_i| <= 64), then each
    candidate left on its leading 1024 sums (`_candidate_min`) and last on
    the whole stage. Scan order, ties and result therefore equal a full
    scoring of every grid point. A scale's rotations are b times phasors
    computed once per run, and its candidates are visited only where their
    leading-sum minimum clears the bar, from one record to the next.

    The result reports the achieved min_sum_distance, so coarse grids are
    honest about what they found: the last stage's winner was scored on
    exactly the final sums, and with one set, where no stage runs, it is
    set 1's own spacing. Raises InfeasibleDesignError when some stage has
    no feasible grid point.
    """
    if not 0 < power_budget < np.inf:
        raise ConfigurationError(f"power budget must be positive and finite, got {power_budget}")
    energies = [float(np.mean(np.abs(c) ** 2)) for c in base.sets]
    b_values = grid.scale_values()
    phi_values = grid.rotation_values()
    phasors = np.exp(1j * phi_values)  # b * phasors equals each b * exp(1j * phi) under ==

    scales = np.ones(base.nt)
    rotations = np.zeros(base.nt)
    prefix = np.array(base.sets[0], dtype=complex)
    spent = energies[0]
    best_val, _, _ = _min_pairwise(prefix)  # the result for nt = 1, where no stage runs
    if spent > power_budget:
        raise InfeasibleDesignError(
            f"no full-diversity point found: set 1 alone needs energy {spent:g} > budget {power_budget:g}")

    for i in range(1, base.nt):
        c = base.sets[i]
        if prefix.size * c.size > ENUM_BUDGET:
            raise EnumerationBudgetError(
                f"enumeration infeasible: stage {i + 1} would hold {prefix.size * c.size} sums")
        # the leading sums scored all pairs at once: the whole of a small stage
        lead = prefix[:_ALL_PAIRS_MAX // c.size]
        best = None
        for b in b_values:
            if spent + b * b * energies[i] > power_budget:
                break  # b ascends, so all later scales are infeasible too
            ws = b * phasors
            minima = _all_pairs_minima(lead, c, ws) if lead.size else np.full(ws.size, np.inf)
            k = 0
            while True:  # from record to record: the incumbent changes only above `bar`
                bar = DEFAULT_DISTINCT_TOL if best is None else best_val * (1 + _TIE_REL)
                for k in k + np.flatnonzero(minima[k:] > bar):
                    d = minima[k]
                    if lead.size < prefix.size:
                        d = _candidate_min(prefix, ws[k] * c, bar)
                    if d > bar:
                        best_val, best = d, (float(b), float(phi_values[k]), ws[k])
                        break
                else:
                    break
                k += 1
        if best is None:
            raise InfeasibleDesignError(
                f"no full-diversity point found for set {i + 1} within the budget")
        scales[i], rotations[i], w = best
        spent += scales[i] * scales[i] * energies[i]
        if i + 1 < base.nt:
            prefix = _stage_sums(prefix, w * c)

    # the w * c products the stages scored, summed in the same order, so the
    # last winner's distance is exactly these sets' min_sum_distance
    final = tuple(scales[i] * np.exp(1j * rotations[i]) * base.sets[i] for i in range(base.nt))
    return OptimizationResult(sets=ConstellationSets(final, base.bits_per_symbol), scales=scales,
                              rotations=rotations, min_sum_distance=best_val)


def _all_pairs_minima(prefix: np.ndarray, c: np.ndarray, ws) -> np.ndarray:
    """Exact minimum pairwise distance of the sums prefix + w c for each w in
    ws, for stages of at most _ALL_PAIRS_MAX sums: _min_pairwise's all-pairs
    rule over one more axis, equal to it under ==, in chunks of rotations
    holding about _PAIR_CHUNK pairs."""
    ws = np.asarray(ws)
    n = prefix.size * c.size
    i, j = _pairs(n)
    rows = max(1, min(ws.size, _PAIR_CHUNK // i.size))
    out = np.empty(ws.size)
    with _SCAN.frame() as alloc:
        wc, pts = alloc((rows, c.size), complex), alloc((rows, prefix.size, c.size), complex)
        pi, pj, d = alloc((rows, i.size), complex), alloc((rows, i.size), complex), alloc((rows, i.size))
        for lo in range(0, ws.size, rows):
            m = min(rows, ws.size - lo)
            np.multiply(ws[lo:lo + m, None], c[None, :], out=wc[:m])
            np.add(prefix[None, :, None], wc[:m, None, :], out=pts[:m])
            flat = pts[:m].reshape(m, n)
            np.take(flat, i, axis=1, out=pi[:m], mode="clip")
            np.subtract(pi[:m], np.take(flat, j, axis=1, out=pj[:m], mode="clip"), out=pi[:m])
            np.min(np.abs(pi[:m], out=d[:m]), axis=1, out=out[lo:lo + m])
    return out


def _candidate_min(prefix: np.ndarray, wc: np.ndarray, bar: float) -> float:
    """Minimum pairwise distance of the sums prefix + wc, in lexicographic
    order: exact above `bar`, else some value <= bar. A large stage first
    scores its leading _SUBSET_SUMS sums: a subset is never closer-spaced
    than the whole, so a subset minimum at most `bar` settles the candidate.
    Its leading 64 sums are bit for bit those `_all_pairs_minima` formed."""
    if prefix.size * wc.size > _SUBSET_SUMS:
        d = _scored(prefix[:max(1, _SUBSET_SUMS // wc.size)], wc)
        if d <= bar:
            return d
    return _scored(prefix, wc)


def _scored(prefix: np.ndarray, wc: np.ndarray) -> float:
    """Minimum pairwise distance of the sums prefix + wc, formed and scanned
    in one frame of the thread's workspace, so every scan takes the same slots."""
    with _SCAN.frame() as alloc:
        return _min_pairwise(_stage_sums(prefix, wc, alloc), alloc)[0]


def save_constellation(cs: ConstellationSets, path) -> None:
    """Write the plain-text `nt bits` / `i re im` format (17 significant digits)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{cs.nt} {cs.bits_per_symbol}\n")
        for i, c in enumerate(cs.sets, start=1):
            for p in c:
                f.write(f"{i} {p.real:.17g} {p.imag:.17g}\n")


def load_constellation(path) -> ConstellationSets:
    """Read the plain-text constellation format written by save_constellation."""
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = [ln for ln in map(str.strip, f) if ln and not ln.startswith("#")]
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"constellation file {path} is not ASCII text: {e}") from None
    if not lines:
        raise ConfigurationError(f"constellation file {path} is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ConfigurationError(f"constellation file {path}: header must be 'nt bits'")
    try:
        nt, bits = int(head[0]), int(head[1])
    except ValueError as e:
        raise ConfigurationError(f"constellation file {path}: bad header {lines[0]!r}") from e
    if nt < 1 or bits < 1:
        raise ConfigurationError(f"constellation file {path}: invalid header values nt={nt} bits={bits}")
    if nt << min(bits, 64) != len(lines) - 1:  # also bounds nt and bits by the file's length
        raise ConfigurationError(
            f"constellation file {path}: header needs {nt} x 2^{bits} point lines, got {len(lines) - 1}")
    points = [[] for _ in range(nt)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ConfigurationError(f"constellation file {path}: bad point line {ln!r}")
        try:
            i = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError as e:
            raise ConfigurationError(f"constellation file {path}: bad point line {ln!r}") from e
        if not 1 <= i <= nt:
            raise ConfigurationError(f"constellation file {path}: antenna index {i} out of range 1..{nt}")
        points[i - 1].append(complex(re, im))
    expected = 1 << bits
    for i, pts in enumerate(points, start=1):
        if len(pts) != expected:
            raise ConfigurationError(
                f"constellation file {path}: antenna {i} has {len(pts)} points, expected {expected}")
    return ConstellationSets(tuple(np.array(p, dtype=complex) for p in points), bits)
