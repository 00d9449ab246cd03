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
65536-sum check costs a few linear passes rather than a sort-and-widen scan
over hundreds of offsets. Its minimum equals an exhaustive pair scan's bit
for bit. The optimizer first scores a leading subset of a large stage's
sums; a subset spaced no wider than the incumbent settles the candidate,
and the design found is still the one exhaustive scoring picks.

Constellation file format (used by the CLI): a header line ``nt bits``
followed by one line per point, ``i re im`` with 1-based antenna index i and
decimals printed at 17 significant digits for a lossless round trip.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError, InfeasibleDesignError

ENUM_BUDGET = 1 << 20
DEFAULT_DISTINCT_TOL = 1e-12
_MAX_GRID_POINTS = 1 << 16

# closest-pair search: point counts up to which every pair is evaluated at
# once, and the candidate pairs evaluated together, bounding temporaries
_ALL_PAIRS_MAX = 64
_PAIR_CHUNK = 1 << 15
# optimizer stages above this many sums score the leading ones first
_SUBSET_SUMS = 1 << 10

# 4-bit presets fail sum-injectivity under the odd-integer QAM convention
UNVERIFIED_PRESETS = {(3, 4), (4, 4)}

# relative spread below which grid-search objectives count as tied; mathematically
# equal symmetric designs differ by ulps and must not defeat the lexicographic rule
_TIE_REL = 1e-9


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


def sum_constellation(cs: ConstellationSets) -> np.ndarray:
    """Every codeword sum as an (N,) array, in lexicographic codeword order
    with antenna 1 most significant, enumerated left-to-right over antennas.

    Raises EnumerationBudgetError when the codebook exceeds ENUM_BUDGET; the
    full-diversity verdicts in this package are only ever exhaustive, so an
    oversized codebook is an explicit error rather than a silent sample.
    """
    n = cs.codebook_size
    if n > ENUM_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration infeasible: codebook holds {n} sums, budget is {ENUM_BUDGET}")
    sums = np.zeros(1, dtype=complex)
    for c in cs.sets:
        sums = (sums[:, None] + c[None, :]).ravel()
    return sums


def _min_pairwise(points: np.ndarray) -> tuple[float, int, int]:
    """Exact minimum pairwise |difference| over finite points, and an index
    pair (i, j), i < j, attaining it; (inf, -1, -1) for fewer than two points.

    Up to _ALL_PAIRS_MAX points every pair is evaluated at once. Larger sets
    take a bucket-grid search (Khuller & Matias, Inf. Comput. 118, 1995):
    cells of side s = max(sqrt(w h / n), max(w, h) / n) for a w x h bounding
    box, so O(n) cells even for collinear points. Each point is compared
    with the later points of its own cell and every point of the four cells
    ahead (two runs of the cell-sorted points), so every pair closer than s
    is evaluated once. When the best pair found is not certifiably closer
    than s, one more pass at side = that distance is exact. Every candidate
    distance is abs() of the complex difference, so the result is
    bit-identical to an exhaustive pair scan. On lattice-like sums a pass is
    linear; a dense cluster inside one cell costs its pairs squared.
    """
    n = points.size
    if n < 2:
        return np.inf, -1, -1
    if n <= _ALL_PAIRS_MAX:
        i, j = np.triu_indices(n, 1)
        d = np.abs(points[i] - points[j])
        k = int(np.argmin(d))
        return float(d[k]), int(i[k]), int(j[k])
    w, h = np.ptp(points.real), np.ptp(points.imag)
    # floored so that identical or subnormal-spaced points still get a grid
    side = max(np.sqrt(w) * np.sqrt(h / n), max(w, h) / n, np.finfo(float).tiny)
    if not np.isfinite(side):
        raise ConfigurationError("points must be finite")
    # a computed cell coordinate is off by less than 4 n eps cells, so a pair
    # that is not evaluated is at least side / slack apart
    slack = 1.0 + 8 * n * np.finfo(float).eps
    while True:
        best, i, j = _grid_closest(points, side)
        if best * slack <= side:
            return best, i, j
        side = min(best, 2 * side) * slack


def _grid_closest(points: np.ndarray, side: float) -> tuple[float, int, int]:
    """Closest pair (d, i, j), i < j, among points in the same or adjacent
    grid cells of `side`, or (inf, -1, -1) if no two points are neighbours;
    the scan ends early at a collision."""
    n = points.size
    cx = np.floor((points.real - points.real.min()) / side).astype(np.intp)
    key = np.floor((points.imag - points.imag.min()) / side).astype(np.intp) + 1
    ny = int(key.max()) + 2  # an empty row below and above every column
    key += cx * ny
    order = np.argsort(key, kind="stable")
    sp, key = points[order], key[order]
    ends = np.cumsum(np.bincount(key, minlength=(int(cx[order[-1]]) + 2) * ny))
    del cx
    # candidates of the point at sorted position r, two runs in key order: the
    # rest of its own cell and the cell above, up to ends[key + 1], and the next
    # column's three cells, ends[key + ny - 2] to ends[key + ny + 1]; each
    # chunk of rows holds about _PAIR_CHUNK pairs
    cum = ends[key + 1] - np.arange(1, n + 1)
    cum += ends[key + ny + 1]
    cum -= ends[key + ny - 2]
    np.cumsum(cum, out=cum)
    best, bi, bj = np.inf, -1, -1
    lo = 0
    while lo < n and best > 0.0:  # nothing beats a collision
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _PAIR_CHUNK, side="right")))
        r = np.arange(lo, hi)
        k = key[lo:hi]
        first = np.concatenate([r + 1, ends[k + ny - 2]])
        count = np.concatenate([ends[k + 1] - r - 1, ends[k + ny + 1] - ends[k + ny - 2]])
        total = int(cum[hi - 1] - base)
        lo = hi
        if total == 0:
            continue
        a = np.repeat(np.tile(r, 2), count)
        b = np.arange(total) + np.repeat(first - (np.cumsum(count) - count), count)
        d = np.abs(sp[a] - sp[b])
        m = int(np.argmin(d))
        if d[m] < best:
            best = float(d[m])
            bi, bj = sorted((int(order[a[m]]), int(order[b[m]])))
    return best, bi, bj


def check_full_diversity(cs: ConstellationSets) -> DiversityReport:
    """Exhaustive sum-injectivity check: passes iff all codeword sums are
    pairwise farther apart than DEFAULT_DISTINCT_TOL, the rule FastMLDecoder
    and the optimizer apply, so a passing set is one the simulator decodes.

    min_sum_distance is the minimum over distinct codeword pairs of
    |sum_i dx_i| (the coding-gain metric, 0 when two codewords collide);
    the witness is a pair of per-antenna index tuples attaining it.
    """
    d, i, j = _min_pairwise(sum_constellation(cs))
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
    incumbent). A stage of more than 1024 sums first scores its leading
    1024, a subset whose closest pair is no closer than the whole stage's,
    so a subset minimum at most `bar` rules the candidate out; any other
    candidate is scored exactly on the whole stage. Scan order, ties and
    result therefore equal a full scoring of every grid point. Stages of at
    most 64 sums score one scale's rotations in one array.

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
        small = prefix.size * c.size <= _ALL_PAIRS_MAX
        best = None
        for b in b_values:
            if spent + b * b * energies[i] > power_budget:
                break  # b ascends, so all later scales are infeasible too
            ws = [b * np.exp(1j * phi) for phi in phi_values]
            minima = iter(_all_pairs_minima(prefix, c, ws)) if small else None
            for phi, w in zip(phi_values, ws):
                # the incumbent changes only above `bar`
                bar = DEFAULT_DISTINCT_TOL if best is None else best_val * (1 + _TIE_REL)
                d = next(minima) if small else _candidate_min(prefix, w * c, bar)
                if d > bar:
                    best_val, best = d, (float(b), float(phi), w)
        if best is None:
            raise InfeasibleDesignError(
                f"no full-diversity point found for set {i + 1} within the budget")
        scales[i], rotations[i], w = best
        prefix = (prefix[:, None] + w * c[None, :]).ravel()
        spent += scales[i] * scales[i] * energies[i]

    # the w * c products the stages scored, summed in the same order, so the
    # last winner's distance is exactly these sets' min_sum_distance
    final = tuple(scales[i] * np.exp(1j * rotations[i]) * base.sets[i] for i in range(base.nt))
    return OptimizationResult(sets=ConstellationSets(final, base.bits_per_symbol), scales=scales,
                              rotations=rotations, min_sum_distance=best_val)


def _all_pairs_minima(prefix: np.ndarray, c: np.ndarray, ws: list) -> np.ndarray:
    """Exact minimum pairwise distance of the sums prefix + w c for each w in
    ws, for stages of at most _ALL_PAIRS_MAX sums: _min_pairwise's all-pairs
    rule over one more axis, equal to it under ==, in chunks of rotations
    holding about _PAIR_CHUNK pairs."""
    n = prefix.size * c.size
    i, j = np.triu_indices(n, 1)
    rows = max(1, _PAIR_CHUNK // i.size)
    out = []
    for lo in range(0, len(ws), rows):
        wc = np.array(ws[lo:lo + rows])[:, None] * c[None, :]
        pts = (prefix[None, :, None] + wc[:, None, :]).reshape(wc.shape[0], n)
        out.append(np.abs(pts[:, i] - pts[:, j]).min(axis=1))
    return np.concatenate(out)


def _candidate_min(prefix: np.ndarray, wc: np.ndarray, bar: float) -> float:
    """Minimum pairwise distance of the sums prefix + wc, in lexicographic
    order: exact above `bar`, else some value <= bar. A large stage first
    scores its leading _SUBSET_SUMS sums: a subset is never closer-spaced
    than the whole, so a subset minimum at most `bar` settles the candidate."""
    if prefix.size * wc.size > _SUBSET_SUMS:
        rows = max(1, _SUBSET_SUMS // wc.size)
        d, _, _ = _min_pairwise((prefix[:rows, None] + wc[None, :]).ravel())
        if d <= bar:
            return d
    d, _, _ = _min_pairwise((prefix[:, None] + wc[None, :]).ravel())
    return d


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
