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

Constellation file format (used by the CLI): a header line ``nt bits``
followed by one line per point, ``i re im`` with 1-based antenna index i and
decimals printed at 17 significant digits for a lossless round trip.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError, InfeasibleDesignError

DEFAULT_ENUM_BUDGET = 1 << 20
DEFAULT_DISTINCT_TOL = 1e-12
_MAX_GRID_POINTS = 1 << 16

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
            if c.size > 1:
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
        size = 1
        for c in self.sets:
            size *= c.size
        return size


@dataclass(frozen=True)
class SumConstellation:
    """All codeword sums in lexicographic order, antenna 1 most significant."""

    points: np.ndarray
    index_map: np.ndarray  # (N, nt) per-antenna point indices
    set_sizes: tuple

    @property
    def size(self) -> int:
        return self.points.size


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
    if nt not in (3, 4, 8, 16) or bits not in (1, 2, 4) or 1 << (nt * bits) > DEFAULT_ENUM_BUDGET:
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


def sum_constellation(cs: ConstellationSets, budget: int = DEFAULT_ENUM_BUDGET) -> SumConstellation:
    """Enumerate every codeword sum, left-to-right over antennas.

    Raises EnumerationBudgetError when the codebook exceeds `budget`; the
    full-diversity verdicts in this package are only ever exhaustive, so an
    oversized codebook is an explicit error rather than a silent sample.
    """
    n = cs.codebook_size
    if n > budget:
        raise EnumerationBudgetError(
            f"enumeration infeasible: codebook holds {n} sums, budget is {budget}")
    points = np.zeros(1, dtype=complex)
    for c in cs.sets:
        points = (points[:, None] + c[None, :]).ravel()
    sizes = tuple(int(c.size) for c in cs.sets)
    index_map = np.empty((n, cs.nt), dtype=np.int64)
    stride = n
    for i, s in enumerate(sizes):
        stride //= s
        index_map[:, i] = (np.arange(n) // stride) % s
    return SumConstellation(points=points, index_map=index_map, set_sizes=sizes)


def _min_pairwise(points: np.ndarray) -> tuple[float, int, int]:
    """Exact minimum pairwise |difference| via a sort-based window scan.

    Sorts lexicographically by (re, im) and widens the comparison offset
    until the smallest real-axis gap at the current offset already exceeds
    the best distance, at which point no farther pair can improve on it.
    Every candidate distance is evaluated as abs() of the complex difference,
    so the result is bit-identical to an exhaustive pair scan.
    """
    n = points.size
    if n < 2:
        return np.inf, -1, -1
    order = np.argsort(points)
    sp = points[order]
    re = sp.real
    best = np.inf
    bi = bj = -1
    for off in range(1, n):
        gaps = re[off:] - re[:-off]
        if gaps.min() >= best:
            break
        d = np.abs(sp[off:] - sp[:-off])
        k = int(np.argmin(d))
        if d[k] < best:
            best = float(d[k])
            bi, bj = int(order[k]), int(order[k + off])
    return best, bi, bj


def _check_tol(tol: float) -> None:
    if not 0 <= tol < np.inf:
        raise ConfigurationError(f"tol must lie in [0, inf), got {tol}")


def check_full_diversity(cs: ConstellationSets, tol: float = DEFAULT_DISTINCT_TOL,
                         budget: int = DEFAULT_ENUM_BUDGET) -> DiversityReport:
    """Exhaustive sum-injectivity check: passes iff all codeword sums are
    pairwise farther apart than `tol`.

    min_sum_distance is the minimum over distinct codeword pairs of
    |sum_i dx_i| (0 when two codewords collide); the witness is a pair of
    per-antenna index tuples attaining it.
    """
    _check_tol(tol)
    sc = sum_constellation(cs, budget=budget)
    d, i, j = _min_pairwise(sc.points)
    n = sc.size
    witness = None
    if i >= 0:
        witness = (tuple(int(v) for v in sc.index_map[i]),
                   tuple(int(v) for v in sc.index_map[j]))
    return DiversityReport(passes=bool(d > tol), min_sum_distance=float(d),
                           witness=witness, pairs_checked=n * (n - 1) // 2)


def min_sum_distance(cs: ConstellationSets, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Minimum |sum_i dx_i| over distinct codeword pairs (the coding-gain metric)."""
    sc = sum_constellation(cs, budget=budget)
    d, _, _ = _min_pairwise(sc.points)
    return float(d)


def average_energy(cs: ConstellationSets) -> float:
    """Total mean symbol energy sum_i E|x_i|^2.

    For independent uniform zero-mean symbols this equals E|sum_i x_i|^2,
    the mean energy of the effective transmitted symbol.
    """
    return float(sum(float(np.mean(np.abs(c) ** 2)) for c in cs.sets))


def optimize_rotations_scalings(base: ConstellationSets, grid: GridSpec, power_budget: float,
                                tol: float = DEFAULT_DISTINCT_TOL,
                                budget: int = DEFAULT_ENUM_BUDGET) -> OptimizationResult:
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

    The result reports the achieved min_sum_distance, so coarse grids are
    honest about what they found. Raises InfeasibleDesignError when some
    stage has no feasible grid point.
    """
    if not 0 < power_budget < np.inf:
        raise ConfigurationError(f"power budget must be positive and finite, got {power_budget}")
    _check_tol(tol)
    energies = [float(np.mean(np.abs(c) ** 2)) for c in base.sets]
    b_values = grid.scale_values()
    phi_values = grid.rotation_values()

    scales = np.ones(base.nt)
    rotations = np.zeros(base.nt)
    prefix = np.array(base.sets[0], dtype=complex)
    spent = energies[0]
    if spent > power_budget:
        raise InfeasibleDesignError(
            f"no full-diversity point found: set 1 alone needs energy {spent:g} > budget {power_budget:g}")

    for i in range(1, base.nt):
        if prefix.size * base.sets[i].size > budget:
            raise EnumerationBudgetError(
                f"enumeration infeasible: stage {i + 1} would hold {prefix.size * base.sets[i].size} sums")
        best_val = None
        best = None
        for b in b_values:
            if spent + b * b * energies[i] > power_budget:
                break  # b ascends, so all later scales are infeasible too
            for phi in phi_values:
                w = b * np.exp(1j * phi)
                pts = (prefix[:, None] + w * base.sets[i][None, :]).ravel()
                d, _, _ = _min_pairwise(pts)
                if d <= tol:
                    continue
                if best_val is None or d > best_val * (1 + _TIE_REL):
                    best_val, best = d, (float(b), float(phi), pts)
        if best is None:
            raise InfeasibleDesignError(
                f"no full-diversity point found for set {i + 1} within the budget")
        scales[i], rotations[i], prefix = best
        spent += scales[i] * scales[i] * energies[i]

    final = tuple(scales[i] * np.exp(1j * rotations[i]) * base.sets[i] for i in range(base.nt))
    result_sets = ConstellationSets(final, base.bits_per_symbol)
    return OptimizationResult(sets=result_sets, scales=scales, rotations=rotations,
                              min_sum_distance=min_sum_distance(result_sets, budget=budget))


def save_constellation(cs: ConstellationSets, path) -> None:
    """Write the plain-text `nt bits` / `i re im` format (17 significant digits)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{cs.nt} {cs.bits_per_symbol}\n")
        for i, c in enumerate(cs.sets, start=1):
            for p in c:
                f.write(f"{i} {p.real:.17g} {p.imag:.17g}\n")


def load_constellation(path) -> ConstellationSets:
    """Read the plain-text constellation format written by save_constellation."""
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
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
