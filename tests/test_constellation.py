import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprecode import constellation
from fdprecode.constellation import (
    _ALL_PAIRS_MAX,
    DEFAULT_DISTINCT_TOL,
    UNVERIFIED_PRESETS,
    ConstellationSets,
    GridSpec,
    average_energy,
    check_full_diversity,
    geometric_qam_family,
    load_constellation,
    optimize_rotations_scalings,
    preset,
    qam_points,
    save_constellation,
    sum_constellation,
    _min_pairwise,
)
from fdprecode.errors import ConfigurationError, EnumerationBudgetError, InfeasibleDesignError
from fdprecode.workspace import Workspace

from oracles import axis_table, sorted_axis_grid


def brute_min_pairwise(points):
    """O(N^2) oracle for the minimum pairwise distance, 256 rows at a time."""
    best = np.inf
    for lo in range(0, points.size, 256):
        d = np.abs(points[lo:lo + 256, None] - points[None, :])
        d[np.arange(d.shape[0]), np.arange(lo, lo + d.shape[0])] = np.inf  # i == j
        best = min(best, float(d.min()))
    return best


def brute_diversity_verdict(cs, tol):
    """Pair-exhaustive sum-difference check straight over codeword tuples."""
    codewords = list(itertools.product(*[range(c.size) for c in cs.sets]))
    for a, b in itertools.combinations(codewords, 2):
        diff = sum(cs.sets[i][a[i]] - cs.sets[i][b[i]] for i in range(cs.nt))
        if abs(diff) <= tol:
            return False
    return True


# ---------------------------------------------------------------- QAM basics

def test_qam_points_q4():
    assert set(qam_points(4)) == {-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j}


def test_qam_points_q16_levels():
    q = qam_points(16)
    assert q.size == 16
    assert set(np.unique(q.real)) == {-3.0, -1.0, 1.0, 3.0}
    assert set(np.unique(q.imag)) == {-3.0, -1.0, 1.0, 3.0}


@pytest.mark.parametrize("bad", [2, 8, 9, 12, 25])
def test_qam_points_rejects_non_square(bad):
    with pytest.raises(ConfigurationError):
        qam_points(bad)


# ------------------------------------------------------------------- presets

def test_preset_3_1_sets():
    cs = preset(3, 1)
    p = 0.675 * np.exp(1j * np.pi / 4)
    assert set(cs.sets[0]) == {-1.0 + 0j, 1.0 + 0j}
    assert set(cs.sets[1]) == {-1j, 1j}
    assert np.allclose(sorted(cs.sets[2], key=lambda z: z.real), [-p, p], atol=1e-15)


def test_preset_4_2_is_geometric_halving():
    cs = preset(4, 2)
    q4 = qam_points(4)
    for i in range(4):
        assert np.array_equal(cs.sets[i], 0.5 ** i * q4)


def test_preset_3_4_scalings():
    cs = preset(3, 4)
    q16 = qam_points(16)
    assert np.array_equal(cs.sets[0], q16)
    assert np.array_equal(cs.sets[1], q16 / 14)
    assert np.array_equal(cs.sets[2], q16 / 28)


def test_preset_16_tail_scalings():
    one_bit = preset(16, 1)
    assert np.allclose(sorted(np.abs(c[0]) for c in one_bit.sets)[:2], [1 / 128, 1 / 128])


def test_preset_rejects_unknown_combo():
    # 16x2, 8x4 and 16x4 have more sums than the checker can enumerate
    for nt, bits in [(2, 1), (3, 3), (5, 2), (16, 8), (16, 2), (8, 4), (16, 4)]:
        with pytest.raises(ConfigurationError):
            preset(nt, bits)


def test_unverified_flags():
    assert UNVERIFIED_PRESETS == {(3, 4), (4, 4)}


# ------------------------------------------------------------------ energies

def test_average_energy_values():
    assert average_energy(ConstellationSets((np.array([-1.0, 1.0]),), 1)) == 1.0
    assert average_energy(preset(3, 1)) == pytest.approx(2.455625, rel=1e-12)
    assert average_energy(preset(4, 2)) == pytest.approx(2.65625, rel=1e-12)


def test_average_energy_matches_monte_carlo():
    cs = preset(4, 1)
    rng = np.random.default_rng([404, 0, 0])
    idx = rng.integers(0, 2, size=(100000, 4))
    sums = sum(cs.sets[i][idx[:, i]] for i in range(4))
    assert np.mean(np.abs(sums) ** 2) == pytest.approx(average_energy(cs), rel=0.02)


# ----------------------------------------------------------- sum enumeration

def test_sum_constellation_single_set():
    sc = sum_constellation(ConstellationSets((np.array([-1.0, 1.0]),), 1))
    assert np.array_equal(sc, [-1.0, 1.0])


def test_sum_constellation_matches_direct_enumeration():
    cs = preset(3, 1)
    sc = sum_constellation(cs)
    assert sc.size == 8
    direct = np.array([cs.sets[0][a] + cs.sets[1][b] + cs.sets[2][c]
                       for a in range(2) for b in range(2) for c in range(2)])
    assert np.array_equal(sc, direct)
    # real/imaginary parts follow the +-1 +- 0.4773 pattern
    mag = 0.675 * np.cos(np.pi / 4)
    assert np.allclose(np.unique(np.round(np.abs(sc.real), 6)),
                       np.round([1 - mag, 1 + mag], 6))


def test_sum_constellation_order_matches_product():
    # codeword k is the k-th tuple of the product over sets, antenna 1 most significant
    cs = preset(3, 2)
    sc = sum_constellation(cs)
    assert sc.shape == (64,)
    recomputed = np.array([sum(x) for x in itertools.product(*cs.sets)])
    assert np.array_equal(sc, recomputed)


def test_sum_constellation_budget_exceeded():
    with pytest.raises(EnumerationBudgetError, match="enumeration infeasible"):
        sum_constellation(geometric_qam_family(16, 4, 0.5))


# ------------------------------------------------------------ diversity check

def test_check_full_diversity_preset_3_1():
    report = check_full_diversity(preset(3, 1))
    assert report.passes
    assert report.min_sum_distance == pytest.approx(1.35, rel=1e-12)
    assert report.pairs_checked == 28
    a, b = report.witness
    # the witness pair differs only in the third (smallest) set
    assert a[:2] == b[:2] and a[2] != b[2]


def test_check_full_diversity_detects_cancellation():
    cs = ConstellationSets((np.array([-1.0, 1.0]), np.array([-1.0, 1.0])), 1)
    report = check_full_diversity(cs)
    assert not report.passes
    assert report.min_sum_distance == 0.0
    a, b = report.witness
    dx = [cs.sets[i][a[i]] - cs.sets[i][b[i]] for i in range(2)]
    assert sorted(np.real(dx)) == [-2.0, 2.0]


def test_check_full_diversity_4bit_preset_fails_with_witness():
    # under odd-integer Q16 levels the 1/14, 1/28 scalings collide:
    # 1/14 + 3/28 equals 3/14 - 1/28 exactly
    assert (1 / 14 + 3 / 28) == (3 / 14 - 1 / 28)
    cs = preset(3, 4)
    report = check_full_diversity(cs)
    assert not report.passes
    a, b = report.witness
    sum_a = sum(cs.sets[i][a[i]] for i in range(3))
    sum_b = sum(cs.sets[i][b[i]] for i in range(3))
    assert abs(sum_a - sum_b) <= 1e-12
    assert a != b


def test_min_sum_distance_values():
    assert check_full_diversity(ConstellationSets((qam_points(4),), 2)).min_sum_distance == 2.0
    assert check_full_diversity(preset(3, 1)).min_sum_distance == pytest.approx(1.35, rel=1e-12)
    assert check_full_diversity(preset(4, 2)).min_sum_distance == pytest.approx(0.25, rel=1e-12)


def test_min_sum_distance_matches_bruteforce():
    for nt, bits in [(3, 1), (3, 2), (4, 1), (4, 2), (8, 1)]:
        cs = preset(nt, bits)
        report = check_full_diversity(cs)
        assert report.min_sum_distance == brute_min_pairwise(sum_constellation(cs))


# ------------------------------------------------------------- closest pair

def assert_closest_pair_exact(points):
    d, i, j = _min_pairwise(points)
    assert d == brute_min_pairwise(points)
    assert 0 <= i < j < points.size
    # numpy's complex abs, which can differ from Python's abs() by an ulp
    assert np.abs(points[i] - points[j]) == d


def _lattice(side, rows=None):
    u, v = np.meshgrid(np.arange(side), np.arange(side if rows is None else rows), indexing="ij")
    return (u + 1j * v).ravel().astype(complex)


def test_closest_pair_duplicates_and_near_duplicates():
    points = _lattice(12)
    assert_closest_pair_exact(np.concatenate([points, points[[5, 77, 140]]]))
    near = points.copy()
    near[100] = near[99] + 1e-13
    assert_closest_pair_exact(near)
    assert _min_pairwise(np.full(100, 2 - 1j)) == (0.0, 0, 1)


def test_closest_pair_collinear():
    rng = np.random.default_rng(1)
    assert_closest_pair_exact(rng.normal(size=300) + 0j)  # zero-height box
    assert_closest_pair_exact(1j * rng.normal(size=300))  # zero-width box
    assert_closest_pair_exact(np.exp(0.7j) * rng.normal(size=300))


def test_closest_pair_tight_cluster_beside_wide_spread():
    rng = np.random.default_rng(2)
    cluster = 5.0 + 1e-9 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    spread = 1e3 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    assert_closest_pair_exact(np.concatenate([cluster, spread]))


def test_closest_pair_rotated_and_wide_lattices():
    assert_closest_pair_exact(np.exp(0.3j) * _lattice(16))
    assert_closest_pair_exact(1e6 / 15 * _lattice(16) + (3e6 - 2e6j))


def _counting_grid_passes(monkeypatch):
    passes = []
    grid_closest = constellation._grid_closest

    def counted(points, side, origin, alloc=np.empty):
        passes.append(side)
        return grid_closest(points, side, origin, alloc)

    monkeypatch.setattr(constellation, "_grid_closest", counted)
    return passes


@pytest.mark.parametrize("points, expected", [
    (lambda: sum_constellation(preset(16, 1)), (0.015625, 0, 1)),
    (lambda: sum_constellation(preset(8, 2)), (0.015625, 0, 1)),
    (lambda: sum_constellation(preset(4, 2)), (0.25, 0, 1)),
    (lambda: _lattice(16, 4096), (1.0, 0, 1)),
    (lambda: 0.37 * np.arange(5000) + 0j, (0.36999999999989086, 1386, 1387)),
], ids=["16x1", "8x2", "4x2", "16x4096", "collinear"])
def test_closest_pair_certifies_lattices_in_one_grid_pass(monkeypatch, points, expected):
    # the first cell side sits just above the spacing of a lattice filling
    # its bounding box, so the spacing found is certified without re-gridding
    points = points()
    passes = _counting_grid_passes(monkeypatch)
    assert _min_pairwise(points) == expected
    assert len(passes) == 1
    if points.size <= 5000:
        assert_closest_pair_exact(points)


def test_closest_pair_spanning_near_the_float_maximum(monkeypatch):
    rng = np.random.default_rng(3)
    for scale in (1e300, 7e307):
        plane = scale * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300))
        assert_closest_pair_exact(plane)
        assert_closest_pair_exact(plane.real + 0j)
        assert_closest_pair_exact(np.concatenate([plane[:200], [-scale, scale]]))
    passes = _counting_grid_passes(monkeypatch)
    assert_closest_pair_exact(1e300 / 4999 * np.arange(-4999, 5000, 2) + 0j)
    assert len(passes) == 1


@pytest.mark.parametrize("n", [_ALL_PAIRS_MAX, _ALL_PAIRS_MAX + 1])
def test_closest_pair_at_the_all_pairs_cutoff(n):
    rng = np.random.default_rng(n)
    assert_closest_pair_exact(rng.normal(size=n) + 1j * rng.normal(size=n))
    assert_closest_pair_exact(_lattice(9)[:n])


def test_closest_pair_memory_is_bounded():
    # the 16x1 lattice and the 4x4 preset's colliding sums, 65536 points each;
    # a fresh workspace's first growth counts against the bound too
    for nt, bits in [(16, 1), (4, 4)]:
        sums = sum_constellation(preset(nt, bits))
        for alloc in (np.empty, Workspace().take):
            tracemalloc.start()
            try:
                _min_pairwise(sums, alloc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8e6


POINT_LISTS = st.one_of(
    st.lists(st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False),
             min_size=2, max_size=300),
    st.lists(st.builds(complex, st.integers(-8, 8), st.integers(-8, 8)),
             min_size=2, max_size=300))


@settings(max_examples=100, deadline=None)
@given(POINT_LISTS)
def test_closest_pair_matches_all_pairs(points):
    assert_closest_pair_exact(np.array(points, dtype=complex))


# --------------------------------------------------------------- axis grids

AXIS_GRID_PRESETS = [(4, 1), (8, 1), (16, 1), (3, 2), (4, 2), (8, 2)]


def _recording_axis_grid(monkeypatch):
    """The list of every `axis_grid` result the checker gets from here on."""
    found, recognize = [], constellation.axis_grid
    monkeypatch.setattr(constellation, "axis_grid",
                        lambda sums, alloc=np.empty: found.append(recognize(sums, alloc)) or found[-1])
    return found


def _check_table(sums):
    """check_full_diversity on the given table of 2**k sums, through a 1-bit
    codebook of that size: (report, witness indices, whether the axis path
    answered, grid passes)."""
    cs = ConstellationSets((np.array([-1.0, 1.0]),) * (sums.size.bit_length() - 1), 1)

    def given_sums(_, alloc=np.empty):
        out = alloc(sums.shape, complex)
        out[...] = sums
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constellation, "sum_constellation", given_sums)
        found, passes = _recording_axis_grid(mp), _counting_grid_passes(mp)
        report = check_full_diversity(cs)
    witness = [int(np.ravel_multi_index(w, (2,) * cs.nt)) for w in report.witness]
    return report, witness, any(f is not None for f in found), len(passes)


def _first_closest_pair(sums):
    """The least distance over all pairs, by numpy's complex abs, and the
    lexicographically smallest pair (i, j), i < j, at it."""
    dist = np.abs(sums[:, None] - sums[None, :])
    dist[np.tril_indices(sums.size)] = np.inf
    d = dist.min()
    i, j = np.argwhere(dist == d)[0]
    return d, int(i), int(j)


def assert_axis_check_exact(sums):
    # the checker answers an axis grid without a grid pass, with the least
    # distance of every pair under == and the smallest pair at it
    report, (i, j), axis, passes = _check_table(sums)
    d = _min_pairwise(sums)[0]
    assert axis and passes == 0
    assert report.min_sum_distance == d == brute_min_pairwise(sums)
    assert report.passes == (d > DEFAULT_DISTINCT_TOL)
    assert (d, i, j) == _first_closest_pair(sums)


@pytest.mark.parametrize("nt, bits", AXIS_GRID_PRESETS)
def test_axis_grid_presets_check_as_the_scan_does(monkeypatch, nt, bits):
    cs = preset(nt, bits)
    sums = sum_constellation(cs)
    found, passes = _recording_axis_grid(monkeypatch), _counting_grid_passes(monkeypatch)
    report = check_full_diversity(cs)
    assert passes == []
    assert (found != [] and found[0] is not None) == (sums.size > constellation._AXIS_SUMS)
    d, i, j = _min_pairwise(sums)
    assert report.min_sum_distance == d
    assert report.passes == (d > DEFAULT_DISTINCT_TOL)
    # the whole report, witness included, is the scan's
    monkeypatch.setattr(constellation, "axis_grid", lambda points, alloc=np.empty: None)
    assert check_full_diversity(cs) == report
    index = [int(np.ravel_multi_index(w, (1 << bits,) * nt)) for w in report.witness]
    assert index == [i, j] == [0, 1]
    assert np.abs(sums[i] - sums[j]) == d


LEVEL_STEPS = st.one_of(st.sampled_from([1e5, 1e-3, 0.1, 1 / 3, 0.015625, 3.0, 7e-6]),
                        st.floats(1e-4, 1e4, allow_nan=False))


def _levels(count, step, origin, wobble, rng):
    """count levels origin + k step, the inner ones moved by up to `wobble` steps."""
    lv = origin + np.arange(count) * step
    lv[1:-1] += wobble * step * rng.uniform(-1, 1, count - 2)
    return lv


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), LEVEL_STEPS, LEVEL_STEPS,
       st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False),
       st.sampled_from([0.0, 0.4e-6, 0.9e-6]), st.integers(0, 2**31 - 1))
def test_checker_matches_the_scan_on_random_axis_grids(a, b, gx, gy, x0, y0, wobble, seed):
    # 2**a x 2**b levels, over 25 sums, in a random order; steps may differ
    # by 1e9, and inner levels may sit up to 0.9 of _EVEN_REL off even spacing
    if a + b < 5:
        a = 5 - b
    rng = np.random.default_rng(seed)
    xs, ys = _levels(1 << a, gx, x0 * gx, wobble, rng), _levels(1 << b, gy, y0 * gy, wobble, rng)
    assert_axis_check_exact(axis_table(xs, ys, rng.permutation(xs.size * ys.size)))


@pytest.mark.parametrize("g", [DEFAULT_DISTINCT_TOL / 4, DEFAULT_DISTINCT_TOL, 2 * DEFAULT_DISTINCT_TOL],
                         ids=["sub_tolerance", "at_tolerance", "above_tolerance"])
def test_checker_verdict_at_the_tolerance_step(g):
    sums = axis_table(np.arange(8) * g, np.arange(4) * g)
    assert_axis_check_exact(sums)
    assert _check_table(sums)[0].passes == (g > DEFAULT_DISTINCT_TOL)


def _not_axis_grid(kind):
    rng = np.random.default_rng([72, 0, 0])
    if kind == "one_ulp":
        sums = sum_constellation(preset(8, 1)).copy()
        sums[77] = complex(np.nextafter(sums[77].real, np.inf), sums[77].imag)
        return sums
    if kind == "uneven":
        # 16 x 16 levels, one inner level 2 _EVEN_REL steps off
        xs = np.arange(16.0)
        xs[7] += 2e-6
        return axis_table(xs, np.arange(16.0), rng.permutation(256))
    if kind == "rotated":
        q16 = qam_points(16)
        return sum_constellation(ConstellationSets((q16, 0.25 * np.exp(1j * np.pi / 9) * q16), 4))
    return sum_constellation(preset(*{"3x4": (3, 4), "4x4": (4, 4)}[kind]))


@pytest.mark.parametrize("kind", ["one_ulp", "uneven", "rotated", "3x4", "4x4"])
def test_tables_that_are_not_axis_grids_are_scanned(kind):
    sums = _not_axis_grid(kind)
    assert constellation.axis_grid(sums) is None
    report, (i, j), axis, passes = _check_table(sums)
    assert not axis and passes >= 1
    assert (report.min_sum_distance, i, j) == _min_pairwise(sums)


# tables around the axis grids: grids, some with inner levels up to about
# _EVEN_REL steps off even spacing, a sum repeated, moved an ulp or onto
# another x level, sheared columns, and a y level's row dropped
TABLE_VARIANTS = st.tuples(
    st.integers(1, 8), st.integers(1, 8), LEVEL_STEPS, LEVEL_STEPS,
    st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, 0.5e-6, 0.99e-6, 1e-6, 1.01e-6, 2e-6, 0.3]),
    st.sampled_from(["grid", "repeat", "ulp", "other_level", "shear", "drop_row"]),
    st.integers(0, 2**31 - 1))


@settings(max_examples=200, deadline=None)
@given(TABLE_VARIANTS)
def test_axis_grid_accepts_what_the_sorting_recognizer_accepts(params):
    nx, ny, gx, gy, x0, y0, wobble, kind, seed = params
    rng = np.random.default_rng(seed)
    xs, ys = _levels(nx + 1, gx, x0 * gx, wobble, rng), _levels(ny + 1, gy, y0 * gy, wobble, rng)
    sums = axis_table(xs, ys, rng.permutation(xs.size * ys.size))
    k = rng.integers(sums.size)
    if kind == "repeat":
        sums[k] = sums[(k + 1) % sums.size]
    elif kind == "ulp":
        sums[k] = complex(sums[k].real, np.nextafter(sums[k].imag, np.inf))
    elif kind == "other_level":
        sums[k] = complex(xs[rng.integers(xs.size)], sums[k].imag)
    elif kind == "shear":
        sums += 1e-3j * gy * (sums.real - xs[0]) / gx  # column k moved k / 1000 steps along y
    elif kind == "drop_row":
        sums = sums[sums.imag != ys[-1]]  # the grid one y level smaller
    expected, got = sorted_axis_grid(sums), constellation.axis_grid(sums)
    assert (got is None) == (expected is None)
    if got is not None:
        for a, e in zip(got, expected):
            assert np.array_equal(a, e)


def test_axis_grid_refuses_non_finite_sums():
    sums = axis_table(np.arange(8.0), np.arange(8.0))
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(-np.inf, 0)):
        broken = sums.copy()
        broken[9] = bad
        assert constellation.axis_grid(broken) is None
    assert constellation.axis_grid(axis_table(np.array([-1e308, 1e308]), np.arange(16.0))) is None


def _scan_bytes_after(run):
    """Bytes the design scans' workspace holds after run() in a fresh thread."""
    held = []

    def body():
        run()
        held.append(sum(buf.nbytes for _, _, buf in constellation._SCAN.slots))

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    return held[0]


def test_axis_checks_keep_no_more_scan_memory_than_the_scan_alone(monkeypatch):
    # the recognizer's arrays sit in a frame released before any scan, in
    # slots no larger than the scan's own
    design = optimize_rotations_scalings(ConstellationSets((qam_points(16),) * 4, 4),
                                         GridSpec(0.05, np.pi / 18), 10.7).sets

    def sequence():
        for cs in (preset(16, 1), preset(4, 4), design):
            check_full_diversity(cs)

    with_axis = _scan_bytes_after(sequence)
    monkeypatch.setattr(constellation, "axis_grid", lambda sums, alloc=np.empty: None)
    assert with_axis <= _scan_bytes_after(sequence)


def test_a_large_axis_grid_check_leaves_no_large_buffer_in_the_thread(monkeypatch):
    found = _recording_axis_grid(monkeypatch)
    report = check_full_diversity(geometric_qam_family(5, 16, 0.25))
    assert found[0] is not None and found[0][2].size == 1 << 20
    assert report.passes and report.min_sum_distance == 2 * 0.25 ** 4
    assert sum(buf.nbytes for _, _, buf in constellation._SCAN.slots) <= 8 << 20


# ----------------------------------------------------------------- geometric

def test_geometric_family_single_antenna():
    cs = geometric_qam_family(1, 4, 0.3)
    assert np.array_equal(cs.sets[0], qam_points(4))


def test_geometric_family_square_grid():
    sc = sum_constellation(geometric_qam_family(4, 4, 0.5))
    assert np.unique(sc).size == 256
    assert np.allclose(np.unique(sc.real), np.arange(-1.875, 1.876, 0.25))
    assert np.allclose(np.unique(sc.imag), np.arange(-1.875, 1.876, 0.25))
    report = check_full_diversity(geometric_qam_family(4, 4, 0.5))
    assert report.min_sum_distance == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("nt, bits", [(4, 1), (8, 1), (16, 1), (3, 2), (4, 2), (8, 2), (3, 1)])
def test_preset_sums_are_one_square_qam(nt, bits):
    # the N = L * L sums of these presets are exactly the L x L grid with one
    # step g on both axes, a square N-QAM sent on the beam, so
    # d^2 / Es = 6 / (N - 1); the 3x1 preset's 8 sums are not a grid
    sc = sum_constellation(preset(nt, bits))
    xs, ys = np.unique(sc.real), np.unique(sc.imag)
    side = int(np.sqrt(sc.size))
    is_qam = side * side == sc.size and xs.size == ys.size == side
    if is_qam:
        g = xs[1] - xs[0]
        is_qam = bool(np.all(np.diff(xs) == g) and np.all(np.diff(ys) == g))
        grid = np.sort((xs[:, None] + 1j * ys[None, :]).ravel())
        is_qam = is_qam and np.array_equal(np.sort(sc), grid)
    assert is_qam == ((nt, bits) != (3, 1))
    if is_qam:
        d2_over_es = g ** 2 / average_energy(preset(nt, bits))
        assert d2_over_es == pytest.approx(6 / (sc.size - 1), rel=1e-12)


@pytest.mark.parametrize("nt", [2, 5, 8])
def test_geometric_family_full_diversity_and_pitch(nt):
    cs = geometric_qam_family(nt, 4, 0.5)
    report = check_full_diversity(cs)
    assert report.passes
    assert report.min_sum_distance == pytest.approx(2 * 0.5 ** (nt - 1), rel=1e-12)
    assert np.unique(sum_constellation(cs)).size == 4 ** nt


def test_geometric_family_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        geometric_qam_family(3, 8, 0.5)
    with pytest.raises(ConfigurationError):
        geometric_qam_family(3, 4, 0.0)
    with pytest.raises(ConfigurationError):
        geometric_qam_family(3, 4, 1.0)
    with pytest.raises(ConfigurationError):
        geometric_qam_family(0, 4, 0.5)


def test_prime_root_scalings_pass():
    cs = ConstellationSets(
        tuple(np.sqrt(p) * np.array([-1.0, 1.0]) for p in (2, 3, 5, 7)), 1)
    assert check_full_diversity(cs).passes


# ---------------------------------------------------------------- properties

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(1, 2))
def test_injectivity_equivalence_with_pair_oracle(seed, nt, bits):
    # random small integer-grid sets, compared against the pair-exhaustive oracle
    rng = np.random.default_rng([seed, nt, bits])
    size = 1 << bits
    sets = []
    for _ in range(nt):
        pool = (np.arange(-4, 5)[:, None] + 1j * np.arange(-4, 5)[None, :]).ravel() / 4
        sets.append(rng.choice(pool, size=size, replace=False))
    cs = ConstellationSets(tuple(sets), bits)
    assert check_full_diversity(cs).passes == brute_diversity_verdict(cs, 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0, allow_nan=False), st.floats(0.1, 4.0, allow_nan=False))
def test_common_rotation_and_scaling(phase, scale):
    cs = preset(3, 1)
    base = check_full_diversity(cs).min_sum_distance
    rotated = ConstellationSets(tuple(np.exp(1j * phase) * c for c in cs.sets), 1)
    assert check_full_diversity(rotated).min_sum_distance == pytest.approx(base, rel=1e-12)
    scaled = ConstellationSets(tuple(scale * c for c in cs.sets), 1)
    assert check_full_diversity(scaled).min_sum_distance == pytest.approx(scale * base, rel=1e-12)


def test_sets_validation():
    with pytest.raises(ConfigurationError):
        ConstellationSets((np.array([1.0, 1.0]),), 1)  # coincident points
    with pytest.raises(ConfigurationError):
        ConstellationSets((np.array([1.0, -1.0, 1j]),), 1)  # wrong cardinality
    with pytest.raises(ConfigurationError):
        ConstellationSets((np.array([np.inf, -1.0]),), 1)
    with pytest.raises(ConfigurationError):
        ConstellationSets((), 1)


# ----------------------------------------------------------------- optimizer

def naive_stagewise_search(base, grid, budget, tol=1e-12, tie_rel=1e-9):
    """Independent loop-based replica of the stagewise grid search, returning
    scales, rotations and the last stage's distance. It scores every
    candidate in full: by brute force up to 4096 sums, and with the exact
    `_min_pairwise` above."""
    energies = [np.mean(np.abs(c) ** 2) for c in base.sets]
    scales, rotations = [1.0], [0.0]
    prefix = np.array(base.sets[0])
    spent = energies[0]
    for i in range(1, base.nt):
        best = None
        for b in grid.scale_values():
            if spent + b * b * energies[i] > budget:
                continue
            for phi in grid.rotation_values():
                pts = (prefix[:, None] + b * np.exp(1j * phi) * base.sets[i][None, :]).ravel()
                d = brute_min_pairwise(pts) if pts.size <= 4096 else _min_pairwise(pts)[0]
                if d <= tol:
                    continue
                if best is None or d > best[0] * (1 + tie_rel):
                    best = (d, b, phi, pts)
        if best is None:
            return None
        d, b, phi, prefix = best
        scales.append(b)
        rotations.append(phi)
        spent += b * b * energies[i]
    return scales, rotations, d


def test_optimizer_single_set_is_trivial():
    base = ConstellationSets((np.array([-1.0, 1.0]),), 1)
    res = optimize_rotations_scalings(base, GridSpec(0.5, np.pi / 2), 1.0)
    assert res.scales[0] == 1.0 and res.rotations[0] == 0.0
    assert np.array_equal(res.sets.sets[0], base.sets[0])
    assert res.min_sum_distance == 2.0
    assert res.min_sum_distance == check_full_diversity(res.sets).min_sum_distance


def test_optimizer_matches_naive_oracle_on_coarse_grid():
    base = ConstellationSets(
        (np.array([-1.0, 1.0]), np.array([-1j, 1j]), np.array([-1.0, 1.0])), 1)
    grid = GridSpec(0.075, np.pi / 12)
    res = optimize_rotations_scalings(base, grid, 2.455625)
    oracle = naive_stagewise_search(base, grid, 2.455625)
    assert oracle is not None
    assert np.allclose(res.scales, oracle[0], atol=1e-12)
    assert np.allclose(res.rotations, oracle[1], atol=1e-12)
    # the known design point sits on this grid: 0.675 = 9 * 0.075, pi/4 = 3 * pi/12
    assert res.scales[2] == pytest.approx(0.675, abs=1e-12)
    assert res.rotations[2] == pytest.approx(np.pi / 4, abs=1e-12)


def test_optimizer_matches_naive_oracle_on_grid_search_stages():
    # 8-PSK on three antennas: stage 2 holds 64 sums (all pairs), stage 3 holds 512 (grid)
    psk = np.exp(2j * np.pi * np.arange(8) / 8)
    base = ConstellationSets((psk,) * 3, 3)
    grid = GridSpec(0.25, np.pi / 10)
    res = optimize_rotations_scalings(base, grid, 1.7)
    oracle = naive_stagewise_search(base, grid, 1.7)
    assert oracle is not None
    assert np.array_equal(res.scales, oracle[0])
    assert np.array_equal(res.rotations, oracle[1])
    assert res.min_sum_distance == brute_min_pairwise(sum_constellation(res.sets))


@pytest.mark.parametrize("nt, points", [
    (8, np.array([-1.0, 1.0])),  # stages of 128 and 256 sums
    (4, qam_points(4)),  # a 256-sum stage
], ids=["1-bit", "2-bit"])
def test_optimizer_matches_naive_oracle_on_prefiltered_stages(monkeypatch, nt, points):
    bits = int(np.log2(points.size))
    base = ConstellationSets((points,) * nt, bits)
    grid = GridSpec(0.125, np.pi / 8)
    oracle = naive_stagewise_search(base, grid, 4.0)
    assert oracle is not None
    scored = []
    candidate_min = constellation._candidate_min

    def counted(prefix, wc, bar):
        scored.append(prefix.size * wc.size)
        return candidate_min(prefix, wc, bar)

    monkeypatch.setattr(constellation, "_candidate_min", counted)
    res = optimize_rotations_scalings(base, grid, 4.0)
    assert np.array_equal(res.scales, oracle[0])
    assert np.array_equal(res.rotations, oracle[1])
    assert res.min_sum_distance == oracle[2]
    # the stages above 64 sums score fewer candidates in full than they hold;
    # the energies and scales are binary fractions, so `spent` is exact
    energy = float(np.mean(np.abs(points) ** 2))
    spent = energy * np.cumsum(res.scales ** 2)
    b = grid.scale_values()
    held = sum(int(np.sum(spent[i - 1] + b * b * energy <= 4.0)) for i in range(1, nt)
               if points.size ** (i + 1) > _ALL_PAIRS_MAX) * grid.rotation_values().size
    assert 1 <= len(scored) < held
    assert min(scored) > _ALL_PAIRS_MAX


@pytest.mark.parametrize("c", [qam_points(16), qam_points(4), np.array([-1.0, 1.0]),
                               [1, 1j] @ np.random.default_rng(4).normal(size=(2, 8))],
                         ids=["16-QAM", "4-QAM", "2-point", "random-8"])
def test_prefilter_subset_sums_equal_the_candidate_sums(c):
    # the leading sums _all_pairs_minima forms for all rotations at once are
    # bit for bit the ones _candidate_min forms from w * c, so a candidate
    # whose subset minimum is at most the bar has a whole-stage minimum, as
    # _candidate_min computes it, at most the bar too
    grid = GridSpec(0.01, np.pi / 36)
    prefix = sum_constellation(ConstellationSets((c, c / 3), int(np.log2(c.size))))
    lead = prefix[:_ALL_PAIRS_MAX // c.size]
    for b in grid.scale_values()[::7]:
        ws = [b * np.exp(1j * phi) for phi in grid.rotation_values()]
        batched = np.array(ws)[:, None] * c[None, :]
        subsets = (lead[None, :, None] + batched[:, None, :]).reshape(len(ws), -1)
        minima = constellation._all_pairs_minima(lead, c, ws)
        for w, row, m in zip(ws, subsets, minima):
            leading = (prefix[:, None] + (w * c)[None, :]).ravel()[:row.size]
            assert np.array_equal(row.view(np.uint64), leading.view(np.uint64))
            assert m == _min_pairwise(leading)[0]


def test_optimizer_matches_naive_oracle_where_pruning_acts(monkeypatch):
    # the benchmark's 4 x 16-QAM run: stages of 256, 4096 and 65536 sums, the
    # last two above the subset size, so most candidates are settled early
    q16 = qam_points(16)
    base = ConstellationSets((q16,) * 4, 4)
    grid = GridSpec(0.05, np.pi / 18)
    oracle = naive_stagewise_search(base, grid, 10.7)
    assert oracle is not None
    sizes = []

    def counted(points, alloc=np.empty):
        sizes.append(points.size)
        return _min_pairwise(points, alloc)

    monkeypatch.setattr(constellation, "_min_pairwise", counted)
    res = optimize_rotations_scalings(base, grid, 10.7)
    assert np.array_equal(res.scales, oracle[0])
    assert np.array_equal(res.rotations, oracle[1])
    assert res.min_sum_distance == oracle[2]
    # every 65536-sum search scores a stage-4 candidate: at least the winner,
    # and at most 5 candidates
    assert 1 <= sizes.count(65536) <= 5
    # the leading 64 sums settle most of the 180 candidates of the 256-sum stage
    assert 1 <= sizes.count(256) < 180
    assert res.min_sum_distance == check_full_diversity(res.sets).min_sum_distance


# the benchmark's design grids and the finer grids CI runs
DESIGN_GRIDS = [GridSpec(0.025, np.pi / 36), GridSpec(0.05, np.pi / 18),
                GridSpec(0.0025, np.pi / 36), GridSpec(0.01, np.pi / 36)]


@pytest.mark.parametrize("grid", DESIGN_GRIDS, ids=["c7", "4x16-QAM", "3x16-QAM-fine", "4x16-QAM-fine"])
def test_rotation_phasors_equal_the_scalar_products(grid):
    # the optimizer forms each scale's rotations as b * exp(1j * phis) once;
    # every one must be bit for bit the product it scored one at a time
    phis = grid.rotation_values()
    phasors = np.exp(1j * phis)
    for b in grid.scale_values():
        batched = b * phasors
        scalar = np.array([b * np.exp(1j * phi) for phi in phis])
        assert np.all(batched == scalar)
        assert np.array_equal(batched.view(np.uint64), scalar.view(np.uint64))  # signed zeros too


def test_pair_tables_are_cached_and_read_only():
    for n in range(2, _ALL_PAIRS_MAX + 1):
        i, j = constellation._pairs(n)
        expected = np.triu_indices(n, 1)
        assert np.array_equal(i, expected[0]) and np.array_equal(j, expected[1])
        assert not i.flags.writeable and not j.flags.writeable
        assert constellation._pairs(n)[0] is i


STEADY_DESIGN_RUNS = {
    "check-16x1": lambda: check_full_diversity(preset(16, 1)),
    "check-8x2": lambda: check_full_diversity(preset(8, 2)),
    "optimize-4x16-QAM": lambda: optimize_rotations_scalings(
        ConstellationSets((qam_points(16),) * 4, 4), GridSpec(0.05, np.pi / 18), 10.7),
}


@pytest.mark.parametrize("name", STEADY_DESIGN_RUNS)
def test_steady_state_design_scans_do_not_page_fault(name):
    # a 65536-sum scan that allocated its arrays afresh would fault hundreds
    # of times; the thread's workspace keeps them from call to call
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD"):
        pytest.skip("per-thread resource usage is not available here")
    run = STEADY_DESIGN_RUNS[name]
    first = run()
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    second = run()
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults <= 48
    if isinstance(first, constellation.DiversityReport):
        assert first == second
    else:
        assert first.min_sum_distance == second.min_sum_distance


def test_a_large_check_leaves_no_large_buffer_in_the_thread():
    # a 2^20-sum scan takes 86 MB of buffers; those over a 65536-sum scan's are dropped
    assert check_full_diversity(geometric_qam_family(5, 16, 0.2)).passes
    assert sum(buf.nbytes for _, _, buf in constellation._SCAN.slots) <= 8 << 20


def test_scans_never_take_a_slot_their_caller_holds(monkeypatch):
    # a caller holding arrays of the shared workspace keeps them intact
    # through a check and a whole design run that scan from it
    def bits(a):
        return a.view(np.uint64).copy()

    with constellation._SCAN.frame() as alloc:
        held = sum_constellation(preset(8, 2), alloc)
        report = check_full_diversity(preset(16, 1))
        assert report.min_sum_distance == 0.015625
        assert np.array_equal(bits(held), bits(sum_constellation(preset(8, 2))))

        # and the optimizer's stage sums survive the scans above them
        scanned, verified = [], []
        stage_sums, min_pairwise = constellation._stage_sums, constellation._min_pairwise

        def recorded(prefix, wc, alloc=np.empty):
            out = stage_sums(prefix, wc, alloc)
            scanned.append((out, (prefix[:, None] + wc[None, :]).ravel()))
            return out

        def checked(points, alloc=np.empty):
            result = min_pairwise(points, alloc)
            for out, fresh in scanned:
                if out is points:
                    assert np.array_equal(bits(points), bits(fresh))
                    verified.append(points.size)
            return result

        monkeypatch.setattr(constellation, "_stage_sums", recorded)
        monkeypatch.setattr(constellation, "_min_pairwise", checked)
        res = optimize_rotations_scalings(ConstellationSets((qam_points(16),) * 4, 4),
                                          GridSpec(0.05, np.pi / 18), 10.7)
        assert {256, 1024, 4096, 65536} <= set(verified)
        assert np.array_equal(bits(held), bits(sum_constellation(preset(8, 2))))
    monkeypatch.undo()
    assert res.min_sum_distance == check_full_diversity(res.sets).min_sum_distance


def test_optimizer_infeasible_budget():
    base = ConstellationSets((np.array([-1.0, 1.0]), np.array([-1j, 1j])), 1)
    with pytest.raises(InfeasibleDesignError):
        optimize_rotations_scalings(base, GridSpec(1.0, np.pi / 2), 1.5)


def test_optimizer_rejects_bad_budget():
    base = ConstellationSets((np.array([-1.0, 1.0]),), 1)
    with pytest.raises(ConfigurationError):
        optimize_rotations_scalings(base, GridSpec(0.5, np.pi), 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="budget"):
            optimize_rotations_scalings(base, GridSpec(0.5, np.pi), bad)


def test_grid_spec_values():
    g = GridSpec(0.25, np.pi / 2)
    assert np.allclose(g.scale_values(), [0.25, 0.5, 0.75, 1.0])
    assert np.allclose(g.rotation_values(), [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    with pytest.raises(ConfigurationError):
        GridSpec(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(0.5, 0.0)
    # the steps the benchmark and criterion 7 use stay under the point cap
    for b_step in (0.025, 0.05):
        for phi_step in (np.pi / 36, np.pi / 18):
            g = GridSpec(b_step, phi_step)
            assert g.scale_values().size * g.rotation_values().size <= 2880
    assert GridSpec(1 / 256, 2 * np.pi / 256).rotation_values().size == 256  # 65536 points
    for b_step, phi_step in [(1e-300, np.pi), (0.5, 1e-300), (5e-324, 1.0), (1 / 512, 2 * np.pi / 256)]:
        with pytest.raises(ConfigurationError, match="grid points"):
            GridSpec(b_step, phi_step)


# ------------------------------------------------------------------- file IO

def test_constellation_file_roundtrip(tmp_path):
    path = tmp_path / "sets.txt"
    for cs in [preset(3, 1), preset(4, 2), geometric_qam_family(2, 16, 0.25)]:
        save_constellation(cs, path)
        back = load_constellation(path)
        assert back.nt == cs.nt
        assert back.bits_per_symbol == cs.bits_per_symbol
        for a, b in zip(back.sets, cs.sets):
            assert np.array_equal(a, b)
    # comment lines may be indented, as in config files
    path.write_text("  # note\n" + path.read_text().replace("\n", "\n\t# tab\n", 1))
    for a, b in zip(load_constellation(path).sets, cs.sets):
        assert np.array_equal(a, b)


def test_constellation_file_malformed(tmp_path):
    cases = {
        "empty.txt": "",
        "header.txt": "3\n",
        "badline.txt": "1 1\n1 0.5\n",
        "count.txt": "1 1\n1 1 0\n",
        "index.txt": "1 1\n2 1 0\n5 -1 0\n",
        "alpha.txt": "1 1\n1 a b\n1 -1 0\n",
        "undecodable.txt": b"1 1\n1 -1 0\n1 1 \xff\n",
        "bits.txt": "1 20000\n1 -1 0\n1 1 0\n",
    }
    for name, content in cases.items():
        p = tmp_path / name
        p.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(ConfigurationError, match=name):
            load_constellation(p)
