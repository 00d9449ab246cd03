import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprecode import constellation
from fdprecode.constellation import (
    _ALL_PAIRS_MAX,
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


def _lattice(side):
    u, v = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
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


@pytest.mark.parametrize("n", [_ALL_PAIRS_MAX, _ALL_PAIRS_MAX + 1])
def test_closest_pair_at_the_all_pairs_cutoff(n):
    rng = np.random.default_rng(n)
    assert_closest_pair_exact(rng.normal(size=n) + 1j * rng.normal(size=n))
    assert_closest_pair_exact(_lattice(9)[:n])


def test_closest_pair_memory_is_bounded():
    # the 16x1 lattice and the 4x4 preset's colliding sums, 65536 points each
    for nt, bits in [(16, 1), (4, 4)]:
        sums = sum_constellation(preset(nt, bits))
        tracemalloc.start()
        try:
            _min_pairwise(sums)
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


def test_optimizer_matches_naive_oracle_where_pruning_acts(monkeypatch):
    # the benchmark's 4 x 16-QAM run: stages of 256, 4096 and 65536 sums, the
    # last two above the subset size, so most candidates are settled early
    q16 = qam_points(16)
    base = ConstellationSets((q16,) * 4, 4)
    grid = GridSpec(0.05, np.pi / 18)
    oracle = naive_stagewise_search(base, grid, 10.7)
    assert oracle is not None
    sizes = []

    def counted(points):
        sizes.append(points.size)
        return _min_pairwise(points)

    monkeypatch.setattr(constellation, "_min_pairwise", counted)
    res = optimize_rotations_scalings(base, grid, 10.7)
    assert np.array_equal(res.scales, oracle[0])
    assert np.array_equal(res.rotations, oracle[1])
    assert res.min_sum_distance == oracle[2]
    # every 65536-sum search scores a stage-4 candidate: at least the winner,
    # and at most 5 candidates
    assert 1 <= sizes.count(65536) <= 5
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
