import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincinv

from fdprecode.constellation import preset, sum_constellation
from fdprecode.detector import codeword_matrix
from fdprecode.errors import ConfigurationError
from fdprecode import simulator
from fdprecode.simulator import (
    CerCurve,
    SimConfig,
    estimate_diversity_slope,
    ks_test_chisq,
    run_cer_sweep,
    sample_dmin_pdf,
    wilson_interval,
)


def curve_from_cer(snr_db, cer, errors=1000):
    snr_db = np.asarray(snr_db, dtype=float)
    cer = np.asarray(cer, dtype=float)
    trials = np.maximum((errors / cer).astype(np.int64), 1)
    err = np.full(snr_db.size, errors, dtype=np.int64)
    lo, hi = wilson_interval(err, trials)
    return CerCurve(snr_db=snr_db, trials=trials, errors=err, cer=cer, ci_lo=lo, ci_hi=hi)


def small_config(**kw):
    defaults = dict(nr=1, constellation=preset(3, 1), snr_grid_db=(10.0,),
                    trials_per_point=1000, seed=1)
    defaults.update(kw)
    return SimConfig(**defaults)


# ------------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(snr_grid_db=(10.0, 10.0))
    with pytest.raises(ConfigurationError):
        small_config(snr_grid_db=(12.0, 10.0))
    with pytest.raises(ConfigurationError):
        small_config(snr_grid_db=())
    with pytest.raises(ConfigurationError):
        small_config(trials_per_point=0)
    with pytest.raises(ConfigurationError):
        small_config(scheme="zf")
    with pytest.raises(ConfigurationError):
        small_config(target_errors=0)
    for grid in ((float("nan"),), (10.0, float("nan")), (10.0, float("inf")),
                 (-float("inf"), 0.0)):
        with pytest.raises(ConfigurationError, match="finite"):
            small_config(snr_grid_db=grid)
    # finite SNRs whose noise variance would be 0 or inf
    for grid in ((4000.0,), (-4000.0,), (0.0, 3100.0), (-3090.0,)):
        with pytest.raises(ConfigurationError, match="snr"):
            small_config(snr_grid_db=grid)
    # streams masks the key to 128 bits, so these would alias (1 << 128) - 1 and 0
    for seed in (-1, 1 << 128):
        with pytest.raises(ConfigurationError, match="seed"):
            small_config(seed=seed)
    for seed in (0, (1 << 128) - 1):
        assert small_config(seed=seed).seed == seed
    # 3x1 draws 8 nr + 3 uniforms per trial; more than 1024 would put over
    # 32 MB in one tile's draw table, and the check comes before any draw
    assert small_config(nr=127).words_per_trial == 1019
    for nr in (128, 10_000_000):
        with pytest.raises(ConfigurationError, match=f"nr={nr}"):
            small_config(nr=nr)


# ----------------------------------------------------------------- CER sweep

# noise is always added; at 200 dB its amplitude is 1e-10 of the signal's

def test_noiseless_cer_is_zero():
    cfg = small_config(trials_per_point=20000, snr_grid_db=(200.0,))
    curve = run_cer_sweep(cfg)
    assert np.array_equal(curve.errors, [0])
    assert np.array_equal(curve.cer, [0.0])


def test_noiseless_baseline_cer_is_zero():
    cfg = small_config(trials_per_point=5000, snr_grid_db=(200.0,), scheme="unprecoded_vblast")
    assert run_cer_sweep(cfg).errors[0] == 0


def test_baseline_error_counts_are_pinned():
    # counts of the einsum decoder this exhaustive search replaced: any
    # changed baseline decision changes them
    cfg = small_config(nr=2, snr_grid_db=(9.0, 12.0, 15.0), trials_per_point=65536, seed=0,
                       scheme="unprecoded_vblast")
    curve = run_cer_sweep(cfg)
    assert curve.trials.tolist() == [65536] * 3
    assert curve.errors.tolist() == [4544, 1598, 520]


def test_thread_count_does_not_change_counts():
    cfg = small_config(snr_grid_db=(8.0, 14.0), trials_per_point=150000, seed=99)
    c1 = run_cer_sweep(cfg, threads=1)
    c8 = run_cer_sweep(cfg, threads=8)
    assert np.array_equal(c1.errors, c8.errors)
    assert np.array_equal(c1.trials, c8.trials)
    assert np.array_equal(c1.cer, c8.cer)


def test_target_errors_stops_deterministically():
    cfg = small_config(snr_grid_db=(6.0,), trials_per_point=10_000_000,
                       target_errors=500, seed=3)
    c1 = run_cer_sweep(cfg, threads=1)
    c4 = run_cer_sweep(cfg, threads=4)
    assert c1.trials[0] == c4.trials[0]
    assert c1.errors[0] == c4.errors[0]
    assert c1.errors[0] >= 500
    assert c1.trials[0] < 10_000_000


def test_huge_trial_cap_stops_after_first_group():
    # groups are built one at a time, so the cap itself costs no memory or time
    cfg = small_config(snr_grid_db=(-10.0,), trials_per_point=10**15, target_errors=1)
    t0 = time.monotonic()
    curve = run_cer_sweep(cfg, threads=2)
    assert time.monotonic() - t0 < 1.0
    assert np.array_equal(curve.trials, [4 * 32768])


def test_symbol_tables_match_per_antenna_loops():
    # run_tile reads each trial's symbols from the engine's tables at the
    # codeword's mixed-radix index; the loops it replaced are the reference
    for nt, bits in [(3, 1), (4, 2), (3, 4)]:
        cs = preset(nt, bits)
        sizes = [c.size for c in cs.sets]
        cw = np.random.default_rng([nt, bits]).integers(0, sizes, size=(1000, nt))
        idx = np.zeros(1000, dtype=np.int64)
        s = np.zeros(1000, dtype=complex)
        for i in range(nt):
            idx = idx * sizes[i] + cw[:, i]
            s = s + cs.sets[i][cw[:, i]]
        assert np.array_equal(np.ravel_multi_index(tuple(cw.T), (1 << bits,) * nt), idx)
        assert np.array_equal(sum_constellation(cs)[idx], s)
        rows = np.stack([cs.sets[i][cw[:, i]] for i in range(nt)], axis=1)
        assert np.array_equal(codeword_matrix(cs)[idx], rows)


@pytest.fixture
def fast_switching():
    # threads trade the interpreter lock every 10 us, so a workspace shared
    # across threads, or a lost write to the dmin output, would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("nt, bits, nr, snr, scheme", [
    (3, 1, 2, 9.0, "proposed"), (8, 1, 1, 25.0, "proposed"), (16, 1, 1, 50.0, "proposed"),
    (3, 1, 2, 9.0, "unprecoded_vblast")])
def test_tile_size_does_not_change_counts(monkeypatch, fast_switching, nt, bits, nr, snr, scheme):
    # 100003 trials are one partial group whose last tile is partial; a tile
    # of _GROUP trials is a whole group, so each group runs as one task
    cfg = SimConfig(nr=nr, constellation=preset(nt, bits), snr_grid_db=(snr,),
                    trials_per_point=100003, seed=4, scheme=scheme)
    runs = []
    for tile in (simulator._TILE, 1000, simulator._GROUP):
        monkeypatch.setattr(simulator, "_TILE", tile)
        for threads in (1, 3):
            curve = run_cer_sweep(cfg, threads=threads)
            runs.append((curve.trials.tolist(), curve.errors.tolist()))
    assert runs[0][0] == [100003] and runs[0][1][0] > 0
    assert all(run == runs[0] for run in runs)


def test_tile_size_does_not_change_dmin_samples(monkeypatch, fast_switching):
    want = sample_dmin_pdf(3, 2, 6, 100003)
    for tile in (1000, simulator._GROUP):
        monkeypatch.setattr(simulator, "_TILE", tile)
        for threads in (1, 3):
            assert np.array_equal(sample_dmin_pdf(3, 2, 6, 100003, threads=threads).view(np.uint64),
                                  want.view(np.uint64))


def test_a_group_keeps_every_thread_busy():
    # a group's tiles are the pool's tasks, so each of 8 threads holds one at
    # once; a group of fewer tasks than threads would break the barrier
    barrier = threading.Barrier(8, timeout=5)

    def tile(first, n):
        barrier.wait()
        return n

    with simulator._pool(8) as pool:
        done, counts = next(simulator._groups(tile, 1 << 17, pool))
    assert done == sum(counts) == 1 << 17


def _run_tiles(engine, snr, first):
    """Run 8 consecutive tiles (32768 trials) of the engine's point 0 from trial `first`."""
    for lo in range(first, first + 8 * simulator._TILE, simulator._TILE):
        engine.run_tile(0, engine.cfg.sigma2(snr), lo, simulator._TILE)


def test_steady_state_batches_reuse_the_workspace():
    # after the first tile, a tile makes no new tile-sized buffer
    for scheme in ("proposed", "unprecoded_vblast"):
        cfg = small_config(nr=2, trials_per_point=1 << 20, scheme=scheme)
        engine = simulator._Engine(cfg)
        _run_tiles(engine, 10.0, 0)
        buffers = [id(buf) for _, _, buf in engine.workspace.slots]
        _run_tiles(engine, 10.0, 8 * simulator._TILE)
        assert [id(buf) for _, _, buf in engine.workspace.slots] == buffers


@pytest.mark.parametrize("nt, nr, snr, scheme", [
    (3, 2, 12.0, "proposed"), (3, 2, 12.0, "unprecoded_vblast"), (16, 1, 50.0, "proposed")])
def test_steady_state_batches_do_not_page_fault(nt, nr, snr, scheme):
    # one 3x1 nr=2 tile's draw table alone is about 160 pages, so 8 tiles that
    # allocated their arrays afresh would fault hundreds of times
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD"):
        pytest.skip("per-thread resource usage is not available here")
    cfg = SimConfig(nr=nr, constellation=preset(nt, 1), snr_grid_db=(snr,),
                    trials_per_point=1 << 20, seed=0, scheme=scheme)
    engine = simulator._Engine(cfg)
    faults = []
    for i in range(8):  # 2 warm rounds of 8 tiles (32768 trials), then 6 measured
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        _run_tiles(engine, snr, i * 8 * simulator._TILE)
        faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
    assert np.median(faults[2:]) <= 8, faults


def test_rerun_identical():
    cfg = small_config(trials_per_point=30000, snr_grid_db=(12.0,))
    a = run_cer_sweep(cfg)
    b = run_cer_sweep(cfg)
    assert np.array_equal(a.errors, b.errors)


def test_seed_changes_realization():
    a = run_cer_sweep(small_config(trials_per_point=30000, seed=1, snr_grid_db=(10.0,)))
    b = run_cer_sweep(small_config(trials_per_point=30000, seed=2, snr_grid_db=(10.0,)))
    assert a.errors[0] != b.errors[0]


def test_cer_monotone_up_to_ci_overlap():
    cfg = small_config(snr_grid_db=(6.0, 10.0, 14.0, 18.0), trials_per_point=100000)
    curve = run_cer_sweep(cfg, threads=4)
    for k in range(3):
        assert curve.ci_lo[k + 1] <= curve.ci_hi[k]


def test_wilson_interval_basics():
    lo, hi = wilson_interval(np.array([0, 5, 100]), np.array([100, 100, 100]))
    assert lo[0] == 0.0
    assert hi[2] == 1.0
    assert np.all(lo <= np.array([0.0, 0.05, 1.0]) + 1e-12)
    assert np.all(np.array([0.0, 0.05, 1.0]) <= hi + 1e-12)
    # frozen spot value for e = 5, n = 100 at z = 1.96
    assert lo[1] == pytest.approx(0.02157, abs=2e-4)
    assert hi[1] == pytest.approx(0.11175, abs=2e-4)


# --------------------------------------------------------------- d^2_min pdf

def test_dmin_count_is_bounded():
    for count in (0, (1 << 24) + 1):
        with pytest.raises(ConfigurationError, match="count"):
            sample_dmin_pdf(3, 1, 1, count)


def test_dmin_checks_antennas_and_seed():
    # a 3x1 channel is 6 nr uniforms; nr = 171 is the first over the 1024 a batch may hold
    for nt, nr, seed, key in [(0, 1, 1, "antenna"), (3, 0, 1, "antenna"),
                              (3, 1, -1, "seed"), (3, 1, 1 << 128, "seed"),
                              (3, 171, 1, "nr=171"), (3, 10_000_000, 1, "nr=10000000")]:
        with pytest.raises(ConfigurationError, match=key):
            sample_dmin_pdf(nt, nr, seed, 1000)


def test_dmin_samples_chisquare_1x1():
    z = sample_dmin_pdf(1, 1, 7, 100000)
    assert z.size == 100000
    assert np.all(z >= 0)
    stat, p = ks_test_chisq(z, 2)
    assert p >= 0.01


@pytest.mark.parametrize("nt,nr", [(4, 1), (3, 2)])
def test_dmin_samples_match_full_diversity_dof(nt, nr):
    z = sample_dmin_pdf(nt, nr, 7, 100000)
    _, p = ks_test_chisq(z, 2 * nt * nr)
    assert p >= 0.01


def test_dmin_threads_identical():
    a = sample_dmin_pdf(3, 1, 42, 70000, threads=1)
    b = sample_dmin_pdf(3, 1, 42, 70000, threads=8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("threads", [0, -2, -3, 2.5, None, "0", "x", "2.5"])
def test_bad_thread_counts_raise_configuration_error(threads):
    with pytest.raises(ConfigurationError, match="threads must be a positive integer"):
        run_cer_sweep(small_config(), threads=threads)
    with pytest.raises(ConfigurationError, match="threads must be a positive integer"):
        sample_dmin_pdf(3, 1, 0, 1000, threads=threads)


# ------------------------------------------------------------------- KS test

def test_ks_self_consistency():
    z = np.random.default_rng([2025, 0, 0]).chisquare(6, size=100000)
    stat, p = ks_test_chisq(z, 6)
    assert p >= 0.01


def test_ks_power_against_wrong_dof():
    z = np.random.default_rng([2025, 0, 0]).chisquare(6, size=100000)
    stat, p = ks_test_chisq(z, 8)
    assert p < 1e-6
    assert stat > 0.05


def test_ks_chunked_statistic_is_bit_identical():
    # more than one chunk and not a multiple of it, against the whole-array formula
    n = (1 << 20) + 12345
    z = np.random.default_rng([2025, 1, 0]).chisquare(6, size=n)
    values = np.sort(z)
    ref = gammainc(3.0, values / 2.0)
    i = np.arange(1, n + 1)
    whole = float(max(np.max(i / n - ref), np.max(ref - (i - 1) / n)))
    stat, _ = ks_test_chisq(z, 6)
    assert stat == whole


def whole_array_statistic(z, dof):
    values = np.sort(z)
    ref = gammainc(dof / 2.0, values / 2.0)
    i = np.arange(1, values.size + 1)
    return float(max(np.max(i / values.size - ref), np.max(ref - (i - 1) / values.size)))


def chisq_samples(dof, n, seed=0):
    return np.random.default_rng([2025, 2, seed]).chisquare(dof, size=n)


@pytest.mark.parametrize("n, true_dof, dof, repeat", [
    (20000, 4, 4, 7),  # heavy ties: every value 7 times
    (100, 6, 6, 1), (127, 6, 6, 1), (128, 6, 6, 1), (129, 6, 6, 1), ((1 << 20) + 17, 6, 6, 1),
    (100000, 6, 8, 1), (100000, 8, 6, 1),  # the wrong dof
])
def test_ks_pruned_statistic_equals_whole_array(n, true_dof, dof, repeat):
    z = np.repeat(chisq_samples(true_dof, n), repeat)
    assert ks_test_chisq(z, dof)[0] == whole_array_statistic(z, dof)


def test_ks_pruned_statistic_on_a_quantile_grid():
    # every block's bound reaches the maximum, so every block is evaluated
    n = 1 << 20
    z = 2 * gammaincinv(6.0, (np.arange(n) + 0.5) / n)
    assert ks_test_chisq(z, 12)[0] == whole_array_statistic(z, 12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(100, 5000), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_ks_pruned_statistic_property(n, half_dof, half_true, seed):
    z = chisq_samples(2 * half_true, n, seed)
    assert ks_test_chisq(z, 2 * half_dof)[0] == whole_array_statistic(z, 2 * half_dof)


def test_ks_dmin_result_is_pinned():
    # recorded with the whole-array KS test
    z = sample_dmin_pdf(3, 2, 0, 1 << 20)
    assert ks_test_chisq(z, 12) == (0.0008704757294617504, 0.4047599995158725)


def test_ks_memory_is_bounded():
    # the sorted copy is 8 MB; evaluating the CDF at every sample peaked at 42 MB
    z = chisq_samples(6, 1 << 20)
    tracemalloc.start()
    try:
        ks_test_chisq(z, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_ks_reads_sorted_input_as_is():
    z = chisq_samples(6, 1 << 20)
    before = z.copy()
    values = np.sort(z)
    values.flags.writeable = False  # neither sorted nor otherwise written
    tracemalloc.start()
    try:
        result = ks_test_chisq(values, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == ks_test_chisq(z, 6)
    assert np.array_equal(z, before)  # unsorted input is sorted in a copy
    assert peak <= 4e6  # the sorted copy alone would be 8 MB
    # in order but invalid: NaN fails the order check, the others the range check
    for bad, at in [(np.nan, -1), (np.inf, -1), (-np.inf, 0), (-1.0, 0)]:
        z = np.sort(chisq_samples(4, 1000))
        z[at] = bad
        with pytest.raises(ConfigurationError, match="1 of 1000"):
            ks_test_chisq(z, 4)


def test_ks_validation():
    z = np.ones(1000)
    with pytest.raises(ConfigurationError):
        ks_test_chisq(z, 0)
    with pytest.raises(ConfigurationError):
        ks_test_chisq(z, -2)
    with pytest.raises(ConfigurationError):
        ks_test_chisq(z, 3)
    with pytest.raises(ConfigurationError):
        ks_test_chisq(np.ones(50), 2)
    for bad, count in [(np.nan, 1), (-np.inf, 1), (np.inf, 1), (-1e-300, 1), (-3.0, 1000)]:
        z = chisq_samples(4, 1000)
        z[:count] = bad
        with pytest.raises(ConfigurationError, match=f"{count} of 1000"):
            ks_test_chisq(z, 4)
    with pytest.raises(ConfigurationError, match="1000 of 1000"):
        ks_test_chisq(np.full(1000, np.nan), 4)


# ----------------------------------------------------------------- slope fit

def test_slope_exact_for_synthetic_powerlaw():
    snr = np.array([7.0, 9.0, 11.0, 13.0])
    gamma = 10 ** (snr / 10)
    assert estimate_diversity_slope(curve_from_cer(snr, gamma ** -3.0),
                                    (1e-4, 1e-2)) == pytest.approx(3.0, abs=1e-9)


def test_slope_exact_with_prefactor():
    snr = np.array([6.5, 7.0, 7.5])
    gamma = 10 ** (snr / 10)
    cer = 300.0 * gamma ** -8.0
    assert estimate_diversity_slope(curve_from_cer(snr, cer),
                                    (1e-4, 1e-2)) == pytest.approx(8.0, abs=1e-9)


def test_slope_requires_two_windowed_points():
    snr = np.array([7.0, 30.0])
    gamma = 10 ** (snr / 10)
    with pytest.raises(ConfigurationError, match="insufficient"):
        estimate_diversity_slope(curve_from_cer(snr, gamma ** -3.0), (1e-4, 1e-2))


def test_slope_ignores_low_error_points():
    snr = np.array([7.0, 9.0, 11.0])
    gamma = 10 ** (snr / 10)
    curve = curve_from_cer(snr, gamma ** -3.0)
    starved = CerCurve(snr_db=curve.snr_db, trials=curve.trials,
                       errors=np.array([1000, 1000, 50]), cer=curve.cer,
                       ci_lo=curve.ci_lo, ci_hi=curve.ci_hi)
    # point 3 has under 100 errors: fit falls back to the first two
    assert estimate_diversity_slope(starved, (1e-4, 1e-2)) == pytest.approx(3.0, abs=1e-9)


def test_slope_window_validation():
    snr = np.array([7.0, 9.0])
    gamma = 10 ** (snr / 10)
    curve = curve_from_cer(snr, gamma ** -3.0)
    with pytest.raises(ConfigurationError):
        estimate_diversity_slope(curve, (1e-2, 1e-4))
    with pytest.raises(ConfigurationError):
        estimate_diversity_slope(curve, (0.0, 1e-2))


# ------------------------------------------------- scheme comparison (slope)

def test_proposed_beats_unprecoded_baseline_slope():
    # diversity 3 vs 1 on a 3x1 link; compare fitted slopes over a broad window
    window = (5e-4, 1e-1)
    snr = (4.0, 8.0, 12.0, 16.0, 20.0, 24.0)
    prop = run_cer_sweep(SimConfig(nr=1, constellation=preset(3, 1),
                                   snr_grid_db=snr, trials_per_point=150000,
                                   seed=11), threads=4)
    base = run_cer_sweep(SimConfig(nr=1, constellation=preset(3, 1),
                                   snr_grid_db=snr, trials_per_point=150000,
                                   seed=11, scheme="unprecoded_vblast"), threads=4)
    s_prop = estimate_diversity_slope(prop, window)
    s_base = estimate_diversity_slope(base, window)
    assert s_prop > s_base + 1.0, (s_prop, s_base)
