"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two high-diversity
slope checks are marked ``extended`` (deselect with ``-m "not extended"``);
everything else is the core suite.

The extended 3x2 and 8x1 checks measure the asymptotic diversity slope,
at 26-32 dB and 46-52 dB, where CERs of 1e-9 to 1e-17 are out of plain
Monte Carlo's reach. They use a CER estimate stratified on
g = ||H||_F^2 (and on the noise power along the effective channel) that
runs the program's precoder and decoder on every trial. It is exact only
while the distance identity ||h_eff||^2 = g holds, so the identity is
asserted on every trial, and the estimate is checked against
`run_cer_sweep` at an SNR plain Monte Carlo reaches.
"""

import os
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv

from fdprecode.channel import gram_polar, pair_columns
from fdprecode.constellation import (
    ConstellationSets,
    GridSpec,
    average_energy,
    check_full_diversity,
    min_sum_distance,
    optimize_rotations_scalings,
    preset,
    save_constellation,
    sum_constellation,
)
from fdprecode.detector import FastMLDecoder, codeword_matrix
from fdprecode.precoder import feedback_angles_batch
from fdprecode.simulator import (
    CerCurve,
    SimConfig,
    estimate_diversity_slope,
    ks_test_chisq,
    run_cer_sweep,
    sample_dmin_pdf,
)
from fdprecode.cli import main as cli_main

from draws import channels

CONFIGS = [(3, 1), (3, 2), (4, 1), (8, 1)]
THREADS = min(8, os.cpu_count() or 1)
Z95 = 1.959963984540054  # two-sided 95% normal quantile


def batch_channels(nt, nr, count, seed):
    return channels(seed, nt << 16 | nr, count, nr, nt)


def report(num, name):
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


def test_criterion_1_distance_identity():
    t0 = time.monotonic()
    for nt, nr in CONFIGS:
        h = batch_channels(nt, nr, 1000, 101)
        a, _ = feedback_angles_batch(h)
        f = np.repeat(a[:, :, None], nt, axis=2)
        x = codeword_matrix(preset(nt, 1))
        rng = np.random.default_rng([102, nt, nr])
        ki = rng.integers(0, x.shape[0], size=(1000, 10))
        kj = (ki + 1 + rng.integers(0, x.shape[0] - 1, size=(1000, 10))) % x.shape[0]
        dx = x[ki] - x[kj]  # (1000, 10, nt), never the zero pair
        fdx = np.einsum("bnm,bpm->bpn", f, dx)
        lhs = np.sum(np.abs(np.einsum("bon,bpn->bpo", h, fdx)) ** 2, axis=2)
        fro = np.sum(np.abs(h) ** 2, axis=(1, 2))
        rhs = fro[:, None] * np.abs(dx.sum(axis=2)) ** 2
        assert np.all(np.abs(lhs - rhs) < 1e-9 * rhs)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "distance identity, 4 configs x 1000 channels x 10 pairs")


def test_criterion_2_phase_condition_per_antenna():
    t0 = time.monotonic()
    for nt in (2, 3, 4, 5, 6, 8):
        for nr in (1, 2):
            h = batch_channels(nt, nr, 10000, 201)
            rho, alpha = gram_polar(h)
            theta = np.angle(feedback_angles_batch(h)[0])
            fro = np.sum(np.abs(h) ** 2, axis=(1, 2))
            for n in range(1, nt):
                cols = pair_columns(n)
                inner = np.sum(
                    rho[:, cols] * np.cos(theta[:, :n] - theta[:, n:n + 1] + alpha[:, cols]),
                    axis=1)
                assert np.all(np.abs(inner) < 1e-9 * fro)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(2, "per-antenna phase cancellation, 1e4 channels, nt up to 8")


def test_criterion_3_chisquare_match():
    t0 = time.monotonic()
    stats = []
    for nt, nr in CONFIGS:
        z = sample_dmin_pdf(nt, nr, 7, 100000, threads=THREADS)
        stat, p = ks_test_chisq(z, 2 * nt * nr)
        stats.append((nt, nr, stat, p))
        assert p >= 0.01, (nt, nr, stat, p)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(3, "chi-square match of 2||H||^2, " +
           ", ".join(f"{nt}x{nr} p={p:.3f}" for nt, nr, _, p in stats))


def _slope(nt, nr, snrs, target, cap, seed):
    cfg = SimConfig(nr=nr, constellation=preset(nt, 1), snr_grid_db=snrs,
                    trials_per_point=cap, seed=seed, target_errors=target)
    curve = run_cer_sweep(cfg, threads=THREADS)
    window = (1e-4, 1e-2)
    in_window = (curve.cer >= window[0]) & (curve.cer <= window[1])
    assert np.all(curve.errors[in_window] >= 200)
    return estimate_diversity_slope(curve, window), curve


def test_criterion_4_slope_3x1():
    slope, _ = _slope(3, 1, (20.0, 22.0, 24.0), 3000, 20_000_000, 20260810)
    assert abs(slope - 3.0) <= 0.5, slope
    report(4, f"3x1/1-bit diversity slope {slope:.2f} within 3 +- 0.5")


def test_criterion_4_slope_4x1():
    slope, _ = _slope(4, 1, (23.25, 23.75, 24.25), 4000, 40_000_000, 20260810)
    assert abs(slope - 4.0) <= 0.75, slope
    report(4, f"4x1/1-bit diversity slope {slope:.2f} within 4 +- 0.75")


# Stratum edges in x = g * d_min^2 / sigma^2, the pairwise SNR of the closest
# sums: geometric up to 8, then steps of 4 so that the error rate varies by a
# modest factor across any one stratum; above 160, one open stratum, whose
# CER contribution is negligible.
EDGES_X = np.concatenate(([0.0], np.geomspace(0.05, 8.0, 14), np.arange(12.0, 161.0, 4.0)))
STRATUM_TRIALS = 4000


def _gamma_stratum(k, lo, hi, u):
    """Draws of g ~ Gamma(k, 1) restricted to [lo, hi), and the stratum's probability.

    Inverse CDF on whichever tail is below 1/2, so neither a stratum near
    g = 0 nor the unbounded top stratum loses its probability to rounding.
    """
    p_lo, p_hi = gammainc(k, lo), gammainc(k, hi)
    q_lo, q_hi = gammaincc(k, lo), gammaincc(k, hi)
    p = p_lo + u * (p_hi - p_lo)
    q = q_lo - u * (q_lo - q_hi)
    g = np.where(p < 0.5, gammaincinv(k, p), gammainccinv(k, q))
    return g, (p_hi - p_lo if p_lo < 0.5 else q_lo - q_hi)


def _stratified_cer(nt, nr, snr_db, point, seed):
    """CER at one SNR point, stratified on g = ||H||_F^2 ~ Gamma(nt*nr, 1).

    H = sqrt(g) Z / ||Z||_F with Z i.i.d. CN(0, 1) has the exact Rayleigh
    law given g, because ||Z||_F is independent of Z / ||Z||_F. Each g
    stratum [g_j, g_j+1) is split once more on the noise power along h_eff,
    r^2 = |h_eff^H n|^2 / (g sigma^2) ~ Exp(1). The matched-filter output
    is s + w with |w|^2 = r^2 sigma^2 / ||h_eff||^2, so while the distance
    identity ||h_eff||^2 = g holds, r^2 < t_j = g_j d_min^2 / (4 sigma^2)
    puts s strictly nearest and cannot err. Only the part r^2 >= t_j, of
    probability exp(-t_j), is sampled: r^2 = t_j + Exp(1) along h_eff, with
    the orthogonal noise drawn as usual. Every trial runs the program's
    precoder and decoder. Stratum j of SNR point `point` takes its channel
    directions from point ``point << 16 | j`` of the test channels and its
    other draws from its own seeded Generator.

    The identity is asserted on every channel. It is what makes the error
    depend on H through g alone and what clears the unsampled part, so a
    precoder that broke it would otherwise pass unseen.

    Returns (cer, variance, raw error count, trials).
    """
    cs = preset(nt, 1)
    decoder = FastMLDecoder(sum_constellation(cs))
    sums = decoder.sums
    # the cleared part rests on d_min, so it comes from the sums, not the checker
    d2_min = np.min(np.abs(sums[:, None] - sums[None, :])[~np.eye(sums.size, dtype=bool)]) ** 2
    sigma2 = nt * average_energy(cs) / 10.0 ** (snr_db / 10.0)
    edges = np.append(EDGES_X * sigma2 / d2_min, np.inf)
    k = nt * nr
    n = STRATUM_TRIALS
    cer = var = 0.0
    raw_errors = 0
    total_weight = 0.0
    for j in range(edges.size - 1):
        rng = np.random.default_rng([seed, point, j])
        u = rng.random(n) + 2.0 ** -54  # strictly inside (0, 1)
        g, w = _gamma_stratum(k, edges[j], edges[j + 1], u)
        assert np.all((g > 0) & np.isfinite(g))
        z = channels(seed, point << 16 | j, n, nr, nt)
        h = np.sqrt(g / np.sum(np.abs(z) ** 2, axis=(1, 2)))[:, None, None] * z
        _, h_eff = feedback_angles_batch(h)
        deviation = np.abs(np.sum(np.abs(h_eff) ** 2, axis=1) - g) / g
        assert np.all(deviation <= 1e-9), \
            f"distance identity broken in stratum {j}: relative deviation {deviation.max():.3g}"
        # the margin keeps the cleared part clear of the 1e-9 identity slack
        t = EDGES_X[j] / 4.0 * (1.0 - 1e-6)
        along = h_eff / np.linalg.norm(h_eff, axis=1)[:, None]
        v = (rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr))) / np.sqrt(2.0)
        r = np.sqrt(t + rng.standard_exponential(n)) * np.exp(2j * np.pi * rng.random(n))
        v += (r - np.sum(along.conj() * v, axis=1))[:, None] * along
        sent = rng.integers(0, sums.size, size=n)
        y = h_eff * sums[sent][:, None] + np.sqrt(sigma2) * v
        errors = int(np.count_nonzero(decoder.decode_batch(y, h_eff) != sent))
        p = errors / n
        weight = w * np.exp(-t)
        cer += weight * p
        var += weight * weight * p * (1.0 - p) / n
        raw_errors += errors
        total_weight += w
    assert abs(total_weight - 1.0) <= 1e-12
    return cer, var, raw_errors, n * (edges.size - 1)


def _asymptotic_slope(nt, nr, check_snr, snrs, window, seed):
    """Diversity slope over `snrs` from stratified estimates, after checking
    the estimator against plain Monte Carlo at `check_snr`."""
    cer, var, _, _ = _stratified_cer(nt, nr, check_snr, 0, seed)
    cfg = SimConfig(nr=nr, constellation=preset(nt, 1), snr_grid_db=(check_snr,),
                    trials_per_point=4_000_000, seed=seed, target_errors=1000)
    mc = run_cer_sweep(cfg, threads=THREADS)
    half = Z95 * np.sqrt(var)
    assert cer - half <= mc.ci_hi[0] and mc.ci_lo[0] <= cer + half, \
        f"at {check_snr} dB: stratified {cer:.3e} +- {half:.2e}, " \
        f"run_cer_sweep [{mc.ci_lo[0]:.3e}, {mc.ci_hi[0]:.3e}]"

    points = [_stratified_cer(nt, nr, s, k, seed) for k, s in enumerate(snrs, start=1)]
    cer, var, errors, trials = (np.array(v) for v in zip(*points))
    assert np.all(errors >= 100), errors
    assert np.all(np.sqrt(var) <= 0.25 * cer), np.sqrt(var) / cer
    assert np.all((cer >= window[0]) & (cer <= window[1])), cer
    half = Z95 * np.sqrt(var)
    curve = CerCurve(snr_db=np.array(snrs), trials=trials, errors=errors, cer=cer,
                     ci_lo=cer - half, ci_hi=cer + half)
    return estimate_diversity_slope(curve, window)


# Windows where the union-bound model's local slope is within 0.25 of nt*nr;
# the CER windows bracket the estimates there. The check points sit in the
# range plain Monte Carlo reaches.
@pytest.mark.extended
def test_criterion_4_slope_3x2_extended():
    slope = _asymptotic_slope(3, 2, 14.5, (26.0, 29.0, 32.0), (1e-16, 1e-8), 20260810)
    assert abs(slope - 6.0) <= 1.0, slope
    report(4, f"3x2/1-bit diversity slope {slope:.2f} within 6 +- 1.0 (extended)")


@pytest.mark.extended
def test_criterion_4_slope_8x1_extended():
    slope = _asymptotic_slope(8, 1, 32.0, (46.0, 49.0, 52.0), (1e-19, 1e-11), 20260810)
    assert abs(slope - 8.0) <= 1.0, slope
    report(4, f"8x1/1-bit diversity slope {slope:.2f} within 8 +- 1.0 (extended)")


def test_criterion_5_decoder_equivalence():
    t0 = time.monotonic()
    for nt, bits, sigma2 in [(3, 1, 0.5), (4, 2, 0.2)]:
        cs = preset(nt, bits)
        x = codeword_matrix(cs)
        decoder = FastMLDecoder(sum_constellation(cs))
        n = 10000
        h = batch_channels(nt, 1, n, 500 + nt)
        a, _ = feedback_angles_batch(h)
        f = np.repeat(a[:, :, None], nt, axis=2)
        rng = np.random.default_rng([501, nt, bits])
        k_true = rng.integers(0, x.shape[0], size=n)
        noise = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) \
            * np.sqrt(sigma2 / 2)
        hf = np.einsum("bon,bnm->bom", h, f)
        y = np.einsum("bom,bm->bo", hf, x[k_true]) + noise
        # brute force: argmin over the full codebook of ||y - (H F) x_k||^2
        cand = np.einsum("bom,km->bko", hf, x)
        metrics = np.sum(np.abs(y[:, None, :] - cand) ** 2, axis=2)
        brute = np.argmin(metrics, axis=1)
        h_eff = np.einsum("bon,bn->bo", h, a)
        fast = decoder.decode_batch(y, h_eff)
        assert np.array_equal(brute, fast), f"{np.sum(brute != fast)} disagreements"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(5, "fast and brute-force ML identical on 2 x 1e4 noisy trials")


def exact_min_distance(points):
    """Minimum pairwise distance, independent of the module's pair scan.

    A k-d tree finds every point's nearest neighbour; then every pair within
    a hair of the smallest such distance is re-measured exactly as abs() of
    the complex difference, the same metric the module uses.
    """
    tree = cKDTree(np.stack([points.real, points.imag], axis=1))
    nearest = float(tree.query(tree.data, k=2)[0][:, 1].min())
    # slack covers both the 1e-9 tie window and the tree's rounding
    pairs = tree.query_pairs(nearest * (1 + 1e-9) + 1e-12, output_type="ndarray")
    return float(np.abs(points[pairs[:, 0]] - points[pairs[:, 1]]).min())


def test_criterion_6_table_presets():
    anchors = {(3, 1): 1.35, (4, 2): 0.25}
    for nt, bits in [(3, 1), (3, 2), (4, 1), (4, 2), (8, 1), (8, 2), (16, 1)]:
        cs = preset(nt, bits)
        rep = check_full_diversity(cs, 1e-12)
        assert rep.passes, (nt, bits)
        oracle = exact_min_distance(sum_constellation(cs))
        module = min_sum_distance(cs)
        assert module == oracle, (nt, bits, module, oracle)
        if (nt, bits) in anchors:
            assert module == pytest.approx(anchors[(nt, bits)], rel=1e-12)
    # the 4-bit presets' verdict under odd-integer levels: FAIL, with the
    # documented partial-sum collision as witness
    assert (1 / 14 + 3 / 28) == (3 / 14 - 1 / 28)
    for nt in (3, 4):
        cs = preset(nt, 4)
        rep = check_full_diversity(cs, 1e-12)
        assert not rep.passes, (nt, 4)
        a, b = rep.witness
        sum_a = sum(cs.sets[i][a[i]] for i in range(nt))
        sum_b = sum(cs.sets[i][b[i]] for i in range(nt))
        assert abs(sum_a - sum_b) <= 1e-12
    report(6, "seven presets verified exhaustively; 4-bit verdict recorded as FAIL")


def test_criterion_7_optimizer_recovery():
    t0 = time.monotonic()
    base = ConstellationSets(
        (np.array([-1.0, 1.0]), np.array([-1j, 1j]), np.array([-1.0, 1.0])), 1)
    b_step, phi_step = 0.025, np.pi / 36
    result = optimize_rotations_scalings(base, GridSpec(b_step, phi_step), 2.455625)
    elapsed = time.monotonic() - t0
    assert abs(result.scales[2] - 0.675) <= b_step + 1e-12
    assert abs(result.rotations[2] - np.pi / 4) <= phi_step + 1e-12
    # lone third-set differences move by 2 * b_step per scale step
    assert result.min_sum_distance >= 1.35 - 2 * b_step
    assert result.min_sum_distance == min_sum_distance(result.sets)
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(7, f"optimizer recovery (b, phi) = ({result.scales[2]:.3f}, "
              f"{result.rotations[2]:.4f}) in {elapsed:.1f}s")


def test_criterion_8_byte_identical_csv(tmp_path):
    args = ["simulate", "--preset", "3x1", "--nr", "1", "--snr", "8:16:4",
            "--trials", "60000", "--seed", "4242"]
    out1 = tmp_path / "t1.csv"
    assert cli_main(args + ["--threads", "1", "--out", str(out1)]) == 0
    out2 = tmp_path / "t8.csv"
    assert cli_main(args + ["--threads", "8", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    out3 = tmp_path / "t_manifest.csv"
    assert cli_main(["simulate", "--config", str(out1) + ".manifest.json",
                     "--threads", "8", "--out", str(out3)]) == 0
    assert out3.read_bytes() == b1
    report(8, "simulate CSV byte-identical at 1 and 8 threads and from manifest")
