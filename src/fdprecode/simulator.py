"""Monte Carlo engine: CER sweeps, d^2_min distribution sampling, slope fits.

Every trial owns a fixed-width window of the Philox counter space (see
`streams`), so per-trial randomness depends only on (seed, purpose, SNR-point
index, trial index). Trials are batched for vectorization and batches are
grouped for the optional early-stopping rule; both batch and group sizes are
constants, so error counts are bit-identical for any worker count and the
stopping decision is too.

SNR convention: the grid is average received SNR per receive antenna. For
the proposed scheme E||H F x||^2 = nt * nr * Es (the rank-one precoder adds
an nt-fold array gain), so sigma^2 = nt * Es / gamma; the unprecoded
baseline receives Es per antenna, so sigma^2 = Es / gamma, with
Es = sum_i E|x_i|^2 in both cases.
"""

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, kolmogorov

from . import streams
from .channel import gram_polar
from .constellation import ConstellationSets, average_energy, sum_constellation
from .detector import FastMLDecoder, codeword_matrix, exhaustive_decode_batch
from .errors import ConfigurationError
from .precoder import feedback_angles_batch

SCHEMES = ("proposed", "unprecoded_vblast")

_BATCH = 1 << 15        # trials vectorized together
_GROUP_BATCHES = 4      # stopping-rule granularity, fixed so thread count is irrelevant
_WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved simulation parameters; immutable and hashable by identity."""

    nt: int
    nr: int
    constellation: ConstellationSets
    snr_grid_db: tuple
    trials_per_point: int
    seed: int
    scheme: str = "proposed"
    target_errors: int | None = None
    noiseless: bool = False

    def __post_init__(self):
        if self.nt < 1 or self.nr < 1:
            raise ConfigurationError(f"antenna counts must be >= 1, got nt={self.nt}, nr={self.nr}")
        if self.constellation.nt != self.nt:
            raise ConfigurationError(
                f"constellation has {self.constellation.nt} sets but nt={self.nt}")
        grid = tuple(float(s) for s in self.snr_grid_db)
        if len(grid) == 0:
            raise ConfigurationError("snr_grid_db must not be empty")
        if not all(math.isfinite(s) for s in grid):
            raise ConfigurationError(f"snr_grid_db must be finite, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigurationError(f"snr_grid_db must be strictly increasing, got {grid}")
        object.__setattr__(self, "snr_grid_db", grid)
        if self.trials_per_point < 1:
            raise ConfigurationError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.target_errors is not None and self.target_errors < 1:
            raise ConfigurationError(f"target_errors must be >= 1, got {self.target_errors}")
        # streams keys Philox with seed & (2**128 - 1): a wider seed would alias another
        if not 0 <= self.seed < 1 << 128:
            raise ConfigurationError(f"seed must be in [0, 2**128), got {self.seed}")

    @property
    def bits_per_symbol(self) -> int:
        return self.constellation.bits_per_symbol


@dataclass(frozen=True)
class CerCurve:
    """Per-SNR-point error counts with Wilson 95% intervals."""

    snr_db: np.ndarray
    trials: np.ndarray
    errors: np.ndarray
    cer: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray


@dataclass(frozen=True)
class DminSamples:
    """Normalized squared-minimum-distance samples z = 2 ||H||_F^2."""

    samples: np.ndarray
    nt: int
    nr: int

    @property
    def count(self) -> int:
        return self.samples.size


def wilson_interval(errors, trials, z: float = _WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    errors = np.asarray(errors, dtype=float)
    trials = np.asarray(trials, dtype=float)
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = np.where(errors == 0, 0.0, np.maximum(center - half, 0.0))
    hi = np.where(errors == trials, 1.0, np.minimum(center + half, 1.0))
    return lo, hi


def _per_antenna_indices(u: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    return np.minimum((u * sizes).astype(np.int64), sizes - 1)


class _Engine:
    """Precomputed tables plus the per-batch trial pipeline for one config."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        cs = cfg.constellation
        self.sets = cs.sets
        self.sizes = np.array([c.size for c in cs.sets], dtype=np.int64)
        self.es = average_energy(cs)
        nt, nr = cfg.nt, cfg.nr
        self.n_h = 2 * nr * nt
        self.words_per_trial = self.n_h + nt + 2 * nr
        self.blocks_per_trial = (self.words_per_trial + 3) // 4
        if cfg.scheme == "proposed":
            self.decoder = FastMLDecoder(sum_constellation(cs))
            self.codewords = None
        else:
            self.codewords = codeword_matrix(cs)
            self.decoder = None

    def sigma2(self, snr_db: float) -> float:
        gamma = 10.0 ** (snr_db / 10.0)
        scale = self.cfg.nt if self.cfg.scheme == "proposed" else 1.0
        return scale * self.es / gamma

    def run_batch(self, point_idx: int, sigma2: float, first: int, count: int) -> int:
        cfg = self.cfg
        nt, nr = cfg.nt, cfg.nr
        raw = streams.raw_block(cfg.seed, streams.PURPOSE_CER, point_idx,
                                first * self.blocks_per_trial, count * self.blocks_per_trial)
        u = streams.uniform_open(raw.reshape(count, 4 * self.blocks_per_trial))
        g = streams.normal_from_uniform(u[:, :self.n_h])
        h = (g[:, :nr * nt] + 1j * g[:, nr * nt:self.n_h]).reshape(count, nr, nt) / np.sqrt(2.0)
        cw = _per_antenna_indices(u[:, self.n_h:self.n_h + nt], self.sizes)
        if cfg.noiseless:
            noise = 0.0
        else:
            gn = streams.normal_from_uniform(u[:, self.n_h + nt:self.words_per_trial])
            noise = (gn[:, :nr] + 1j * gn[:, nr:]) * np.sqrt(sigma2 / 2.0)

        true_idx = np.zeros(count, dtype=np.int64)
        for i in range(nt):
            true_idx = true_idx * self.sizes[i] + cw[:, i]

        if cfg.scheme == "proposed":
            rho, alpha = gram_polar(h)
            a = np.exp(1j * feedback_angles_batch(rho, alpha))
            h_eff = np.einsum("bon,bn->bo", h, a)
            s = np.zeros(count, dtype=complex)
            for i in range(nt):
                s = s + self.sets[i][cw[:, i]]
            y = h_eff * s[:, None] + noise
            decisions = self.decoder.decode_batch(y, h_eff)
        else:
            x = np.stack([self.sets[i][cw[:, i]] for i in range(nt)], axis=1)
            y = np.einsum("bon,bn->bo", h, x) + noise
            decisions = exhaustive_decode_batch(y, h, self.codewords)
        return int(np.count_nonzero(decisions != true_idx))


def _run_point(engine: _Engine, point_idx: int, sigma2: float, threads: int):
    cfg = engine.cfg
    total = cfg.trials_per_point
    batches = [(first, min(_BATCH, total - first)) for first in range(0, total, _BATCH)]
    trials_done = 0
    errors = 0
    group = _GROUP_BATCHES

    def run(b):
        return engine.run_batch(point_idx, sigma2, b[0], b[1])

    if threads > 1:
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=threads)
    else:
        pool = None
    try:
        for g0 in range(0, len(batches), group):
            chunk = batches[g0:g0 + group]
            counts = list(pool.map(run, chunk)) if pool else [run(b) for b in chunk]
            errors += sum(counts)
            trials_done += sum(c for _, c in chunk)
            if cfg.target_errors is not None and errors >= cfg.target_errors:
                break
    finally:
        if pool:
            pool.shutdown()
    return trials_done, errors


def run_cer_sweep(cfg: SimConfig, threads: int = 1) -> CerCurve:
    """Simulate the codeword error rate at every SNR grid point.

    Deterministic for a given seed: the same config yields bit-identical
    counts at any thread count. With `target_errors` set, a point stops at
    the first fixed-size trial group whose cumulative error count reaches
    the target (still capped by trials_per_point).
    """
    engine = _Engine(cfg)
    trials = np.zeros(len(cfg.snr_grid_db), dtype=np.int64)
    errors = np.zeros(len(cfg.snr_grid_db), dtype=np.int64)
    for k, snr_db in enumerate(cfg.snr_grid_db):
        sigma2 = engine.sigma2(snr_db)
        trials[k], errors[k] = _run_point(engine, k, sigma2, threads)
    cer = errors / trials
    lo, hi = wilson_interval(errors, trials)
    return CerCurve(snr_db=np.array(cfg.snr_grid_db), trials=trials, errors=errors,
                    cer=cer, ci_lo=lo, ci_hi=hi)


def sample_dmin_pdf(cfg: SimConfig, count: int, threads: int = 1) -> DminSamples:
    """Draw `count` samples of z = 2 ||H||_F^2, one per channel realization.

    By the distance identity, d^2 between codewords is ||H||_F^2 |sum dx|^2,
    so z equals 2 d^2_min / min_sum_distance^2; the factor 2 makes z exactly
    chi-square with 2 * nt * nr degrees of freedom under CN(0, 1) entries.
    """
    if cfg.scheme != "proposed":
        raise ConfigurationError("d^2_min sampling applies to the proposed scheme only")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    nt, nr = cfg.nt, cfg.nr
    words = 2 * nr * nt
    bpt = (words + 3) // 4

    def draw(first, n):
        raw = streams.raw_block(cfg.seed, streams.PURPOSE_DMIN, 0, first * bpt, n * bpt)
        u = streams.uniform_open(raw.reshape(n, 4 * bpt))[:, :words]
        g = streams.normal_from_uniform(u)
        return np.sum(g * g, axis=1)  # 2*|h|^2 summed = 2*||H||_F^2 directly

    batches = [(first, min(_BATCH, count - first)) for first in range(0, count, _BATCH)]
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: draw(*b), batches))
    else:
        parts = [draw(*b) for b in batches]
    return DminSamples(samples=np.concatenate(parts), nt=nt, nr=nr)


def ks_test_chisq(samples: DminSamples, dof: int):
    """One-sample Kolmogorov-Smirnov test against the chi-square CDF.

    The reference CDF is the regularized lower incomplete gamma
    P(dof/2, x/2); the p-value is the asymptotic Kolmogorov distribution.
    """
    if dof <= 0:
        raise ConfigurationError(f"degrees of freedom must be positive, got {dof}")
    if dof % 2 != 0:
        raise ConfigurationError(f"degrees of freedom must be even, got {dof}")
    values = np.sort(np.asarray(samples.samples, dtype=float))
    n = values.size
    if n < 100:
        raise ConfigurationError(f"need at least 100 samples, got {n}")
    ref = gammainc(dof / 2.0, values / 2.0)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - ref)
    d_minus = np.max(ref - (i - 1) / n)
    stat = float(max(d_plus, d_minus))
    return stat, float(kolmogorov(np.sqrt(n) * stat))


def estimate_diversity_slope(curve: CerCurve, window: tuple) -> float:
    """Least-squares slope of -log10(CER) vs log10(SNR) over windowed points.

    Only points with CER inside [window[0], window[1]] and at least 100
    recorded errors enter the fit; fewer than two such points is an error
    (the slope is never extrapolated).
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ConfigurationError(f"window must satisfy 0 < lo < hi, got {window}")
    mask = (curve.cer >= lo) & (curve.cer <= hi) & (curve.errors >= 100)
    if int(mask.sum()) < 2:
        raise ConfigurationError(
            f"insufficient points for a slope fit: {int(mask.sum())} in window {window} "
            "with >= 100 errors")
    x = curve.snr_db[mask] / 10.0
    y = -np.log10(curve.cer[mask])
    return float(np.polyfit(x, y, 1)[0])
