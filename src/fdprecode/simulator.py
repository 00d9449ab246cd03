"""Monte Carlo engine: CER sweeps, d^2_min distribution sampling, slope fits.

Every trial owns a fixed-width window of the Philox counter space (see
`streams`), so per-trial randomness depends only on (seed, purpose, SNR-point
index, trial index). CER sweeps and d^2_min sampling share one schedule,
`_groups`: fixed-size batches of trials in fixed-size groups, each group
built and run only when its turn comes, with the early-stopping rule checked
between groups. So counts and the stopping decision are bit-identical for
any worker count. Each call opens one thread pool when threads > 1; one
thread runs every batch on the calling thread.

SNR convention: the grid is average received SNR per receive antenna. For
the proposed scheme E||H F x||^2 = nt * nr * Es (the rank-one precoder adds
an nt-fold array gain), so sigma^2 = nt * Es / gamma; the unprecoded
baseline receives Es per antenna, so sigma^2 = Es / gamma, with
Es = sum_i E|x_i|^2 in both cases.

`scipy.special` is imported by the calls that use it (the KS test here, the
normal draws in `streams`), so the design commands never load it.
"""

import concurrent.futures
import contextlib
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import streams
# gram_polar is unused here: perfbench/tracing.py looks it up on this module to wrap it
from .channel import gram_polar, rayleigh, scaled_complex
from .constellation import ConstellationSets, average_energy, sum_constellation
from .detector import FastMLDecoder, codeword_matrix, exhaustive_decode_batch
from .errors import ConfigurationError
from .precoder import feedback_angles_batch

SCHEMES = ("proposed", "unprecoded_vblast")

_BATCH = 1 << 15        # trials vectorized together
_GROUP_BATCHES = 4      # stopping-rule granularity, fixed so thread count is irrelevant
_WILSON_Z = 1.959963984540054  # two-sided 95%
_MAX_COUNT = 1 << 24    # d^2_min samples held at once for the sort and KS test (128 MB)
KS_MIN_SAMPLES = 100    # the asymptotic KS p-value is not trusted below this
_KS_CHUNK = 1 << 20     # sorted samples per KS step, bounding its temporaries to a few MB
_KS_STRIDE = 64         # sorted samples per KS block, bounded from its first CDF value
_KS_SLACK = 1e-9        # absorbs rounding in gammainc and in the block bounds
_MAX_WORDS = 1 << 10    # uniforms per trial, so one batch's draw table stays within 256 MB


def _check_run(nt: int, nr: int, seed: int, words: int) -> None:
    """Check antenna counts, seed and draw table size (`words` uniforms per trial)."""
    if nt < 1 or nr < 1:
        raise ConfigurationError(f"antenna counts must be >= 1, got nt={nt}, nr={nr}")
    if words > _MAX_WORDS:
        raise ConfigurationError(f"nr={nr}, nt={nt}: {words} draws per trial, over {_MAX_WORDS}")
    # streams keys Philox with seed & (2**128 - 1): a wider seed would alias another
    if not 0 <= seed < 1 << 128:
        raise ConfigurationError(f"seed must be in [0, 2**128), got {seed}")


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved simulation parameters; immutable and hashable by identity."""

    nr: int
    constellation: ConstellationSets
    snr_grid_db: tuple
    trials_per_point: int
    seed: int
    scheme: str = "proposed"
    target_errors: int | None = None

    def __post_init__(self):
        _check_run(self.nt, self.nr, self.seed, self.words_per_trial)
        grid = tuple(float(s) for s in self.snr_grid_db)
        if len(grid) == 0:
            raise ConfigurationError("snr_grid_db must not be empty")
        if not all(math.isfinite(s) for s in grid):
            raise ConfigurationError(f"snr_grid_db must be finite, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigurationError(f"snr_grid_db must be strictly increasing, got {grid}")
        object.__setattr__(self, "snr_grid_db", grid)
        for s in grid:
            try:
                ok = 0.0 < self.sigma2(s) < math.inf
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ConfigurationError(
                    f"snr_grid_db point {s:g} dB gives a noise variance that is not finite and positive")
        if self.trials_per_point < 1:
            raise ConfigurationError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.target_errors is not None and self.target_errors < 1:
            raise ConfigurationError(f"target_errors must be >= 1, got {self.target_errors}")

    @property
    def nt(self) -> int:
        return self.constellation.nt

    @property
    def words_per_trial(self) -> int:
        return 2 * self.nr * self.nt + self.nt + 2 * self.nr  # channel, codeword, noise

    @property
    def bits_per_symbol(self) -> int:
        return self.constellation.bits_per_symbol

    def sigma2(self, snr_db: float) -> float:
        """Noise variance per receive antenna at `snr_db` (see the module notes)."""
        gamma = 10.0 ** (snr_db / 10.0)
        scale = self.nt if self.scheme == "proposed" else 1.0
        return scale * average_energy(self.constellation) / gamma


@dataclass(frozen=True)
class CerCurve:
    """Per-SNR-point error counts with Wilson 95% intervals."""

    snr_db: np.ndarray
    trials: np.ndarray
    errors: np.ndarray
    cer: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray


def wilson_interval(errors, trials):
    """Wilson 95% score interval for a binomial proportion."""
    z = _WILSON_Z
    errors = np.asarray(errors, dtype=float)
    trials = np.asarray(trials, dtype=float)
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = np.where(errors == 0, 0.0, np.maximum(center - half, 0.0))
    hi = np.where(errors == trials, 1.0, np.minimum(center + half, 1.0))
    return lo, hi


class _Engine:
    """Precomputed tables plus the per-batch trial pipeline for one config;
    `symbols[k]` is what codeword k sends: its sum, or its row (baseline)."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.m = 1 << cfg.bits_per_symbol  # points per antenna set
        self.n_h = 2 * cfg.nr * cfg.nt
        if cfg.scheme == "proposed":
            self.symbols = sum_constellation(cfg.constellation)
            self.decoder = FastMLDecoder(self.symbols)
        else:
            self.symbols = codeword_matrix(cfg.constellation)
            self.decoder = None

    def run_batch(self, point_idx: int, sigma2: float, first: int, count: int) -> int:
        cfg = self.cfg
        nt, nr = cfg.nt, cfg.nr
        u = streams.trial_uniforms(cfg.seed, streams.PURPOSE_CER, point_idx, first, count,
                                   cfg.words_per_trial)
        h = rayleigh(streams.normal_from_uniform(u[:, :self.n_h]), nr, nt)
        cw = (u[:, self.n_h:self.n_h + nt] * self.m).astype(np.int64)  # u < 1, so cw < m
        gn = streams.normal_from_uniform(u[:, self.n_h + nt:])
        noise = scaled_complex(gn[:, :nr], gn[:, nr:], np.sqrt(sigma2 / 2.0))
        true_idx = np.ravel_multi_index(tuple(cw.T), (self.m,) * nt)
        x = self.symbols[true_idx]

        if cfg.scheme == "proposed":
            _, h_eff = feedback_angles_batch(h)
            y = h_eff * x[:, None] + noise
            decisions = self.decoder.decode_batch(y, h_eff)
        else:
            y = np.einsum("bon,bn->bo", h, x) + noise
            decisions = exhaustive_decode_batch(y, h, self.symbols)
        return int(np.count_nonzero(decisions != true_idx))


def _pool(threads: int):
    """Context giving a thread pool for threads > 1, else None (the calling thread)."""
    if not isinstance(threads, numbers.Integral) or threads < 1:
        raise ConfigurationError(f"threads must be a positive integer, got {threads!r}")
    if threads > 1:
        return concurrent.futures.ThreadPoolExecutor(max_workers=threads)
    return contextlib.nullcontext()


def _groups(fn, total: int, pool):
    """Run fn(first, n) over trials 0..total-1, one group of batches at a time.

    Yields (trials done so far, the group's results in batch order). A group
    is built and submitted only when the caller asks for it, so stopping
    early leaves nothing queued.
    """
    step = _GROUP_BATCHES * _BATCH
    for g0 in range(0, total, step):
        end = min(g0 + step, total)
        firsts = range(g0, end, _BATCH)
        counts = [min(_BATCH, end - first) for first in firsts]
        yield end, list((pool.map if pool else map)(fn, firsts, counts))


def run_cer_sweep(cfg: SimConfig, threads: int = 1) -> CerCurve:
    """Simulate the codeword error rate at every SNR grid point.

    Deterministic for a given seed: the same config yields bit-identical
    counts at any thread count. With `target_errors` set, a point stops at
    the first fixed-size trial group whose cumulative error count reaches
    the target (still capped by trials_per_point).
    """
    trials = np.zeros(len(cfg.snr_grid_db), dtype=np.int64)
    errors = np.zeros(len(cfg.snr_grid_db), dtype=np.int64)
    with _pool(threads) as pool:
        engine = _Engine(cfg)
        for k, snr_db in enumerate(cfg.snr_grid_db):
            sigma2 = cfg.sigma2(snr_db)
            run = functools.partial(engine.run_batch, k, sigma2)
            for done, counts in _groups(run, cfg.trials_per_point, pool):
                trials[k] = done
                errors[k] += sum(counts)
                if cfg.target_errors is not None and errors[k] >= cfg.target_errors:
                    break
    cer = errors / trials
    lo, hi = wilson_interval(errors, trials)
    return CerCurve(snr_db=np.array(cfg.snr_grid_db), trials=trials, errors=errors,
                    cer=cer, ci_lo=lo, ci_hi=hi)


def sample_dmin_pdf(nt: int, nr: int, seed: int, count: int, threads: int = 1) -> np.ndarray:
    """Draw `count` samples of z = 2 ||H||_F^2, one per nr x nt channel realization.

    By the distance identity, d^2 between codewords is ||H||_F^2 |sum dx|^2,
    so z equals 2 d^2_min / min_sum_distance^2; the factor 2 makes z exactly
    chi-square with 2 * nt * nr degrees of freedom under CN(0, 1) entries.
    """
    _check_run(nt, nr, seed, 2 * nr * nt)
    if not 1 <= count <= _MAX_COUNT:
        raise ConfigurationError(f"count must lie in [1, {_MAX_COUNT}], got {count}")

    def draw(first, n):
        u = streams.trial_uniforms(seed, streams.PURPOSE_DMIN, 0, first, n, 2 * nr * nt)
        g = streams.normal_from_uniform(u)
        return np.sum(np.square(g, out=g), axis=1)  # 2*|h|^2 summed = 2*||H||_F^2 directly

    out = np.empty(count)
    with _pool(threads) as pool:
        for done, group in _groups(draw, count, pool):
            z = np.concatenate(group)
            out[done - z.size:done] = z
    return out


def ks_test_chisq(samples: np.ndarray, dof: int):
    """One-sample Kolmogorov-Smirnov test against the chi-square CDF.

    The reference CDF is the regularized lower incomplete gamma
    F = P(dof/2, x/2); the p-value is the asymptotic Kolmogorov distribution.
    F is monotone, so its value at the first of each _KS_STRIDE sorted samples
    bounds every term of that block; only blocks whose bound reaches the
    largest block-start term are evaluated, so the statistic stays exact.
    Input already in non-decreasing order is read as it is, without a copy.
    """
    from scipy.special import gammainc, kolmogorov

    if dof <= 0:
        raise ConfigurationError(f"degrees of freedom must be positive, got {dof}")
    if dof % 2 != 0:
        raise ConfigurationError(f"degrees of freedom must be even, got {dof}")
    values = np.asarray(samples, dtype=float)
    if not np.all(values[1:] >= values[:-1]):  # a NaN fails this, and np.sort puts it last
        values = np.sort(values)
    n = values.size
    if n < KS_MIN_SAMPLES:
        raise ConfigurationError(f"need at least {KS_MIN_SAMPLES} samples, got {n}")
    if not (values[0] >= 0 and values[-1] < np.inf):  # NaN sorts last
        bad = n - np.count_nonzero((values >= 0) & (values < np.inf))
        raise ConfigurationError(f"samples must be finite and non-negative, {bad} of {n} are not")
    starts = np.arange(0, n, _KS_STRIDE)
    f = gammainc(dof / 2.0, values[::_KS_STRIDE] / 2.0)
    stat = max(np.max((starts + 1) / n - f), np.max(f - starts / n))
    upper = np.maximum(np.minimum(starts + _KS_STRIDE, n) / n - f,
                       np.append(f[1:], 1.0) - starts / n)
    blocks = np.flatnonzero(upper >= stat - _KS_SLACK)
    step = _KS_CHUNK // _KS_STRIDE
    for lo in range(0, blocks.size, step):
        j = (blocks[lo:lo + step, None] * _KS_STRIDE + np.arange(_KS_STRIDE)).ravel()
        np.minimum(j, n - 1, out=j)  # the last block may be short
        ref = gammainc(dof / 2.0, values[j] / 2.0)
        i = j + 1
        stat = max(stat, np.max(i / n - ref), np.max(ref - (i - 1) / n))
    return float(stat), float(kolmogorov(np.sqrt(n) * stat))


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
