"""Monte Carlo engine: CER sweeps, d^2_min distribution sampling, slope fits.

Every trial owns a fixed-width window of the Philox counter space (see
`streams`), so per-trial randomness depends only on (seed, purpose, SNR-point
index, trial index). CER sweeps and d^2_min sampling share one schedule,
`_groups`: fixed-size tiles of trials in fixed-size groups, each group
built and run only when its turn comes, with the early-stopping rule checked
between groups. So counts and the stopping decision are bit-identical for
any worker count. With threads > 1 each call opens threads - 1 helper
threads, which take a group's tiles beside the calling thread; one thread
runs every tile on the calling thread.

A tile is `_TILE` trials vectorized together, so that its arrays stay in
cache. Each stage, from the draws to the decoder's gathers, sizes its own
tile-sized arrays and takes them from the `alloc(shape, dtype)` it is
passed, here a frame of the engine's `Workspace` (see `workspace`): after a
thread's first tile, tiles allocate, free and page-fault nothing
tile-sized. Each trial owns its Philox window and every stage works row by
row, so counts do not depend on the tile size. A proposed-scheme tile hands
its channel normals to `feedback_angles_batch`, which walks the antennas
one column at a time and returns only h_eff = H a, so no (nt, B, nr)
channel batch and no (nt, B) phasors are held; the unprecoded baseline
builds the `rayleigh` batch its decoder reads.

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
import threading
from dataclasses import dataclass

import numpy as np

from . import streams
# gram_polar is unused here: perfbench/tracing.py looks it up on this module to wrap it
from .channel import gram_polar, rayleigh, scaled_complex
from .constellation import ConstellationSets, average_energy, sum_constellation
from .detector import ExhaustiveDecoder, FastMLDecoder, codeword_matrix
from .errors import ConfigurationError
# run_tile calls the walk by this module's name, which perfbench/tracing.py wraps
from .precoder import feedback_angles_batch
from .workspace import Workspace

SCHEMES = ("proposed", "unprecoded_vblast")

_TILE = 1 << 12         # trials per task, vectorized together so a tile's arrays stay in cache
_GROUP = 1 << 17        # stopping-rule granularity in trials, fixed so thread count is irrelevant
_WILSON_Z = 1.959963984540054  # two-sided 95%
_MAX_COUNT = 1 << 24    # d^2_min samples held at once for the sort and KS test (128 MB)
KS_MIN_SAMPLES = 100    # the asymptotic KS p-value is not trusted below this
_KS_CHUNK = 1 << 20     # sorted samples per KS step, bounding its temporaries to a few MB
_ORDER_CHUNK = 1 << 16  # adjacent pairs per step of the KS order check (a 64 KB bool temporary)
_KS_STRIDE = 64         # sorted samples per KS block, bounded from its first CDF value
_KS_SLACK = 1e-9        # absorbs rounding in gammainc and in the block bounds
_MAX_WORDS = 1 << 10    # uniforms per trial, so one tile's draw table stays within 32 MB


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
    """Precomputed tables plus the per-tile trial pipeline for one config;
    `symbols[k]` is what codeword k sends: its sum, or its row (baseline)."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.m = 1 << cfg.bits_per_symbol  # points per antenna set
        self.n_h = 2 * cfg.nr * cfg.nt
        self.radix = float(self.m) ** np.arange(cfg.nt - 1, -1, -1)
        self.workspace = Workspace()
        if cfg.scheme == "proposed":
            self.symbols = sum_constellation(cfg.constellation)
            self.decoder = FastMLDecoder(self.symbols)
        else:
            self.symbols = codeword_matrix(cfg.constellation)
            self.decoder = ExhaustiveDecoder(cfg.constellation)

    def run_tile(self, point_idx: int, sigma2: float, first: int, count: int) -> int:
        """Codeword errors among trials [first, first + count), whose arrays
        come from one frame of this thread's workspace."""
        cfg = self.cfg
        nt, nr, n_h = cfg.nt, cfg.nr, self.n_h
        with self.workspace.frame() as alloc:
            u = streams.trial_uniforms(cfg.seed, streams.PURPOSE_CER, point_idx, first, count,
                                       cfg.words_per_trial, alloc)
            g = streams.normal_from_uniform(u[:, :n_h])  # the channel's normals
            # the transfer's buffers come right after the draws: in that order the
            # buffers freed after a call leave the least heap behind (study-nt3 peak RSS)
            if cfg.scheme == "proposed":
                transfer = feedback_angles_batch(g, nr, nt, alloc)  # h_eff
            else:
                transfer = rayleigh(g, nr, nt, alloc)
            digits = u[:, n_h:n_h + nt]
            np.floor(np.multiply(digits, self.m, out=digits), out=digits)  # u < 1, so each is below m
            # the mixed-radix codeword index, row-major over antennas: exact in floats below 2**53
            true_idx = alloc((count,), np.int64)
            np.copyto(true_idx, np.matmul(digits, self.radix, out=alloc((count,))), casting="unsafe")
            gn = streams.normal_from_uniform(u[:, n_h + nt:])
            noise = scaled_complex(gn[:, :nr], gn[:, nr:], np.sqrt(sigma2 / 2.0),
                                   alloc((count, nr), complex))
            x = alloc((count,) + self.symbols.shape[1:], complex)
            # clip mode writes out= in place, where raise mode copies; every index is in range
            np.take(self.symbols, true_idx, axis=0, out=x, mode="clip")
            y = alloc((count, nr), complex)
            if cfg.scheme == "proposed":
                np.multiply(transfer, x[:, None], out=y)
            else:
                np.einsum("bon,bn->bo", transfer, x, out=y)
            y += noise
            decisions = self.decoder.decode_batch(y, transfer, alloc)
            return int(np.count_nonzero(np.not_equal(decisions, true_idx, out=alloc((count,), bool))))


@contextlib.contextmanager
def _pool(threads: int):
    """Context giving `start(work, n)`, which runs work() on up to n of
    threads - 1 helper threads and returns their futures; None for one thread."""
    if not isinstance(threads, numbers.Integral) or threads < 1:
        raise ConfigurationError(f"threads must be a positive integer, got {threads!r}")
    if threads == 1:
        yield None
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads - 1) as helpers:
        yield lambda work, n: [helpers.submit(work) for _ in range(min(n, threads - 1))]


def _groups(fn, total: int, pool):
    """Run fn(first, n) over the tiles of trials 0..total-1, one group at a time.

    Yields (trials done so far, the group's results in tile order). The
    calling thread and the pool's helpers take the group's tiles in turn, so
    every thread `_pool` was asked for runs tiles. A group is started only
    when the caller asks for it, so stopping early leaves nothing queued. A
    tile that raises stops the group's untaken tiles; once every thread has
    finished its own, the exception of the first tile that raised reaches
    the caller.
    """
    for g0 in range(0, total, _GROUP):
        end = min(g0 + _GROUP, total)
        firsts = range(g0, end, _TILE)
        results, failed, lock, claim = [None] * len(firsts), [], threading.Lock(), iter(firsts)

        def work():
            while not failed:
                with lock:
                    first = next(claim, None)
                if first is None:
                    return
                try:
                    results[(first - g0) // _TILE] = fn(first, min(_TILE, end - first))
                except BaseException as e:  # re-raised in the caller below
                    failed.append((first, e))

        helpers = pool(work, len(firsts) - 1) if pool else []
        work()
        for helper in helpers:
            helper.result()
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        yield end, results


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
            run = functools.partial(engine.run_tile, k, sigma2)
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

    words, ws, out = 2 * nr * nt, Workspace(), np.empty(count)

    def draw(first, n):
        with ws.frame() as alloc:
            u = streams.trial_uniforms(seed, streams.PURPOSE_DMIN, 0, first, n, words, alloc)
            g = streams.normal_from_uniform(u)
            # 2*|h|^2 summed = 2*||H||_F^2 directly
            np.sum(np.square(g, out=g), axis=1, out=out[first:first + n])

    with _pool(threads) as pool:
        for _ in _groups(draw, count, pool):
            pass
    return out


def ks_test_chisq(samples: np.ndarray, dof: int):
    """One-sample Kolmogorov-Smirnov test against the chi-square CDF.

    The reference CDF is the regularized lower incomplete gamma
    F = P(dof/2, x/2); the p-value is the asymptotic Kolmogorov distribution.
    F is monotone, so its value at the first of each _KS_STRIDE sorted samples
    bounds every term of that block; only blocks whose bound reaches the
    largest block-start term are evaluated, so the statistic stays exact.
    Input already in non-decreasing order is read as it is, without a copy;
    the order is checked _ORDER_CHUNK pairs at a time.
    """
    from scipy.special import gammainc, kolmogorov

    if dof <= 0:
        raise ConfigurationError(f"degrees of freedom must be positive, got {dof}")
    if dof % 2 != 0:
        raise ConfigurationError(f"degrees of freedom must be even, got {dof}")
    values = np.asarray(samples, dtype=float)
    n = values.size
    for lo in range(0, n - 1, _ORDER_CHUNK):
        hi = min(lo + _ORDER_CHUNK, n - 1)
        if not np.all(values[lo + 1:hi + 1] >= values[lo:hi]):  # a NaN fails this, and np.sort puts it last
            values = np.sort(values)
            break
    if n < KS_MIN_SAMPLES:
        raise ConfigurationError(f"need at least {KS_MIN_SAMPLES} samples, got {n}")
    if not (values[0] >= 0 and values[-1] < np.inf):  # NaN sorts last
        bad = n - np.count_nonzero((values >= 0) & (values < np.inf))
        raise ConfigurationError(f"samples must be finite and non-negative, {bad} of {n} are not")
    # three block-sized arrays, worked in place and freed before the blocks
    # are evaluated: F at each block's first sample, the block starts (exact
    # as floats) and one term at a time
    f = np.divide(values[::_KS_STRIDE], 2.0)
    gammainc(dof / 2.0, f, out=f)
    starts = np.arange(0, n, _KS_STRIDE, dtype=float)
    term = np.add(starts, 1.0)
    stat = np.max(np.subtract(np.divide(term, n, out=term), f, out=term))
    stat = max(stat, np.max(np.subtract(f, np.divide(starts, n, out=term), out=term)))
    # each block's bound: the larger of its last upper and first lower term
    np.minimum(np.add(starts, _KS_STRIDE, out=term), n, out=term)
    np.subtract(np.divide(term, n, out=term), f, out=term)
    starts /= n
    np.subtract(f[1:], starts[:-1], out=starts[:-1])
    starts[-1] = 1.0 - starts[-1]
    blocks = np.flatnonzero(np.maximum(term, starts, out=term) >= stat - _KS_SLACK)
    del f, starts, term
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
