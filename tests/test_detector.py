import itertools

import numpy as np
import pytest

from fdprecode.constellation import (
    ConstellationSets,
    geometric_qam_family,
    preset,
    sum_constellation,
)
from fdprecode.detector import FastMLDecoder, codeword_matrix, ml_decode_bruteforce
from fdprecode.errors import ConfigurationError, EnumerationBudgetError
from fdprecode.precoder import angles_for_channel, effective_channel

from draws import channels


def links(seed, count, nr, nt):
    """(h, a, h_eff) for `count` channels at point 0 of `seed`."""
    for h in channels(seed, 0, count, nr, nt):
        a = np.exp(1j * angles_for_channel(h))
        yield h, a, effective_channel(h, a)


def test_codeword_matrix_order_matches_product():
    cs = preset(3, 2)
    x = codeword_matrix(cs)
    assert np.array_equal(x, np.array(list(itertools.product(*cs.sets))))
    assert np.allclose(x.sum(axis=1), sum_constellation(cs), rtol=0, atol=0)


def test_bruteforce_noiseless_exact():
    rng = np.random.default_rng([60, 0, 0])
    for nt, bits in [(3, 1), (4, 2)]:
        cs = preset(nt, bits)
        x = codeword_matrix(cs)
        for h, a, _ in links(60, 50, 1, nt):
            k = int(rng.integers(x.shape[0]))
            y = h @ (np.repeat(a[:, None], nt, axis=1) @ x[k])
            assert ml_decode_bruteforce(y, h, a, cs) == k


def test_fast_noiseless_exact():
    rng = np.random.default_rng([61, 0, 0])
    for nt, bits in [(3, 1), (4, 2), (8, 1)]:
        cs = preset(nt, bits)
        sc = sum_constellation(cs)
        dec = FastMLDecoder(sc)
        for _, _, he in links(61, 50, 2, nt):
            k = int(rng.integers(sc.size))
            y = he * sc[k]
            assert dec.decode(y, he) == k


def test_decoders_agree_on_noisy_trials():
    rng = np.random.default_rng([62, 0, 0])
    for nt, bits, sigma in [(3, 1, 0.6), (4, 2, 0.3)]:
        cs = preset(nt, bits)
        sc = sum_constellation(cs)
        dec = FastMLDecoder(sc)
        x = codeword_matrix(cs)
        for h, a, he in links(62, 1000, 1, nt):
            k = int(rng.integers(x.shape[0]))
            noise = (rng.standard_normal(1) + 1j * rng.standard_normal(1)) * sigma
            y = he * sc[k] + noise
            assert ml_decode_bruteforce(y, h, a, cs) == dec.decode(y, he)


def test_tie_break_smallest_index():
    # y = 0 against a symmetric codebook: several codewords share the minimal
    # energy; both decoders must return the smallest index among them
    cs = preset(4, 1)
    sc = sum_constellation(cs)
    h = np.ones((1, 4), dtype=complex)
    a = np.ones(4, dtype=complex)
    he = effective_channel(h, a)
    y = np.zeros(1, dtype=complex)
    metrics = np.abs(sc * he[0]) ** 2
    minimizers = np.nonzero(metrics == metrics.min())[0]
    assert minimizers.size > 1
    assert ml_decode_bruteforce(y, h, a, cs) == minimizers[0]
    assert FastMLDecoder(sc).decode(y, he) == minimizers[0]


def test_scale_equivariance():
    rng = np.random.default_rng([63, 0, 0])
    cs = preset(3, 1)
    sc = sum_constellation(cs)
    dec = FastMLDecoder(sc)
    c = 0.37 - 1.2j
    for _, _, he in links(63, 200, 2, 3):
        k = int(rng.integers(sc.size))
        y = he * sc[k] + 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert dec.decode(y, he) == dec.decode(c * y, c * he)


def test_bruteforce_budget_error_points_to_fast_path():
    cs = geometric_qam_family(16, 4, 0.5)
    with pytest.raises(EnumerationBudgetError, match="sum-constellation"):
        ml_decode_bruteforce(np.zeros(1, dtype=complex), np.ones((1, 16), dtype=complex),
                             np.ones(16, dtype=complex), cs)


def test_fast_decoder_refuses_noninjective_sums():
    cs = ConstellationSets((np.array([-1.0, 1.0]), np.array([-1.0, 1.0])), 1)
    with pytest.raises(ConfigurationError, match="not injective"):
        FastMLDecoder(sum_constellation(cs))


def test_big_sum_constellation_decode_latency():
    # 65536-point sum constellation must stay inside the simulator's
    # per-trial budget: a 1000-trial batch in well under a second per trial
    import time
    cs = preset(8, 2)
    dec = FastMLDecoder(sum_constellation(cs))
    rng = np.random.default_rng([65, 0, 0])
    n = 1000
    he = channels(65, 0, n, 1, 1)[:, :, 0]
    y = he * 0.5 + 0.1 * (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)))
    t0 = time.monotonic()
    out = dec.decode_batch(y, he)
    elapsed = time.monotonic() - t0
    assert out.shape == (n,)
    assert elapsed < 15.0, f"{elapsed:.2f}s for {n} decodes"


def test_decode_batch_matches_scalar_decode():
    rng = np.random.default_rng([64, 0, 0])
    cs = preset(4, 1)
    sc = sum_constellation(cs)
    dec = FastMLDecoder(sc)
    ys, hes = [], []
    for _, _, he in links(64, 64, 2, 4):
        k = int(rng.integers(sc.size))
        ys.append(he * sc[k] + 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        hes.append(he)
    batch = dec.decode_batch(np.array(ys), np.array(hes))
    singles = [dec.decode(y, he) for y, he in zip(ys, hes)]
    assert np.array_equal(batch, singles)


def _argmin_oracle(q, sums):
    # plain argmin over the whole table, chunked only to bound memory
    return np.concatenate([np.argmin(np.abs(q[lo:lo + 64, None] - sums[None, :]), axis=1)
                           for lo in range(0, q.size, 64)])


def _decode_queries(dec, q):
    # with h_eff = 1 the matched-filter output is the query itself, bit for bit
    return dec.decode_batch(q[:, None], np.ones((q.size, 1), dtype=complex))


def _hard_queries(sums, rng, sample):
    """Neighbour midpoints, points 3x outside the hull, 0, a huge value and
    near-sum noise, for `sample` sums drawn from the table."""
    base = sums[rng.choice(sums.size, size=min(sample, sums.size), replace=False)]
    dist = np.abs(base[:, None] - sums[None, :])
    dist[dist == 0] = np.inf
    neighbour = sums[np.argmin(dist, axis=1)]
    d = dist.min()
    noise = d * (rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size))
    return np.concatenate([(base + neighbour) / 2, 3 * base, [0, 1e9 + 1e9j],
                           base + noise, base + 0.5 * noise])


@pytest.mark.parametrize("nt, bits, sample", [(16, 1, 512), (8, 2, 512), (8, 1, 256)])
def test_grid_decoder_matches_argmin_on_presets(nt, bits, sample):
    sc = sum_constellation(preset(nt, bits))
    dec = FastMLDecoder(sc)
    assert dec._grid is not None
    # a sum point is its own unique nearest point (distance 0 in an injective table)
    assert np.array_equal(_decode_queries(dec, sc), np.arange(sc.size))
    q = _hard_queries(sc, np.random.default_rng([66, nt, bits]), sample)
    assert np.array_equal(_decode_queries(dec, q), _argmin_oracle(q, sc))


def _off_lattice_sums(kind, rng):
    if kind == "random":
        # four random 4-point sets: the grid would exceed the cell cap
        sets = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(4))
    elif kind == "jittered":
        sets = tuple(c + 1e-3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                     for c in preset(4, 2).sets)
    else:
        # a 12 x 12 unit lattice with a quarter of its sites removed: queries in
        # the holes have their nearest sum outside the searched block
        g = np.arange(12)
        lattice = (g[:, None] + 1j * g[None, :]).ravel()
        pts = lattice[rng.random(lattice.size) < 0.75]
        pts = pts + 0.05 * (rng.random(pts.size) + 1j * rng.random(pts.size))
        return pts
    return sum_constellation(ConstellationSets(sets, 2))


@pytest.mark.parametrize("kind, gridded", [("random", False), ("jittered", True), ("holes", True)])
def test_grid_decoder_matches_argmin_off_lattice(kind, gridded):
    rng = np.random.default_rng([67, 0, 0])
    sc = _off_lattice_sums(kind, rng)
    dec = FastMLDecoder(sc)
    assert (dec._grid is not None) == gridded
    lo, hi = sc.real.min() - 1, sc.real.max() + 1
    spread = lo + (hi - lo) * (rng.random(20000) + 1j * rng.random(20000))
    q = np.concatenate([sc, spread, _hard_queries(sc, rng, 256)])
    assert np.array_equal(_decode_queries(dec, q), _argmin_oracle(q, sc))


@pytest.mark.parametrize("sign", [1, -1])
def test_grid_tie_break_smallest_index(sign):
    # y = 0 against the symmetric 256-sum 8x1 table: four sums share the
    # minimal distance, close enough to certify the grid block, and both
    # decoders must return the smallest index among them. The mirrored table
    # reverses the grid order of the tied sums against their index order.
    cs = preset(8, 1)
    cs = ConstellationSets(tuple(sign * c for c in cs.sets), cs.bits_per_symbol)
    sc = sum_constellation(cs)
    assert FastMLDecoder(sc)._grid is not None
    h = np.ones((1, 8), dtype=complex)
    a = np.ones(8, dtype=complex)
    he = effective_channel(h, a)
    y = np.zeros(1, dtype=complex)
    metrics = np.abs(sc * he[0]) ** 2
    minimizers = np.nonzero(metrics == metrics.min())[0]
    assert minimizers.size > 1
    assert np.abs(sc[minimizers[0]]) < 0.25  # inside the certified radius d_min
    assert ml_decode_bruteforce(y, h, a, cs) == minimizers[0]
    assert FastMLDecoder(sc).decode(y, he) == minimizers[0]
