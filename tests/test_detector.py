import itertools

import numpy as np
import pytest

from fdprecode.constellation import (
    ConstellationSets,
    geometric_qam_family,
    preset,
    qam_points,
    sum_constellation,
)
from fdprecode.detector import ExhaustiveDecoder, FastMLDecoder, codeword_matrix
from fdprecode.errors import ConfigurationError, EnumerationBudgetError
from fdprecode.precoder import feedback_angles_batch

from draws import channels
from oracles import ml_decode, precoder


def links(seed, count, nr, nt):
    """(h, a, h_eff) batches for `count` channels at point 0 of `seed`."""
    h = channels(seed, 0, count, nr, nt)
    return (h, *feedback_angles_batch(h))


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
        h, a, _ = links(60, 50, 1, nt)
        k = np.array([rng.integers(x.shape[0]) for _ in range(50)])
        transfer = h @ precoder(a)
        y = np.einsum("bon,bn->bo", transfer, x[k])
        assert np.array_equal(ml_decode(y, transfer, x), k)


def test_fast_noiseless_exact():
    rng = np.random.default_rng([61, 0, 0])
    for nt, bits in [(3, 1), (4, 2), (8, 1)]:
        cs = preset(nt, bits)
        sc = sum_constellation(cs)
        _, _, he = links(61, 50, 2, nt)
        k = rng.integers(sc.size, size=50)
        y = he * sc[k, None]
        assert np.array_equal(FastMLDecoder(sc).decode_batch(y, he), k)


def test_decoders_agree_on_noisy_trials():
    rng = np.random.default_rng([62, 0, 0])
    for nt, bits, sigma in [(3, 1, 0.6), (4, 2, 0.3)]:
        cs = preset(nt, bits)
        sc = sum_constellation(cs)
        x = codeword_matrix(cs)
        h, a, he = links(62, 1000, 1, nt)
        ys = []
        for b in range(h.shape[0]):
            k = int(rng.integers(x.shape[0]))
            noise = (rng.standard_normal(1) + 1j * rng.standard_normal(1)) * sigma
            ys.append(he[b] * sc[k] + noise)
        fast = FastMLDecoder(sc).decode_batch(np.array(ys), he)
        assert np.array_equal(ml_decode(np.array(ys), h @ precoder(a), x), fast)


def test_tie_break_smallest_index():
    # y = 0 against a symmetric codebook: several codewords share the minimal
    # energy; both decoders must return the smallest index among them
    cs = preset(4, 1)
    sc = sum_constellation(cs)
    h = np.ones((1, 4), dtype=complex)
    a = np.ones(4, dtype=complex)
    he = h @ a
    y = np.zeros(1, dtype=complex)
    metrics = np.abs(sc * he[0]) ** 2
    minimizers = np.nonzero(metrics == metrics.min())[0]
    assert minimizers.size > 1
    assert ml_decode(y[None], (h @ precoder(a))[None], codeword_matrix(cs))[0] == minimizers[0]
    assert FastMLDecoder(sc).decode_batch(y[None], he[None])[0] == minimizers[0]


def test_scale_equivariance():
    rng = np.random.default_rng([63, 0, 0])
    cs = preset(3, 1)
    sc = sum_constellation(cs)
    dec = FastMLDecoder(sc)
    c = 0.37 - 1.2j
    _, _, he = links(63, 200, 2, 3)
    y = np.array([row * sc[rng.integers(sc.size)]
                  + 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) for row in he])
    assert np.array_equal(dec.decode_batch(y, he), dec.decode_batch(c * y, c * he))


def test_codeword_matrix_budget_error_names_the_proposed_scheme():
    cs = geometric_qam_family(16, 4, 0.5)
    with pytest.raises(EnumerationBudgetError, match="--scheme proposed"):
        codeword_matrix(cs)
    with pytest.raises(EnumerationBudgetError, match="--scheme proposed"):
        ExhaustiveDecoder(cs)


@pytest.mark.parametrize("nr", [1, 2, 3])
def test_exhaustive_decode_batch_is_the_unprecoded_ml_decoder(nr):
    # transfer = H, as the unprecoded V-BLAST baseline calls it: nt = 2, so
    # nr = 1 lies below nt and nr = 3 above it. 4096 codewords make each
    # chunk 512 / nr rows, so 1100 rows span several chunks.
    q64 = qam_points(64)
    cs = ConstellationSets((q64, q64), 6)
    x = codeword_matrix(cs)
    rows = 1100
    h = channels(66, 0, rows, nr, 2)
    rng = np.random.default_rng([66, nr, 0])
    k = rng.integers(x.shape[0], size=rows)
    y = np.einsum("bon,bn->bo", h, x[k]) + 4 * (rng.standard_normal((rows, nr))
                                                + 1j * rng.standard_normal((rows, nr)))
    # an exact tie: identical columns of H see only x_1 + x_2, so (p, q) and
    # (q, p) score alike; small integers keep every metric exact
    h[0] = np.array([2 - 1j, -1 + 3j, 1 + 1j])[:nr, None]
    y[0] = h[0] @ np.array([5 + 3j, -1 - 7j]) + 0.5
    got = ExhaustiveDecoder(cs).decode_batch(y, h)
    for b in range(rows):
        metric = np.linalg.norm(y[b] - x @ h[b].T, axis=1)  # ||y - H x_k|| for every k
        assert got[b] == np.argmin(metric)
        if b == 0:
            tied = np.nonzero(metric == metric.min())[0]
            assert tied.size >= 2 and got[0] == tied[0]


@pytest.mark.parametrize("kind", ["qam", "bpsk", "permuted"])
@pytest.mark.parametrize("nr", [1, 2, 3, 4])
@pytest.mark.parametrize("nt", [2, 3, 4])
def test_exhaustive_decode_batch_matches_norm_oracle(nt, nr, kind):
    # complex 4-QAM or real BPSK on every antenna, or 4-QAM in a descending
    # order rotated by the antenna index, which the prefix tree must keep;
    # rows are chunked 2**15 // N at a time, so 2 chunks + 1 row end one row
    # into a third. transfer and y are strided views, not contiguous arrays
    q4 = qam_points(4)
    sets = {"qam": (q4,) * nt, "bpsk": (np.array([-1.0, 1.0]),) * nt,
            "permuted": tuple(np.roll(q4[::-1], n) for n in range(nt))}[kind]
    cs = ConstellationSets(sets, 1 if kind == "bpsk" else 2)
    x = codeword_matrix(cs)
    rows = 2 * ((1 << 15) // x.shape[0]) + 1
    rng = np.random.default_rng([68, nt, nr, ["bpsk", "qam", "permuted"].index(kind)])
    buf = rng.standard_normal((rows, nt, 2 * nr)) + 1j * rng.standard_normal((rows, nt, 2 * nr))
    transfer = buf[:, :, ::2].transpose(0, 2, 1)
    k = rng.integers(x.shape[0], size=rows)
    ybuf = np.empty((rows, 2 * nr), dtype=complex)
    ybuf[:, 1::2] = np.einsum("bon,bn->bo", transfer, x[k]) + rng.standard_normal((rows, nr))
    y = ybuf[:, 1::2]
    assert not (transfer.flags.c_contiguous or y.flags.c_contiguous)
    got = ExhaustiveDecoder(cs).decode_batch(y, transfer)
    assert np.array_equal(got, ml_decode(y, transfer, x))
    assert np.count_nonzero(got != k) > 0  # the noise makes errors


def test_exhaustive_decode_batch_tie_at_three_antennas():
    # nt = 3 with columns 0 and 2 of the transfer equal: codewords (p, q, r)
    # and (r, q, p) score alike. Small integers and halves keep every metric
    # exact, so the tie is exact and goes to the smaller index
    q4 = qam_points(4)
    cs = ConstellationSets((q4, q4, q4), 2)
    x = codeword_matrix(cs)
    transfer = np.array([[[2 - 1j, 1 + 3j, 2 - 1j], [-1 + 1j, 2 + 0j, -1 + 1j]]] * 3)
    y = x[[6, 27, 57]] @ transfer[0].T + np.array([[0.5, -0.5j], [0.5 + 0.5j, 0.0], [1.5, 1.5]])
    got = ExhaustiveDecoder(cs).decode_batch(y, transfer)
    for b in range(3):
        metric = np.linalg.norm(y[b] - x @ transfer[b].T, axis=1)
        tied = np.nonzero(metric == metric.min())[0]
        assert tied.size >= 2 and got[b] == tied[0]


def test_exhaustive_decode_batch_memory_is_bounded():
    # 65536 codewords (the 8x2 preset) at nr = 2: the einsum candidate table
    # this replaced peaked at 88 MB on 256 rows
    import tracemalloc
    cs = preset(8, 2)
    h = channels(69, 0, 256, 2, 8)
    y = h[:, :, 0] * 0.5
    tracemalloc.start()
    try:
        ExhaustiveDecoder(cs).decode_batch(y, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"{peak / 2**20:.1f} MB"


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
    _, _, he = links(64, 64, 2, 4)
    y = np.array([row * sc[rng.integers(sc.size)]
                  + 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) for row in he])
    batch = dec.decode_batch(y, he)
    # each row decoded alone, as a batch of one
    singles = [dec.decode_batch(y[b:b + 1], he[b:b + 1])[0] for b in range(y.shape[0])]
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


@pytest.mark.parametrize("nt, bits, sample",
                         [(16, 1, 512), (8, 2, 512), (8, 1, 256), (4, 2, 256), (3, 2, 64)])
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


def _signed_8x1(sign):
    # the mirrored table reverses the grid order of tied sums against their index order
    cs = preset(8, 1)
    return ConstellationSets(tuple(sign * c for c in cs.sets), cs.bits_per_symbol)


@pytest.mark.parametrize("sign", [1, -1])
def test_grid_tie_break_smallest_index(sign):
    # y = 0 against the symmetric 256-sum 8x1 table: four sums share the
    # minimal distance d_min / sqrt(2), which the grid cannot certify, so the
    # exhaustive argmin decides; both decoders must return the smallest index
    # among them.
    cs = _signed_8x1(sign)
    sc = sum_constellation(cs)
    assert FastMLDecoder(sc)._grid is not None
    assert FastMLDecoder(sc)._lookup(np.zeros(1, dtype=complex))[0] == -1
    h = np.ones((1, 8), dtype=complex)
    a = np.ones(8, dtype=complex)
    he = h @ a
    y = np.zeros(1, dtype=complex)
    metrics = np.abs(sc * he[0]) ** 2
    minimizers = np.nonzero(metrics == metrics.min())[0]
    assert minimizers.size > 1
    assert np.abs(sc[minimizers[0]]) < 0.25  # closer than d_min
    assert ml_decode(y[None], (h @ precoder(a))[None], codeword_matrix(cs))[0] == minimizers[0]
    assert FastMLDecoder(sc).decode_batch(y[None], he[None])[0] == minimizers[0]


@pytest.mark.parametrize("sign", [1, -1])
def test_grid_certifies_a_tie_at_a_midpoint(sign):
    # the midpoint of two 8x1 sums d_min = 0.25 apart is exact in binary and
    # d_min / 2 from both, inside the grid's certified radius: the grid itself
    # must break the tie toward the smaller index
    sc = sum_constellation(_signed_8x1(sign))
    dec = FastMLDecoder(sc)
    dist = np.abs(sc[:, None] - sc[None, :])
    i, j = np.argwhere(np.triu(dist == 0.25))[len(sc)]  # a pair well inside the table
    q = np.array([(sc[i] + sc[j]) / 2])
    assert 2 * q[0] == sc[i] + sc[j]
    tied = np.nonzero(np.abs(q[0] - sc) == np.abs(q[0] - sc).min())[0]
    assert list(tied) == sorted([i, j])
    assert dec._lookup(q)[0] == min(i, j) >= 0
    assert _decode_queries(dec, q)[0] == min(i, j)
