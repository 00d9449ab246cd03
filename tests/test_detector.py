import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprecode.constellation import (
    DEFAULT_DISTINCT_TOL,
    ConstellationSets,
    axis_grid,
    geometric_qam_family,
    preset,
    qam_points,
    sum_constellation,
)
from fdprecode.detector import ExhaustiveDecoder, FastMLDecoder, codeword_matrix
from fdprecode.errors import ConfigurationError, EnumerationBudgetError

from draws import channels
from oracles import axis_table, feedback_phasors, ml_decode, precoder


def links(seed, count, nr, nt):
    """(h, a, h_eff) batches for `count` channels at point 0 of `seed`."""
    h = channels(seed, 0, count, nr, nt)
    return (h, *feedback_phasors(h))


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
    # the preset sums are an axis grid, which the slicer decodes; the same
    # sums turned 45 degrees (times 1 + 1j, exact in binary) are not, so the
    # bucket grid decodes them
    sc = sum_constellation(preset(nt, bits))
    for table, sliced in ((sc, True), (sc * (1 + 1j), False)):
        dec = FastMLDecoder(table)
        assert (dec._axes is not None) == sliced and (dec._grid is not None) != sliced
        # a sum point is its own unique nearest point (distance 0 in an injective table)
        assert np.array_equal(_decode_queries(dec, table), np.arange(table.size))
        q = _hard_queries(table, np.random.default_rng([66, nt, bits]), sample)
        assert np.array_equal(_decode_queries(dec, q), _argmin_oracle(q, table))


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


def _turned_8x1(sign):
    # the 8x1 sets turned 45 degrees (times 1 + 1j, exact in binary): their
    # sums are not an axis grid, so the bucket grid decodes them; the mirrored
    # table reverses the grid order of tied sums against their index order
    cs = preset(8, 1)
    return ConstellationSets(tuple(sign * (1 + 1j) * c for c in cs.sets), cs.bits_per_symbol)


# the turned 8x1 table's minimum spacing: 0.25 turned
D_MIN_TURNED_8X1 = np.abs(0.25 * (1 + 1j))


@pytest.mark.parametrize("sign", [1, -1])
def test_grid_tie_break_smallest_index(sign):
    # y = 0 against the symmetric 256-sum turned 8x1 table: four sums share
    # the minimal distance d_min / sqrt(2), which the grid cannot certify, so
    # the exhaustive argmin decides; both decoders must return the smallest
    # index among them.
    cs = _turned_8x1(sign)
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
    assert np.abs(sc[minimizers[0]]) < D_MIN_TURNED_8X1
    assert ml_decode(y[None], (h @ precoder(a))[None], codeword_matrix(cs))[0] == minimizers[0]
    assert FastMLDecoder(sc).decode_batch(y[None], he[None])[0] == minimizers[0]


@pytest.mark.parametrize("sign", [1, -1])
def test_grid_certifies_a_tie_at_a_midpoint(sign):
    # the midpoint of two turned 8x1 sums d_min apart is exact in binary and
    # d_min / 2 from both, inside the grid's certified radius: the grid itself
    # must break the tie toward the smaller index
    sc = sum_constellation(_turned_8x1(sign))
    dec = FastMLDecoder(sc)
    dist = np.abs(sc[:, None] - sc[None, :])
    i, j = np.argwhere(np.triu(dist == D_MIN_TURNED_8X1))[len(sc)]  # a pair well inside the table
    q = np.array([(sc[i] + sc[j]) / 2])
    assert 2 * q[0] == sc[i] + sc[j]
    tied = np.nonzero(np.abs(q[0] - sc) == np.abs(q[0] - sc).min())[0]
    assert list(tied) == sorted([i, j])
    assert dec._lookup(q)[0] == min(i, j) >= 0
    assert _decode_queries(dec, q)[0] == min(i, j)


# ------------------------------------------------------------ axis-grid slicer

@pytest.mark.parametrize("nt", [8, 16])
def test_slicer_at_every_midpoint_of_both_axes(nt):
    # every midpoint between adjacent levels, on each axis, and one ulp to
    # either side of it, crossed with levels and midpoints of the other axis
    sc = sum_constellation(preset(nt, 1))
    dec = FastMLDecoder(sc)
    assert dec._axes is not None and dec._grid is None
    rng = np.random.default_rng([70, nt, 0])
    queries = []
    for lv, other, turn in ((np.unique(sc.real), np.unique(sc.imag), 1),
                            (np.unique(sc.imag), np.unique(sc.real), 1j)):
        mids = lv[:-1] / 2 + lv[1:] / 2
        assert np.all(2 * mids == lv[:-1] + lv[1:])  # exact in binary
        on = rng.choice(other, 3, replace=False)
        between = rng.choice(other[:-1] / 2 + other[1:] / 2, 2, replace=False)
        # an exact midpoint is a tie, which the slicer leaves to the argmin;
        # a hundredth of a step off it, on a level of the other axis, is certified
        assert np.all(dec._slice(turn * (mids[:, None] + 1j * on[None, :]).ravel()) == -1)
        off = (mids[:, None] + (lv[1] - lv[0]) / 100 + 1j * on[None, :]).ravel()
        assert np.all(dec._slice(turn * off) >= 0)
        cut = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)])
        queries.append(turn * (cut[:, None] + 1j * np.append(on, between)[None, :]).ravel())
    q = np.concatenate(queries)
    assert np.array_equal(_decode_queries(dec, q), _argmin_oracle(q, sc))


@pytest.mark.parametrize("nt, bits", [(8, 1), (16, 1), (3, 2)])
def test_slicer_outer_levels_far_field_and_non_finite(nt, bits):
    sc = sum_constellation(preset(nt, bits))
    dec = FastMLDecoder(sc)
    assert dec._axes is not None
    xs, ys = np.unique(sc.real), np.unique(sc.imag)
    g = xs[1] - xs[0]
    corners = np.array([complex(x, y) for x in (xs[0], xs[-1]) for y in (ys[0], ys[-1])])
    # beyond the outer levels: from a quarter step to far past the hull,
    # straight out and diagonally, on each side
    reach = np.array([g / 4, g / 2, g, 10 * g, 1e3, 1e12])
    out_x = np.concatenate([xs[-1] + reach, xs[0] - reach])
    out_y = np.concatenate([ys[-1] + reach, ys[0] - reach])
    beyond = np.concatenate([out_x + 1j * ys[3], xs[5] + 1j * out_y, out_x + 1j * out_y])
    finite = np.concatenate([corners, beyond, [1e200 + 0j, 1e200j, -1e300 - 1e300j]])
    assert np.array_equal(_decode_queries(dec, finite), _argmin_oracle(finite, sc))
    # the outward margin g / 2 + t certifies rows well past an outer level
    assert np.all(dec._slice(corners) >= 0)
    assert np.all(dec._slice(beyond[np.abs(beyond) < 1e3]) >= 0)
    # so far out that b^2 overflows: left to the argmin
    assert np.all(dec._slice(finite[-3:]) == -1)
    bad = np.array([np.nan, complex(np.nan, 0), complex(0, np.nan), np.inf, -np.inf,
                    complex(0, np.inf), complex(np.inf, -np.inf), complex(np.nan, np.inf)])
    assert np.all(dec._slice(bad) == -1)
    ones = np.ones((bad.size, 1), dtype=complex)
    with np.errstate(invalid="ignore"):
        s_mf = np.conjugate(ones[:, 0]) * bad  # what decode_batch's matched filter sees
        assert np.array_equal(dec.decode_batch(bad[:, None], ones), _argmin_oracle(s_mf, sc))


STEPS = st.one_of(st.sampled_from([1e5, 1e-3, 0.1, 1 / 3, 0.015625, 3.0, 7e-6]),
                  st.floats(1e-4, 1e4, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), STEPS, STEPS,
       st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False),
       st.integers(0, 2**31 - 1))
def test_slicer_matches_argmin_on_random_axis_grids(nx, ny, gx, gy, x0, y0, seed):
    # evenly spaced levels x0 + i gx and y0 + j gy in float, with steps that
    # are not dyadic and may differ by 1e8, in a random index order
    if nx * ny <= FastMLDecoder._ARGMIN_SUMS:
        nx = 26 // ny + 1
    rng = np.random.default_rng(seed)
    xs, ys = x0 * gx + np.arange(nx) * gx, y0 * gy + np.arange(ny) * gy
    sums = axis_table(xs, ys, rng.permutation(nx * ny))
    dec = FastMLDecoder(sums)
    assert dec._axes is not None and dec._grid is None
    mx, my = xs[:-1] / 2 + xs[1:] / 2, ys[:-1] / 2 + ys[1:] / 2
    pick = rng.integers
    q = np.concatenate([
        sums,
        # spread over the hull and a few steps past it
        (xs[0] - 3 * gx + (xs[-1] - xs[0] + 6 * gx) * rng.random(400))
        + 1j * (ys[0] - 3 * gy + (ys[-1] - ys[0] + 6 * gy) * rng.random(400)),
        # midpoints and their neighbouring floats on each axis
        mx[pick(mx.size, size=40)] + 1j * ys[pick(ny, size=40)],
        np.nextafter(mx[pick(mx.size, size=40)], np.inf) + 1j * ys[pick(ny, size=40)],
        np.nextafter(mx[pick(mx.size, size=40)], -np.inf) + 1j * my[pick(my.size, size=40)],
        xs[pick(nx, size=40)] + 1j * np.nextafter(my[pick(my.size, size=40)], -np.inf),
        # far out
        sums[pick(sums.size, size=20)] * 1e3,
    ])
    got = _decode_queries(dec, q)
    assert np.array_equal(got, _argmin_oracle(q, sums))
    assert np.array_equal(got[:sums.size], np.arange(sums.size))


@pytest.mark.parametrize("kind", ["uneven", "one_ulp", "c7", "rotated"])
def test_tables_that_are_not_axis_grids_keep_their_decoder(kind):
    rng = np.random.default_rng([71, 0, 0])
    if kind == "uneven":
        # 6 x 6 levels, the last x step 1.5 times the others
        sums = axis_table(np.array([0.0, 1, 2, 3, 4, 5.5]), np.arange(6.0), rng.permutation(36))
    elif kind == "one_ulp":
        sums = sum_constellation(preset(8, 1)).copy()
        sums[77] = complex(np.nextafter(sums[77].real, np.inf), sums[77].imag)
    elif kind == "c7":
        # acceptance criterion 7's design: the 3x1 preset, 8 sums
        sums = sum_constellation(preset(3, 1))
    else:
        q16 = qam_points(16)
        sums = sum_constellation(ConstellationSets((q16, 0.25 * np.exp(1j * np.pi / 9) * q16), 4))
    dec = FastMLDecoder(sums)
    assert dec._axes is None
    assert (dec._grid is None) == (kind == "c7")
    lo, hi = sums.real.min() - 1, sums.real.max() + 1
    q = np.concatenate([sums, lo + (hi - lo) * (rng.random(4000) + 1j * rng.random(4000)),
                        _hard_queries(sums, rng, 64)])
    assert np.array_equal(_decode_queries(dec, q), _argmin_oracle(q, sums))


@pytest.mark.parametrize("kind", ["duplicate", "sub_tolerance", "at_tolerance"])
def test_axis_grids_that_collide_are_refused(kind):
    g = {"duplicate": 1.0, "sub_tolerance": DEFAULT_DISTINCT_TOL / 4,
         "at_tolerance": DEFAULT_DISTINCT_TOL}[kind]
    sums = axis_table(np.arange(6) * g, np.arange(6) * g)
    if kind == "duplicate":
        sums[7] = sums[20]
    else:
        assert axis_grid(sums) is not None  # an axis grid, refused for its step
    with pytest.raises(ConfigurationError, match="not injective"):
        FastMLDecoder(sums)


def test_axis_grid_build_memory_is_bounded():
    # no closest-pair scan, bucket grid or point table: the 16x1 build keeps
    # one 65536-entry position table (0.5 MB); the bucket-grid build of the
    # same sums peaks at about 6 MB
    import tracemalloc
    sc = sum_constellation(preset(16, 1))
    tracemalloc.start()
    try:
        dec = FastMLDecoder(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec._axes is not None
    assert peak < 1 << 20, f"{peak / 2**20:.2f} MB"


def test_low_snr_tile_sends_no_row_to_the_argmin():
    # at 10 dB the bucket grid left about 14% of 16x1 rows to the O(N)
    # exhaustive argmin; the slicer certifies every finite row near the table
    from fdprecode import simulator
    cfg = simulator.SimConfig(nr=1, constellation=preset(16, 1), snr_grid_db=(10.0,),
                              trials_per_point=simulator._TILE, seed=0)
    engine = simulator._Engine(cfg)
    argmin, sent = engine.decoder._argmin, []

    def spy(q, alloc=np.empty):
        sent.append(q.size)
        return argmin(q, alloc)

    engine.decoder._argmin = spy
    errors = engine.run_tile(0, cfg.sigma2(10.0), 0, simulator._TILE)
    assert sum(sent) == 0
    assert 0 < errors < simulator._TILE
