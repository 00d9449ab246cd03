import numpy as np
import pytest
from scipy.special import ndtri

from fdprecode.streams import PURPOSE_CER, PURPOSE_DMIN, raw_block, trial_uniforms, uniform_open


def _uniform_open_reference(raw):
    # the former expression, which converted every word and could round to 1.0
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def test_raw_block_is_position_addressed():
    whole = raw_block(7, PURPOSE_CER, 3, 10, 5)
    assert whole.shape == (20,)
    assert np.array_equal(whole[8:], raw_block(7, PURPOSE_CER, 3, 12, 3))


def test_raw_block_range_ends_at_the_lane_word():
    # the block position has one 64-bit word; the word above it stays zero
    last = 1 << 64
    tail = raw_block(7, PURPOSE_CER, 0, last - 2, 2)
    assert np.array_equal(tail[4:], raw_block(7, PURPOSE_CER, 0, last - 1, 1))
    for start, n in [(last, 1), (last - 1, 2), (0, last + 1), (-1, 1), (0, -1)]:
        with pytest.raises(ValueError, match="counter space"):
            raw_block(7, PURPOSE_CER, 0, start, n)


@pytest.mark.parametrize("words", [1, 6, 7, 9])
def test_trial_uniforms_do_not_depend_on_the_call_split(words):
    # no count is a multiple of 4, so each trial's last block has unused words
    whole = trial_uniforms(11, PURPOSE_CER, 2, 5, 40, words)
    assert whole.shape == (40, words)
    assert np.all((whole > 0) & (whole < 1))
    split = np.concatenate([trial_uniforms(11, PURPOSE_CER, 2, 5, 13, words),
                            trial_uniforms(11, PURPOSE_CER, 2, 18, 27, words)])
    assert np.array_equal(whole, split)
    # trial t owns blocks from t * ceil(words / 4) on; its unused words are skipped
    blocks = (words + 3) // 4
    for i, t in [(0, 5), (39, 44)]:
        raw = raw_block(11, PURPOSE_CER, 2, t * blocks, blocks)
        assert np.array_equal(whole[i], uniform_open(raw[:words]))


def test_uniform_open_stays_inside_the_open_interval():
    raw = np.array([0, 1 << 63, (1 << 64) - (1 << 11) - 1, (1 << 64) - (1 << 11), (1 << 64) - 1],
                   dtype=np.uint64)
    u = uniform_open(raw)
    assert np.all((u > 0) & (u < 1))
    assert np.all(np.isfinite(ndtri(u)))
    # only the top 2048 words, which the former expression rounded to 1.0, move
    ref = _uniform_open_reference(raw)
    assert np.array_equal(ref[3:], [1.0, 1.0])
    assert np.array_equal(u[:3].view(np.uint64), ref[:3].view(np.uint64))
    assert np.array_equal(u[3:], [1.0 - 2.0 ** -53] * 2)


@pytest.mark.parametrize("cols", [np.s_[:], np.s_[:7], np.s_[::3], np.s_[1:11:2]])
def test_uniform_open_is_bitwise_the_former_expression(cols):
    # converting a strided column slice equals converting all words, then slicing
    raw = np.random.default_rng([70, 0, 0]).integers(0, 1 << 64, size=(100_000, 12),
                                                     dtype=np.uint64)
    got = uniform_open(raw[:, cols])
    assert np.array_equal(got.view(np.uint64), _uniform_open_reference(raw)[:, cols].view(np.uint64))


@pytest.mark.parametrize("words", [1, 6, 7, 12, 19, 50])
@pytest.mark.parametrize("purpose, point", [(PURPOSE_CER, 0), (PURPOSE_CER, 2), (PURPOSE_DMIN, 0)])
def test_float_buffer_draws_equal_the_word_path(purpose, point, words):
    # Philox written straight into a reused float buffer, as the simulator's
    # tiles draw, equals converting its words; offsets are not tile multiples
    blocks = (words + 3) // 4
    buf = np.full(777 * 4 * blocks, np.nan)
    for first in (0, 1000, 4097, 98303):
        raw = raw_block(5, purpose, point, first * blocks, 777 * blocks)
        want = uniform_open(raw.reshape(777, 4 * blocks)[:, :words])
        got = trial_uniforms(5, purpose, point, first, 777, words, out=buf)
        assert np.shares_memory(got, buf)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the buffer holds each word as (w >> 11) * 2**-53 before the offset and clamp
        plain = raw_block(5, purpose, point, first * blocks, 777 * blocks, out=np.empty(raw.size))
        assert np.array_equal(plain, (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)


def test_float_buffer_size_must_match():
    with pytest.raises(ValueError, match="out holds"):
        raw_block(5, PURPOSE_CER, 0, 0, 3, out=np.empty(11))


def test_uniform_open_maps_float_words_in_place():
    # the edge words of the open-interval test, in the float form raw_block
    # writes: the arithmetic must agree bit for bit, and the top 2048 words
    # must clamp to 1 - 2**-53
    top = np.uint64((1 << 64) - 1) - np.arange(2048, dtype=np.uint64)
    raw = np.concatenate([np.array([0, 2047, 2048, 1 << 63, (1 << 64) - (1 << 11) - 1],
                                   dtype=np.uint64), top])
    words = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    got = uniform_open(words)
    assert np.shares_memory(got, words)
    assert np.array_equal(got.view(np.uint64), uniform_open(raw).view(np.uint64))
    assert np.all((got > 0) & (got < 1))
    assert np.array_equal(got[5:], np.full(2048, 1.0 - 2.0 ** -53))
    assert got[4] < 1.0 - 2.0 ** -53
