import numpy as np
import pytest
from scipy.special import ndtri

from fdprecode.streams import PURPOSE_CER, PURPOSE_DMIN, raw_block, trial_uniforms, uniform_open

from oracles import philox_words, uniforms


def _float_words(words):
    # the double (w >> 11) * 2**-53 that raw_block writes for each word w
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def test_raw_block_is_position_addressed():
    whole = raw_block(7, PURPOSE_CER, 3, 10, 5)
    assert whole.shape == (20,)
    assert np.array_equal(whole[8:], raw_block(7, PURPOSE_CER, 3, 12, 3))
    assert np.array_equal(whole, _float_words(philox_words(7, PURPOSE_CER, 3, 10, 5)))


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
        raw = philox_words(11, PURPOSE_CER, 2, t * blocks, blocks)
        assert np.array_equal(whole[i], uniforms(raw[:words]))


def test_uniform_open_stays_inside_the_open_interval():
    raw = np.array([0, 1 << 63, (1 << 64) - (1 << 11) - 1, (1 << 64) - (1 << 11), (1 << 64) - 1],
                   dtype=np.uint64)
    u = uniform_open(_float_words(raw))
    assert np.all((u > 0) & (u < 1))
    assert np.all(np.isfinite(ndtri(u)))
    # only the top 2048 words, whose unclamped value rounds to 1.0, move
    assert np.array_equal(u.view(np.uint64), uniforms(raw).view(np.uint64))
    assert u[2] < 1.0 - 2.0 ** -53
    assert np.array_equal(u[3:], [1.0 - 2.0 ** -53] * 2)


@pytest.mark.parametrize("words", [1, 6, 7, 12, 19, 50])
@pytest.mark.parametrize("purpose, point", [(PURPOSE_CER, 0), (PURPOSE_CER, 2), (PURPOSE_DMIN, 0)])
def test_float_buffer_draws_equal_the_word_path(purpose, point, words):
    # Philox written straight into a reused float buffer, as the simulator's
    # tiles draw, equals the oracle's words; offsets are not tile multiples
    blocks = (words + 3) // 4
    buf = np.full(777 * 4 * blocks, np.nan)
    handed = []

    def alloc(shape, dtype):
        handed.append((shape, dtype))
        return buf

    for first in (0, 1000, 4097, 98303):
        raw = philox_words(5, purpose, point, first * blocks, 777 * blocks)
        want = uniforms(raw.reshape(777, 4 * blocks)[:, :words])
        got = trial_uniforms(5, purpose, point, first, 777, words, alloc)
        assert np.shares_memory(got, buf)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert handed == [((777 * 4 * blocks,), float)] * 4


def test_uniform_open_maps_float_words_in_place():
    # the edge words of the open-interval test, in the float form raw_block
    # writes: the arithmetic must agree bit for bit with the oracle, and the
    # top 2048 words must clamp to 1 - 2**-53
    top = np.uint64((1 << 64) - 1) - np.arange(2048, dtype=np.uint64)
    raw = np.concatenate([np.array([0, 2047, 2048, 1 << 63, (1 << 64) - (1 << 11) - 1],
                                   dtype=np.uint64), top])
    words = _float_words(raw)
    got = uniform_open(words)
    assert np.shares_memory(got, words)
    assert np.array_equal(got.view(np.uint64), uniforms(raw).view(np.uint64))
    assert np.all((got > 0) & (got < 1))
    assert np.array_equal(got[5:], np.full(2048, 1.0 - 2.0 ** -53))
    assert got[4] < 1.0 - 2.0 ** -53
