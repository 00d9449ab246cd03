import numpy as np
import pytest
from scipy.special import ndtri

from fdprecode.streams import PURPOSE_CER, raw_block, trial_uniforms, uniform_open


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
