import numpy as np
import pytest

from fdprecode.streams import PURPOSE_CER, raw_block, trial_uniforms, uniform_open


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
