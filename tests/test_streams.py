import numpy as np
import pytest

from fdprecode.streams import PURPOSE_CER, raw_block, substream


def test_raw_block_is_position_addressed():
    whole = raw_block(7, PURPOSE_CER, 3, 10, 5)
    assert whole.shape == (20,)
    assert np.array_equal(whole[8:], raw_block(7, PURPOSE_CER, 3, 12, 3))


def test_raw_block_range_ends_at_the_lane_word():
    last = 1 << 64
    tail = raw_block(7, PURPOSE_CER, 0, last - 2, 2)
    assert np.array_equal(tail[4:], raw_block(7, PURPOSE_CER, 0, last - 1, 1))
    # one block further would carry into the lane word and replay lane 1
    lane1 = substream(7, PURPOSE_CER, 0, 1).bit_generator.random_raw(4)
    assert not np.array_equal(tail[4:], lane1)
    for start, n in [(last, 1), (last - 1, 2), (0, last + 1), (-1, 1), (0, -1)]:
        with pytest.raises(ValueError, match="counter space"):
            raw_block(7, PURPOSE_CER, 0, start, n)
