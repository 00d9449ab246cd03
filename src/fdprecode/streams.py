"""Counter-based random substreams for reproducible parallel Monte Carlo.

All randomness in the package is drawn from Philox-4x64 keyed by the user
seed. A substream is addressed by up to three 64-bit path components packed
into the high words of the 256-bit counter; the low 64-bit word is left for
the stream position. Because Philox output depends only on (key, counter),
any partition of work across threads or processes reproduces the same
values, draw for draw.
"""

import numpy as np
from scipy.special import ndtri

# high-word layout of the 256-bit Philox counter: [position, lane, point, purpose]
_POS_BITS = 64
_LANE_SHIFT = 64
_POINT_SHIFT = 128
_PURPOSE_SHIFT = 192

# purpose tags keep independent uses of the same seed from colliding
PURPOSE_ADHOC = 0
PURPOSE_CER = 1
PURPOSE_DMIN = 2


def _counter(purpose: int, point: int = 0, lane: int = 0, position: int = 0) -> int:
    for name, v in (("purpose", purpose), ("point", point), ("lane", lane)):
        if not 0 <= v < (1 << 64):
            raise ValueError(f"{name} must fit in 64 bits, got {v}")
    return (purpose << _PURPOSE_SHIFT) | (point << _POINT_SHIFT) | (lane << _LANE_SHIFT) | position


def substream(seed: int, purpose: int = PURPOSE_ADHOC, point: int = 0, lane: int = 0) -> np.random.Generator:
    """Independent Generator for a fixed (seed, purpose, point, lane) address."""
    bitgen = np.random.Philox(key=seed & ((1 << 128) - 1), counter=_counter(purpose, point, lane))
    return np.random.Generator(bitgen)


def raw_block(seed: int, purpose: int, point: int, start_block: int, n_blocks: int) -> np.ndarray:
    """Philox outputs for counter blocks [start_block, start_block + n_blocks).

    Returns a uint64 array of length 4 * n_blocks. Values depend only on the
    address, never on how previous blocks were grouped into calls.
    """
    # the range must stay inside the position word: a carry into the lane
    # word would replay the draws of substream(seed, purpose, point, lane)
    if start_block < 0 or n_blocks < 0 or start_block + n_blocks > (1 << _LANE_SHIFT):
        raise ValueError("block range exceeds the per-point counter space")
    bitgen = np.random.Philox(key=seed & ((1 << 128) - 1),
                              counter=_counter(purpose, point, 0, 0) + start_block)
    return bitgen.random_raw(4 * n_blocks)


def uniform_open(raw: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles strictly inside (0, 1)."""
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def normal_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard normals via the inverse CDF (fixed consumption per value)."""
    return ndtri(u)
