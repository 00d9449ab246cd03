"""Counter-based random draws for reproducible parallel Monte Carlo.

All randomness in the package is drawn from Philox-4x64 keyed by the user
seed, at one kind of address: (seed, purpose, point, block). The purpose tag
and the SNR-point index fill the two high 64-bit words of the 256-bit
counter and the block position the low word. Each trial owns a fixed run of
consecutive blocks (`trial_uniforms`). Because Philox output depends only on
(key, counter), any partition of work across threads or processes
reproduces the same values, draw for draw. Uniforms lie strictly inside
(0, 1): the 2048 top words, which would round to 1.0, map to 1 - 2**-53.
Draws land in an array sized here and taken from the caller's `alloc(shape,
dtype)`, and every later map works in place. `scipy.special` is imported
on the first normal draw, not with the module.
"""

import numpy as np

# 256-bit Philox counter, low to high word: [block, 0, point, purpose]
_POINT_SHIFT = 128
_PURPOSE_SHIFT = 192
_BLOCKS_PER_POINT = 1 << 64

# purpose tags keep independent uses of the same seed from colliding
PURPOSE_CER = 1
PURPOSE_DMIN = 2


def raw_block(seed: int, purpose: int, point: int, start_block: int, n_blocks: int,
              alloc=np.empty) -> np.ndarray:
    """Philox outputs for counter blocks [start_block, start_block + n_blocks).

    Each word w is written as the double (w >> 11) * 2**-53 into
    `alloc((4 * n_blocks,), float)`, which is returned. Values depend only on
    the address, never on how previous blocks were grouped into calls.
    """
    for name, v in (("purpose", purpose), ("point", point)):
        if not 0 <= v < (1 << 64):
            raise ValueError(f"{name} must fit in 64 bits, got {v}")
    # the range must stay inside the block word, so no two points share a block
    if start_block < 0 or n_blocks < 0 or start_block + n_blocks > _BLOCKS_PER_POINT:
        raise ValueError("block range exceeds the per-point counter space")
    counter = (purpose << _PURPOSE_SHIFT) | (point << _POINT_SHIFT) | start_block
    bitgen = np.random.Philox(key=seed & ((1 << 128) - 1), counter=counter)
    return np.random.Generator(bitgen).random(out=alloc((4 * n_blocks,), float))  # one word each


def trial_uniforms(seed: int, purpose: int, point: int, first: int, count: int,
                   words: int, alloc=np.empty) -> np.ndarray:
    """(count, words) uniforms in (0, 1) for trials [first, first + count).

    Trial t owns the ceil(words / 4) counter blocks from t * ceil(words / 4)
    on; the words of its last block past `words` are discarded. The result
    is a view of the array `raw_block` takes from `alloc`.
    """
    blocks = (words + 3) // 4
    # the whole buffer is mapped: contiguous in-place arithmetic beats a strided slice
    return uniform_open(raw_block(seed, purpose, point, first * blocks, count * blocks, alloc)
                        .reshape(count, -1))[:, :words]


def uniform_open(raw: np.ndarray) -> np.ndarray:
    """Map the doubles (w >> 11) * 2**-53 that `raw_block` writes, in place,
    to ((w >> 11) + 0.5) * 2**-53 strictly inside (0, 1); returns `raw`.
    """
    raw += 2.0 ** -54  # raw is exact, so this rounds as (w >> 11) + 0.5 would before scaling
    return np.minimum(raw, 1.0 - 2.0 ** -53, out=raw)  # (2**53 - 0.5) * 2**-53 rounds to 1.0


def normal_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard normals via the inverse CDF (fixed consumption per value), mapped in place."""
    from scipy.special import ndtri
    return ndtri(u, out=u)
