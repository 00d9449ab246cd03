"""Counter-based random draws for reproducible parallel Monte Carlo.

All randomness in the package is drawn from Philox-4x64 keyed by the user
seed, at one kind of address: (seed, purpose, point, block). The purpose tag
and the SNR-point index fill the two high 64-bit words of the 256-bit
counter and the block position the low word. Each trial owns a fixed run of
consecutive blocks (`trial_uniforms`). Because Philox output depends only on
(key, counter), any partition of work across threads or processes
reproduces the same values, draw for draw. Uniforms lie strictly inside
(0, 1): the 2048 top words, which would round to 1.0, map to 1 - 2**-53.
`scipy.special` is imported on the first normal draw, not with the module.
"""

import numpy as np

# 256-bit Philox counter, low to high word: [block, 0, point, purpose]
_POINT_SHIFT = 128
_PURPOSE_SHIFT = 192
_BLOCKS_PER_POINT = 1 << 64

# purpose tags keep independent uses of the same seed from colliding
PURPOSE_ADHOC = 0
PURPOSE_CER = 1
PURPOSE_DMIN = 2


def raw_block(seed: int, purpose: int, point: int, start_block: int, n_blocks: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Philox outputs for counter blocks [start_block, start_block + n_blocks).

    Returns a uint64 array of length 4 * n_blocks. Values depend only on the
    address, never on how previous blocks were grouped into calls. Given
    `out`, a C-contiguous float64 array of 4 * n_blocks elements, each word w
    is written there as the double (w >> 11) * 2**-53 instead, and `out` is
    returned.
    """
    for name, v in (("purpose", purpose), ("point", point)):
        if not 0 <= v < (1 << 64):
            raise ValueError(f"{name} must fit in 64 bits, got {v}")
    # the range must stay inside the block word, so no two points share a block
    if start_block < 0 or n_blocks < 0 or start_block + n_blocks > _BLOCKS_PER_POINT:
        raise ValueError("block range exceeds the per-point counter space")
    counter = (purpose << _PURPOSE_SHIFT) | (point << _POINT_SHIFT) | start_block
    bitgen = np.random.Philox(key=seed & ((1 << 128) - 1), counter=counter)
    if out is None:
        return bitgen.random_raw(4 * n_blocks)
    if out.size != 4 * n_blocks:
        raise ValueError(f"out holds {out.size} words, not {4 * n_blocks}")
    return np.random.Generator(bitgen).random(out=out)  # one word per double


def trial_uniforms(seed: int, purpose: int, point: int, first: int, count: int,
                   words: int, out: np.ndarray | None = None) -> np.ndarray:
    """(count, words) uniforms in (0, 1) for trials [first, first + count).

    Trial t owns the ceil(words / 4) counter blocks from t * ceil(words / 4)
    on; the words of its last block past `words` are discarded. Philox
    writes straight into `out`, a C-contiguous float64 array of
    count * 4 * ceil(words / 4) elements that the caller reuses (a new one if
    None), and the result is a view of it.
    """
    blocks = (words + 3) // 4
    if out is None:
        out = np.empty(count * 4 * blocks)
    # the whole buffer is mapped: contiguous in-place arithmetic beats a strided slice
    return uniform_open(raw_block(seed, purpose, point, first * blocks, count * blocks, out)
                        .reshape(count, -1))[:, :words]


def uniform_open(raw: np.ndarray) -> np.ndarray:
    """Map words to doubles strictly inside (0, 1).

    `raw` holds uint64 words, or the float64 (w >> 11) * 2**-53 that
    `raw_block` writes to `out`, which are then mapped in place. Both give
    ((w >> 11) + 0.5) * 2**-53: scaling by 2**-53 first is exact.
    """
    if raw.dtype == np.uint64:
        u = (raw >> np.uint64(11)).view(np.int64).astype(np.float64)  # exact: below 2**53
        u *= 2.0 ** -53
    else:
        u = raw
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)  # (2**53 - 0.5) * 2**-53 rounds to 1.0


def normal_from_uniform(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals via the inverse CDF (fixed consumption per value), into `out` if given."""
    from scipy.special import ndtri
    return ndtri(u, out=out)
