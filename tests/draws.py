"""Test channels drawn exactly as the simulator draws its own."""

from fdprecode.channel import rayleigh
from fdprecode.streams import normal_from_uniform, trial_uniforms

# the tests' own purpose tag: the package never draws under tag 0
PURPOSE = 0


def channels(seed, point, count, nr, nt):
    """`count` (nr, nt) CN(0, 1) channels, trials 0..count-1 of one address.

    The address is (seed, PURPOSE, point << 16 | nt << 8 | nr), so channels
    of different shapes never share counter blocks.
    """
    assert point < 1 << 48 and nt < 256 and nr < 256
    u = trial_uniforms(seed, PURPOSE, point << 16 | nt << 8 | nr, 0, count, 2 * nr * nt)
    return rayleigh(normal_from_uniform(u), nr, nt)
