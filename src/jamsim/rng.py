"""Seedable, portable noise streams built on splitmix64.

splitmix64 is a published 64-bit generator (Steele, Lea & Flood; the
reference C implementation ships with the xoshiro family).  Its state
after k steps is ``seed + k * GAMMA mod 2**64``, so the whole output
sequence is a pure function of (seed, index) and vectorizes directly
with uint64 arithmetic.  All transforms below are elementwise, which
makes every stream bit-reproducible for a given seed regardless of how
many values are drawn per call.

Every stream is also random access by index: `start` skips straight to
sample `start`, so `stream(..., count, start)` equals
`stream(..., start + count)[start:]` bit for bit without computing the
skipped samples.  Sample j takes counter j + 1, so a draw ends by sample
2**64 - 2 (a Gaussian one, drawn in whole pairs, by 2**64 - 3); a span past
that raises `InvalidParameter` naming start and count.

Gaussian values come from Box-Muller on consecutive uniform pairs:
sample j takes pair j // 2, cos for even j and sin for odd j.  Rayleigh
values come from sigma * sqrt(-2 ln U).  Both use ln(1 - u) so the
u == 0 lattice point is safe.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .signal_core import MAX_N_SAMPLES, check_integer, check_seed

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Distinct substream tags so Gaussian and Rayleigh draws taken from the
# same user seed are decorrelated (the jammer consumes both at once).
_GAUSSIAN_TAG = 0x9D2C5680E7037EB1
_RAYLEIGH_TAG = 0x3C6EF372FE94F82A


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _check_draw(seed: int, count: int, start: int, pairs: bool = False) -> tuple[int, int, int]:
    """The arguments as ints; InvalidParameter naming one that is not an integer in range.

    Sample j takes counter j + 1, so a draw's last counter is start + count, one more
    when `pairs` rounds an odd end out to a whole Box-Muller pair; it must fit in 64 bits.
    """
    count, start = check_integer(count, "count"), check_integer(start, "start")
    if not 0 <= count <= MAX_N_SAMPLES:
        raise InvalidParameter(f"count must lie in 0..{MAX_N_SAMPLES}, got {count!r}", "count")
    if start < 0:
        raise InvalidParameter(f"start must be >= 0, got {start!r}", "start")
    last = start + count + (pairs and (start + count) % 2)
    if last > _MASK64:
        raise InvalidParameter(f"a draw of {count} from start {start} needs counter {last}, "
                               f"past 2**64 - 1", "start", "count")
    return check_seed(seed), count, start


def raw_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Raw 64-bit splitmix64 outputs `start .. start+count-1` for `seed`."""
    seed, count, start = _check_draw(seed, count, start)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z += np.uint64(seed)  # wraps mod 2**64
    shifted = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(factor)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=shifted), out=z)


def uniform_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """i.i.d. doubles in [0, 1) with 53-bit resolution."""
    z = raw_stream(seed, count, start)
    z >>= np.uint64(11)
    return np.multiply(z, 2.0**-53, out=z.view(np.float64))


def _radius(u: np.ndarray) -> np.ndarray:
    """sqrt(-2 ln(1 - u)), in place."""
    np.log1p(np.negative(u, out=u), out=u)
    return np.sqrt(np.multiply(u, -2.0, out=u), out=u)


def gaussian_stream(sigma: float, seed: int, count: int, start: int = 0) -> np.ndarray:
    """i.i.d. Normal(0, sigma^2) draws via Box-Muller, samples `start` onward."""
    seed, count, start = _check_draw(seed, count, start, pairs=True)  # before rounding hides a -1
    skip = start % 2  # an odd start begins on the sin half of a pair
    pairs = (skip + count + 1) // 2
    u = uniform_stream(mix64(seed ^ _GAUSSIAN_TAG), 2 * pairs, start - skip)
    radius, theta = _radius(u[0::2]), np.multiply(u[1::2], 2.0 * np.pi, out=u[1::2])
    out = np.empty(2 * pairs)
    np.multiply(radius, np.cos(theta, out=out[0::2]), out=out[0::2])
    np.multiply(radius, np.sin(theta, out=out[1::2]), out=out[1::2])
    return np.multiply(sigma, out[skip:skip + count], out=out[skip:skip + count])


def rayleigh_stream(sigma: float, seed: int, count: int, start: int = 0) -> np.ndarray:
    """i.i.d. Rayleigh(scale=sigma) draws, all >= 0, samples `start` onward."""
    seed, count, start = _check_draw(seed, count, start)  # before mix64 masks the seed
    u = _radius(uniform_stream(mix64(seed ^ _RAYLEIGH_TAG), count, start))
    return np.multiply(sigma, u, out=u)
