"""Seedable, portable noise streams built on splitmix64.

splitmix64 is a published 64-bit generator (Steele, Lea & Flood; the
reference C implementation ships with the xoshiro family).  Its state
after k steps is ``seed + k * GAMMA mod 2**64``, so the whole output
sequence is a pure function of (seed, index) and vectorizes directly
with uint64 arithmetic.  All transforms below are elementwise, which
makes every stream bit-reproducible for a given seed regardless of how
many values are drawn per call.

Gaussian values come from Box-Muller on consecutive uniform pairs;
Rayleigh values from sigma * sqrt(-2 ln U).  Both use ln(1 - u) so the
u == 0 lattice point is safe.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

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


def _check_count(count: int) -> None:
    if count < 0:
        raise InvalidParameter(f"count must be >= 0, got {count!r}", "count")


def raw_stream(seed: int, count: int) -> np.ndarray:
    """First `count` raw 64-bit outputs of splitmix64 for `seed`."""
    _check_count(count)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(_GAMMA)  # wraps mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """i.i.d. doubles in [0, 1) with 53-bit resolution."""
    return (raw_stream(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def gaussian_stream(sigma: float, seed: int, count: int) -> np.ndarray:
    """i.i.d. Normal(0, sigma^2) draws via Box-Muller."""
    _check_count(count)  # before rounding up to whole pairs hides a -1
    pairs = (count + 1) // 2
    u = uniform_stream(mix64(seed ^ _GAUSSIAN_TAG), 2 * pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return sigma * out[:count]


def rayleigh_stream(sigma: float, seed: int, count: int) -> np.ndarray:
    """i.i.d. Rayleigh(scale=sigma) draws, all >= 0."""
    u = uniform_stream(mix64(seed ^ _RAYLEIGH_TAG), count)
    return sigma * np.sqrt(-2.0 * np.log1p(-u))
