"""Trigger stage: full-wave rectifier, peak envelope, 0V/5V comparator.

A bare per-sample comparator on a rectified sine would drop out at
every zero crossing; the trailing-max envelope over roughly one period
of the slowest in-band tone is what turns a detected carrier into the
constant gate level the jammer expects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, InvalidWindow
from .filterbank import LOWEST_PASSBAND_HZ
from .signal_core import SignalBuffer

DEFAULT_THRESHOLD = 1.0
DEFAULT_HIGH_LEVEL = 5.0


def default_envelope_window(sample_rate: float) -> int:
    """Samples covering one period of the slowest in-band frequency."""
    return max(1, math.ceil(sample_rate / LOWEST_PASSBAND_HZ))


@dataclass(frozen=True)
class TriggerConfig:
    """Comparator threshold/high level and the envelope window length.

    `envelope_window=None` means `default_envelope_window` of the
    buffer's sample rate: one period of the slowest in-band frequency.
    """

    threshold: float = DEFAULT_THRESHOLD
    high_level: float = DEFAULT_HIGH_LEVEL
    envelope_window: int | None = None

    def __post_init__(self):
        if not self.threshold > 0.0:
            raise InvalidParameter("threshold must be > 0", "threshold")
        if not self.high_level > self.threshold:
            raise InvalidParameter("high_level must exceed threshold", "threshold", "high_level")
        if self.envelope_window is not None and self.envelope_window < 1:
            raise InvalidWindow("envelope_window must be >= 1 sample", "envelope_window")


@dataclass(frozen=True, eq=False)
class GateLine:
    """Comparator output: every sample exactly 0 or exactly high_level."""

    levels: np.ndarray
    sample_rate: float
    high_level: float = DEFAULT_HIGH_LEVEL

    def __post_init__(self):
        arr = np.array(self.levels, dtype=np.float64, copy=True).reshape(-1)
        arr.setflags(write=False)
        if not np.all((arr == 0.0) | (arr == self.high_level)):
            raise InvalidParameter("gate levels must be exactly 0 or exactly high_level")
        object.__setattr__(self, "levels", arr)

    def __len__(self) -> int:
        return self.levels.size

    def to_buffer(self) -> SignalBuffer:
        return SignalBuffer(self.levels, self.sample_rate)


def full_wave_rectify(signal: SignalBuffer) -> SignalBuffer:
    """y[i] = |x[i]|."""
    return SignalBuffer(np.abs(signal.samples), signal.sample_rate)


def envelope(signal: SignalBuffer, window: int) -> SignalBuffer:
    """Trailing maximum over `window` samples, truncated at the start.

    env[i] = max(x[max(0, i - window + 1) .. i]).  Built by doubling: a
    span-s maximum becomes a span-2s one with one shifted np.maximum, and
    one last overlapping step of two span-s maxima covers the remaining
    window - s samples.  O(n log window) and exact, since max does not
    round.  Two buffers take turns, so no step reads what it writes.
    """
    if window < 1:
        raise InvalidWindow(f"envelope window must be >= 1, got {window}")
    x = signal.samples
    # Any window of len(signal) or more reaches back to sample 0 everywhere.
    window = min(window, x.size)
    env, spare, span = x.copy(), np.empty_like(x), 1
    while span < window:
        step = min(span, window - span)
        spare[:step] = env[:step]
        np.maximum(env[step:], env[:-step], out=spare[step:])
        env, spare, span = spare, env, span + step
    return SignalBuffer(env, signal.sample_rate)


def comparator(env: SignalBuffer, config: TriggerConfig) -> GateLine:
    """high_level where the envelope strictly exceeds the threshold, else 0."""
    levels = np.where(env.samples > config.threshold, config.high_level, 0.0)
    return GateLine(levels, env.sample_rate, config.high_level)


def trigger_chain(signal: SignalBuffer, config: TriggerConfig) -> GateLine:
    """Rectify, track the envelope, compare: the whole trigger circuit."""
    window = (default_envelope_window(signal.sample_rate) if config.envelope_window is None
              else config.envelope_window)
    return comparator(envelope(full_wave_rectify(signal), window), config)
