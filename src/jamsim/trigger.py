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
from scipy.ndimage import maximum_filter1d

from .errors import InvalidParameter, InvalidWindow
from .filterbank import LOWEST_PASSBAND_HZ
from .signal_core import SignalBuffer

DEFAULT_THRESHOLD = 1.0
DEFAULT_HIGH_LEVEL = 5.0


def default_envelope_window(sample_rate: float,
                            lowest_frequency_hz: float = LOWEST_PASSBAND_HZ) -> int:
    """Samples covering one period of the slowest in-band frequency."""
    return max(1, math.ceil(sample_rate / lowest_frequency_hz))


@dataclass(frozen=True)
class TriggerConfig:
    """Comparator threshold/high level and the envelope window length.

    `envelope_window=None` means "one period of the slowest in-band
    frequency at the buffer's sample rate", resolved when a chain runs.
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

    def resolved(self, sample_rate: float) -> "TriggerConfig":
        """Fill a concrete envelope window for `sample_rate`."""
        if self.envelope_window is not None:
            return self
        return TriggerConfig(self.threshold, self.high_level,
                             default_envelope_window(sample_rate))


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
    """Trailing maximum over `window` samples, truncated at the start."""
    if window < 1:
        raise InvalidWindow(f"envelope window must be >= 1, got {window}")
    if len(signal) == 0:
        return signal
    # Any window of len(signal) or more reaches back to sample 0 everywhere.
    window = min(window, len(signal))
    # origin shifts the max window so it ends at the current sample.
    env = maximum_filter1d(signal.samples, size=window,
                           origin=(window - 1) - window // 2,
                           mode="constant", cval=-np.inf)
    return SignalBuffer(env, signal.sample_rate)


def comparator(env: SignalBuffer, config: TriggerConfig) -> GateLine:
    """high_level where the envelope strictly exceeds the threshold, else 0."""
    levels = np.where(env.samples > config.threshold, config.high_level, 0.0)
    return GateLine(levels, env.sample_rate, config.high_level)


def trigger_chain(signal: SignalBuffer, config: TriggerConfig) -> GateLine:
    """Rectify, track the envelope, compare: the whole trigger circuit."""
    cfg = config.resolved(signal.sample_rate)
    return comparator(envelope(full_wave_rectify(signal), cfg.envelope_window), cfg)
