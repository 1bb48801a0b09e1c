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

from .errors import InvalidParameter
from .filterbank import LOWEST_PASSBAND_HZ
from .signal_core import SignalBuffer, _in_halves, _Owned, check_field, check_number

DEFAULT_THRESHOLD = 1.0
DEFAULT_HIGH_LEVEL = 5.0


def default_envelope_window(sample_rate: float) -> int:
    """Samples covering one period of the slowest in-band frequency."""
    sample_rate = check_number(sample_rate, "sample_rate", 0.0, above=True)
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
        check_field(self, "threshold", 0.0, above=True)
        check_field(self, "high_level")
        if not self.high_level > self.threshold:
            raise InvalidParameter("high_level must exceed threshold", "threshold", "high_level")
        if self.envelope_window is not None:
            check_field(self, "envelope_window", 1, integer=True)


@dataclass(frozen=True, eq=False)
class GateLine(SignalBuffer):
    """Comparator output: every sample exactly 0 or exactly high_level."""

    high_level: float = DEFAULT_HIGH_LEVEL

    def _check_samples(self, samples: np.ndarray, peak: float) -> None:
        """Check high_level, then that each sample is 0 or high_level, so finite, as `peak` is."""
        check_field(self, "high_level")
        if not ((samples == 0.0) | (samples == self.high_level)).all():
            raise InvalidParameter("gate levels must be exactly 0 or high_level", "samples")

    @property
    def levels(self) -> np.ndarray:
        """The gate's samples; kept only for the perfbench harness."""
        return self.samples


def _trailing_max(env: np.ndarray, spare: np.ndarray, window: int) -> np.ndarray:
    """`envelope` of `env`, formed in `env` and `spare` by turns; returns the one holding it."""
    window = min(window, env.size)  # a longer window reaches back to sample 0 everywhere
    span = 1
    while span < window:
        step = min(span, window - span)
        spare[:step] = env[:step]
        np.maximum(env[step:], env[:-step], out=spare[step:])
        env, spare, span = spare, env, span + step
    return env


def envelope(signal: SignalBuffer, window: int) -> SignalBuffer:
    """Trailing maximum over `window` samples, truncated at the start.

    env[i] = max(x[max(0, i - window + 1) .. i]).  Built by doubling: a
    span-s maximum becomes a span-2s one with one shifted np.maximum, and
    one last overlapping step of two span-s maxima covers the remaining
    window - s samples.  O(n log window) and exact, since max does not
    round.  Two buffers take turns, so no step reads what it writes.
    """
    window = check_number(window, "window", 1, integer=True)
    x = signal.samples
    return SignalBuffer(_Owned(_trailing_max(x.copy(), np.empty_like(x), window)),
                        signal.sample_rate)


def trigger_chain(signal: SignalBuffer, config: TriggerConfig) -> GateLine:
    """Rectify, track the envelope, compare: the whole trigger circuit."""
    window = (default_envelope_window(signal.sample_rate) if config.envelope_window is None
              else config.envelope_window)
    x, levels = signal.samples, np.empty(len(signal))
    work = np.empty((2, x.size + min(window - 1, x.size // 2)))

    def detect(half, lo, hi):
        first = max(0, lo - window + 1)  # the window - 1 samples before lo make env exact
        env, spare = work[:, lo:lo + hi - first]
        env = _trailing_max(np.abs(x[first:hi], out=env), spare, window)[lo - first:]
        np.multiply(np.greater(env, config.threshold, out=levels[lo:hi]), config.high_level,
                    out=levels[lo:hi])  # 1 -> high_level, 0 -> 0.0

    _in_halves(detect, 0, x.size, x.size)
    return GateLine(_Owned(levels), signal.sample_rate, config.high_level)
