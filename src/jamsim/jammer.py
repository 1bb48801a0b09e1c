"""Trigger-gated jamming stage: gain plus Gaussian and Rayleigh noise.

While the gate is high the stage emits gain * signal + noise; while it
is low the output is exactly 0 V.  Noise sample j is a pure function of
(seed, j), because the splitmix64 streams are counter-based and random
access by index, so runs that differ only in the gate stay
sample-for-sample comparable.  That lets the stage work block by block,
each half of a long buffer on its own thread, and draw noise only in the
blocks where the gate is high at least once: the others stay exact zeros,
as the circuit wastes no power when no signal is detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidParameter
from .signal_core import (_BLOCK, DEFAULT_SEED, MAX_TOTAL_AMPLITUDE, NoiseSpec, SignalBuffer,
                          _check_kind, _in_halves, _Owned, check_field)
from .trigger import GateLine

DEFAULT_GAIN = 5.0
DEFAULT_NOISE_SIGMA = 1.0


@dataclass(frozen=True)
class JammerConfig:
    """Amplifier gain and the injected-noise description."""

    gain: float = DEFAULT_GAIN
    noise: NoiseSpec = NoiseSpec(DEFAULT_NOISE_SIGMA, DEFAULT_NOISE_SIGMA, DEFAULT_SEED)

    def __post_init__(self):
        # gain >= 1: the stage never attenuates (gain 1 is the identity, for calibration)
        check_field(self, "gain", 1.0, MAX_TOTAL_AMPLITUDE)
        _check_kind(self.noise, "noise", NoiseSpec)


def jam(signal: SignalBuffer, gate: GateLine, config: JammerConfig) -> SignalBuffer:
    """Amplify and add noise where the gate is high; emit exact 0 elsewhere."""
    if len(signal) != len(gate):
        raise InvalidParameter(f"signal has {len(signal)} samples but gate has {len(gate)}")
    if signal.sample_rate != gate.sample_rate:
        raise InvalidParameter(f"signal at {signal.sample_rate} Hz but gate at "
                               f"{gate.sample_rate} Hz")
    noise, n = config.noise, len(signal)
    out = np.zeros(n)

    def fill(half, lo, hi):  # gain * signal + Gaussian + Rayleigh, added in that order
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            low = gate.samples[a:b] == 0.0
            if low.all():
                continue
            part = np.multiply(config.gain, signal.samples[a:b], out=out[a:b])
            part += rng.gaussian_stream(noise.gaussian_sigma, noise.seed, b - a, a)
            part += rng.rayleigh_stream(noise.rayleigh_sigma, noise.seed, b - a, a)
            np.copyto(part, 0.0, where=low)

    _in_halves(fill, 0, n, n)
    return SignalBuffer(_Owned(out), signal.sample_rate)
