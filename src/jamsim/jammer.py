"""Trigger-gated jamming stage: gain plus Gaussian and Rayleigh noise.

While the gate is high the stage emits gain * signal + noise; while it
is low the output is exactly 0 V.  The noise streams are generated for
the full buffer regardless of gating, so runs that differ only in the
gate stay sample-for-sample comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidParameter, LengthMismatch, SampleRateMismatch
from .signal_core import DEFAULT_SEED, NoiseSpec, SignalBuffer
from .trigger import GateLine

DEFAULT_GAIN = 5.0
DEFAULT_NOISE_SIGMA = 1.0


@dataclass(frozen=True)
class JammerConfig:
    """Amplifier gain and the injected-noise description."""

    gain: float = DEFAULT_GAIN
    noise: NoiseSpec = NoiseSpec(DEFAULT_NOISE_SIGMA, DEFAULT_NOISE_SIGMA, DEFAULT_SEED)

    def __post_init__(self):
        # gain >= 1 so the stage never attenuates; gain == 1 is the
        # degenerate identity configuration used for calibration.
        if not np.isfinite(self.gain) or self.gain < 1.0:
            raise InvalidParameter(f"jammer gain must be >= 1, got {self.gain!r}", "gain")


def jam(signal: SignalBuffer, gate: GateLine, config: JammerConfig) -> SignalBuffer:
    """Amplify and add noise where the gate is high; emit exact 0 elsewhere."""
    if len(signal) != len(gate):
        raise LengthMismatch(f"signal has {len(signal)} samples but gate has {len(gate)}")
    if signal.sample_rate != gate.sample_rate:
        raise SampleRateMismatch(
            f"signal at {signal.sample_rate} Hz but gate at {gate.sample_rate} Hz"
        )
    noise, n = config.noise, len(signal)
    g = rng.gaussian_stream(noise.gaussian_sigma, noise.seed, n)
    r = rng.rayleigh_stream(noise.rayleigh_sigma, noise.seed, n)
    active = config.gain * signal.samples + g + r
    out = np.where(gate.levels > 0.0, active, 0.0)
    return SignalBuffer(out, signal.sample_rate)
