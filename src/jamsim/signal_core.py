"""Sample buffers, tone and noise settings, and the multi-tone source.

Everything downstream (filters, trigger, jammer, analysis) exchanges
`SignalBuffer` values: a uniformly sampled real voltage sequence plus
its sample rate.  Buffers are immutable; operations are pure functions
of their inputs, so concurrent use needs no locking.  The noise streams
themselves come from `jamsim.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrequencyAboveNyquist, InvalidParameter, InvalidSampleRate

#: Simulation defaults: 10 GS/s comfortably clears twice the highest
#: tone of interest (3 GHz), and 4096 samples span 409.6 ns.
DEFAULT_SAMPLE_RATE = 10e9
DEFAULT_N_SAMPLES = 4096
#: A 2 V in-band tone keeps the rectified, filtered wave above the 1 V
#: trigger threshold with margin under unity passband gain.
DEFAULT_TONE_AMPLITUDE = 2.0
#: Noise seed of a run that names none (the Band 3 jammer's stream).
DEFAULT_SEED = 42
#: Largest summed tone amplitude, and largest noise sigma, in volts.  It is
#: far above any real voltage, and low enough that every square taken
#: downstream stays finite: the input spectrum's |X|^2 <= (n * total)^2 even
#: at the longest buffer, and the RMS of a jammer at the default gain.
MAX_TOTAL_AMPLITUDE = 1e100


def check_sample_rate(sample_rate: float) -> float:
    """`sample_rate` as a float; InvalidSampleRate unless finite and > 0."""
    rate = float(sample_rate)
    if not np.isfinite(rate) or rate <= 0.0:
        raise InvalidSampleRate(f"sample_rate must be finite and > 0, got {sample_rate!r}",
                                "sample_rate")
    return rate


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SignalBuffer:
    """Uniformly sampled real voltages (volts) at `sample_rate` (Hz)."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        rate = check_sample_rate(self.sample_rate)
        arr = _as_readonly_f64(self.samples)
        if arr.size and not np.all(np.isfinite(arr)):
            raise InvalidParameter("samples must all be finite")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignalBuffer):
            return NotImplemented
        return self.sample_rate == other.sample_rate and np.array_equal(self.samples, other.samples)

    def times(self) -> np.ndarray:
        """Sample instants t_i = i / sample_rate in seconds."""
        return np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class ToneSpec:
    """One sinusoid: frequency (Hz), amplitude (volts), phase (radians)."""

    frequency: float
    amplitude: float = DEFAULT_TONE_AMPLITUDE
    phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.frequency) or self.frequency <= 0.0:
            raise InvalidParameter(f"frequency must be > 0 Hz, got {self.frequency!r}", "frequency")
        if not np.isfinite(self.amplitude) or self.amplitude < 0.0:
            raise InvalidParameter(f"amplitude must be >= 0 V, got {self.amplitude!r}", "amplitude")
        if not np.isfinite(self.phase):
            raise InvalidParameter(f"phase must be finite, got {self.phase!r}", "phase")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian + Rayleigh noise levels (volts) and the stream seed."""

    gaussian_sigma: float = 0.0
    rayleigh_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("gaussian_sigma", "rayleigh_sigma"):
            if not 0.0 <= getattr(self, name) <= MAX_TOTAL_AMPLITUDE:
                raise InvalidParameter(f"{name} must lie in [0, {MAX_TOTAL_AMPLITUDE:g}] V, "
                                       f"got {getattr(self, name)!r}", name)
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed!r}", "seed")


def multi_tone(tones, sample_rate: float, n_samples: int) -> SignalBuffer:
    """Sum of sinusoids: x[i] = sum_k a_k sin(2 pi f_k i / fs + phi_k).

    Deterministic.  Each tone is rendered once and scaled, so scaling
    every amplitude by a power of two scales the samples exactly while
    each product a_k sin(...) stays a normal float; a subnormal product
    (below about 2.2e-308 in size) may round one step (5e-324) off.
    """
    check_sample_rate(sample_rate)
    if n_samples < 0:
        raise InvalidParameter(f"n_samples must be >= 0, got {n_samples!r}", "n_samples")
    for tone in tones:
        if tone.frequency >= sample_rate / 2.0:
            raise FrequencyAboveNyquist(
                f"tone at {tone.frequency} Hz is not below Nyquist ({sample_rate / 2.0} Hz)"
            )
    t = np.arange(n_samples) / sample_rate
    # Every tone, the first too, is added into zeros: 0.0 + -0.0 is 0.0.
    acc, tmp = np.zeros(n_samples), np.empty(n_samples)
    for tone in tones:
        # a * sin(2 pi f t + phi), evaluated in that order in one scratch buffer
        np.multiply(2.0 * np.pi * tone.frequency, t, out=tmp)
        tmp += tone.phase
        np.sin(tmp, out=tmp)
        tmp *= tone.amplitude
        acc += tmp
    return SignalBuffer(acc, sample_rate)
