"""Measurement utilities: power spectrum and RMS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .signal_core import SignalBuffer, _as_readonly_f64, check_number

#: dB value substituted for zero-power bins so output stays finite.
DB_FLOOR = -200.0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided power spectrum: per-bin power in dB over [0, fs/2]."""

    freqs: np.ndarray
    power_db: np.ndarray
    resolution: float

    def __post_init__(self):
        freqs = _as_readonly_f64(self.freqs, "freqs")
        power = _as_readonly_f64(self.power_db, "power_db")
        if freqs.shape != power.shape:
            raise InvalidParameter("freqs and power_db must align")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power_db", power)

    def __len__(self) -> int:
        return self.freqs.size


def power_spectrum(signal: SignalBuffer) -> Spectrum:
    """Magnitude-squared DFT of the raw (rectangular-windowed) buffer.

    Normalized so the per-bin powers sum to the signal's mean square
    (Parseval); interior bins carry the doubled one-sided weight.
    """
    n = len(signal)
    if n < 2:
        raise InvalidParameter(f"power_spectrum needs at least 2 samples, got {n}")
    spec = np.fft.rfft(signal.samples)
    power = np.abs(spec) ** 2 / float(n) ** 2
    # Fold the negative-frequency half into the interior bins.
    power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0
    power_db = np.full(power.shape, DB_FLOOR)
    nonzero = power > 0.0
    power_db[nonzero] = np.maximum(10.0 * np.log10(power[nonzero]), DB_FLOOR)
    freqs = np.fft.rfftfreq(n, d=1.0 / signal.sample_rate)
    return Spectrum(freqs=freqs, power_db=power_db, resolution=signal.sample_rate / n)


def rms(signal: SignalBuffer, skip_fraction: float = 0.0) -> float:
    """Root mean square after discarding the leading `skip_fraction`.

    inf, without a warning, if the squares overflow.
    """
    skip_fraction = check_number(skip_fraction, "skip_fraction", 0.0, 1.0)
    start = int(skip_fraction * len(signal))
    tail = signal.samples[start:]
    if tail.size == 0:
        raise InvalidParameter("nothing left to measure after the skip region")
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(tail * tail)))
