"""The four detection bandpass filters and their biquad realizations.

Each band is realized as a Butterworth bandpass: an analog lowpass
prototype of order ``order/2`` is frequency-transformed to a bandpass
between the pre-warped band edges, mapped to z via the bilinear
transform, and factored into second-order recursive sections.  The
pre-warping makes the digital -3 dB points land exactly on the
requested edges.  Each section is normalized to unit magnitude at the
digital image of the analog geometric centre ``sqrt(w_low * w_high)``,
so the cascade has 0 dB gain there and matches scipy's ``butter``.
`FilterStages` holds the cascade as one read-only ``sos`` array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import sosfilt

from .errors import (
    BandAboveNyquist,
    DesignUnstable,
    FrequencyAboveNyquist,
    InvalidOrder,
    InvalidParameter,
    SampleRateMismatch,
)
from .signal_core import SignalBuffer, check_sample_rate

DEFAULT_FILTER_ORDER = 6


@dataclass(frozen=True)
class FilterSpec:
    """One passband: edges in MHz."""

    id: int
    band_low: float
    band_high: float

    def __post_init__(self):
        if not 0.0 < self.band_low < self.band_high:
            raise InvalidParameter(f"band edges must satisfy 0 < band_low < band_high, "
                                   f"got {self.band_low}..{self.band_high} MHz")

    @property
    def center(self) -> float:
        """The arithmetic midpoint of the band, in MHz."""
        return (self.band_low + self.band_high) / 2.0


#: The four detection bands.  Rows 2/3 are the Band 3 FDD uplink and
#: downlink halves, row 4 is the shared Band 40 TDD allocation, and
#: row 1 spans all of Band 3.
BAND_FILTER_SPECS = (
    FilterSpec(id=1, band_low=1710.0, band_high=1880.0),
    FilterSpec(id=2, band_low=1710.0, band_high=1785.0),
    FilterSpec(id=3, band_low=1805.0, band_high=1880.0),
    FilterSpec(id=4, band_low=2305.0, band_high=2405.0),
)

#: Lowest passband edge over all bands, in Hz (sets the default
#: envelope window: one period of the slowest in-band oscillation).
LOWEST_PASSBAND_HZ = min(s.band_low for s in BAND_FILTER_SPECS) * 1e6


@dataclass(frozen=True, eq=False)
class FilterStages:
    """A realized biquad cascade for one `FilterSpec`.

    `sos` is a read-only (n_sections, 6) array, one row
    ``[b0, b1, b2, 1, a1, a2]`` per section (scipy's sosfilt layout).
    """

    sos: np.ndarray
    sample_rate: float
    spec: FilterSpec

    def __post_init__(self):
        sos = np.array(self.sos, dtype=np.float64)
        if sos.ndim != 2 or sos.shape[1] != 6 or np.any(sos[:, 3] != 1.0):
            raise InvalidParameter("sos must be an array of rows [b0, b1, b2, 1, a1, a2]")
        if not np.isfinite(sos).all():
            raise DesignUnstable("non-finite section coefficient")
        a1, a2 = sos[:, 4], sos[:, 5]
        # Poles strictly inside the unit circle (stability triangle).
        unstable = np.flatnonzero(~((np.abs(a2) < 1.0) & (np.abs(a1) < 1.0 + a2)))
        if unstable.size:
            i = unstable[0]
            raise DesignUnstable(f"section {i} has poles on or outside the unit circle "
                                 f"(a1={a1[i]:.17g}, a2={a2[i]:.17g})")
        sos.setflags(write=False)
        object.__setattr__(self, "sos", sos)


def _pair_into_sections(z_poles: np.ndarray) -> np.ndarray:
    """Group z-plane poles into conjugate pairs; returns an (n, 2) array of (a1, a2)."""
    upper = z_poles[np.imag(z_poles) > 1e-12]
    reals = np.sort(np.real(z_poles[np.abs(np.imag(z_poles)) <= 1e-12]))
    pairs = [(-2.0 * float(np.real(p)), float(np.abs(p)) ** 2) for p in upper]
    pairs += [(-(r1 + r2), r1 * r2) for r1, r2 in zip(reals[0::2], reals[1::2])]
    if 2 * len(pairs) != z_poles.size:
        raise DesignUnstable("pole set did not split into conjugate pairs")
    return np.array(pairs, dtype=np.float64)


def _section_responses(sos: np.ndarray, z) -> np.ndarray:
    """Each section's response at z = exp(-j*omega), shape (n_sections, z.size)."""
    b0, b1, b2, _, a1, a2 = sos.T[:, :, None]
    return (b0 + b1 * z + b2 * z * z) / (1.0 + a1 * z + a2 * z * z)


def check_filter_order(order: int) -> None:
    """InvalidOrder unless `order` is an even integer >= 2."""
    if order < 2 or order % 2 != 0:
        raise InvalidOrder(f"filter order must be even and >= 2, got {order!r}", "filter_order")


# At extreme sample rates the design overflows or loses all precision;
# every such design ends in DesignUnstable, so numpy's warnings add nothing.
@np.errstate(all="ignore")
def design_bandpass(spec: FilterSpec, sample_rate: float,
                    order: int = DEFAULT_FILTER_ORDER) -> FilterStages:
    """Synthesize one band-plan bandpass as `order/2` biquads.

    `order` counts the poles of the realized bandpass (an order-6
    filter is three sections from a 3rd-order prototype), so it must
    be even.
    """
    check_filter_order(order)
    check_sample_rate(sample_rate)
    f_low = spec.band_low * 1e6
    f_high = spec.band_high * 1e6
    if f_high >= sample_rate / 2.0:
        raise BandAboveNyquist(
            f"band edge {spec.band_high} MHz is not below Nyquist at fs={sample_rate} Hz"
        )
    n = order // 2

    # Pre-warp the band edges so the bilinear transform lands the
    # analog -3 dB points exactly on the requested digital edges.
    w_low = 2.0 * sample_rate * math.tan(math.pi * f_low / sample_rate)
    w_high = 2.0 * sample_rate * math.tan(math.pi * f_high / sample_rate)
    w0_sq = w_low * w_high
    bw = w_high - w_low

    # Butterworth lowpass prototype poles, unit cutoff, left half-plane.
    k = np.arange(n)
    proto = np.exp(1j * np.pi * (2.0 * k + n + 1.0) / (2.0 * n))

    # Lowpass -> bandpass: each prototype pole p becomes the two roots
    # of s^2 - (bw p) s + w0^2.
    pb = proto * bw
    disc = np.sqrt(pb * pb - 4.0 * w0_sq)
    s_poles = np.concatenate([(pb + disc) / 2.0, (pb - disc) / 2.0])

    # Bilinear transform.  The transformed zeros are n at z=+1 (the
    # prototype's s=0 zeros) and n at z=-1 (the zeros at infinity), so
    # every section takes numerator (1 - z^-2) before scaling.
    z_poles = (2.0 * sample_rate + s_poles) / (2.0 * sample_rate - s_poles)
    sos = np.hstack([np.tile([1.0, 0.0, -1.0, 1.0], (n, 1)), _pair_into_sections(z_poles)])

    # Unit gain per section at the digital image of the analog
    # geometric centre w0: f_c = fs/pi * atan(w0 / (2 fs)).
    zc = np.exp(-2j * math.atan(math.sqrt(w0_sq) / (2.0 * sample_rate)))
    gain = np.abs(_section_responses(sos, zc))[:, 0]
    if not np.all((gain > 0.0) & np.isfinite(gain)):
        raise DesignUnstable("section response degenerate at band centre")
    sos[:, :3] /= gain[:, None]

    stages = FilterStages(sos=sos, sample_rate=sample_rate, spec=spec)
    centre_db = frequency_response(stages, [spec.center * 1e6])[0][0]
    if not -1.0 <= centre_db <= 0.5:
        raise DesignUnstable(f"cascade gain at centre is {centre_db:.3f} dB, expected ~0 dB")
    return stages


def frequency_response(stages: FilterStages, freqs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the cascade on the unit circle at `freqs` (Hz).

    Returns (magnitude_db, phase_rad) arrays.  Magnitude is floored at
    -300 dB so exact transfer-function zeros stay representable.
    """
    f = np.asarray(freqs, dtype=np.float64).reshape(-1)
    if f.size and (f.min() < 0.0 or f.max() > stages.sample_rate / 2.0):
        raise FrequencyAboveNyquist("response frequencies must lie in [0, fs/2]")
    z = np.exp(-2j * np.pi * f / stages.sample_rate)
    h = np.prod(_section_responses(stages.sos, z), axis=0)
    mag_db = 20.0 * np.log10(np.maximum(np.abs(h), 1e-15))
    return mag_db, np.angle(h)


def apply_filter(stages: FilterStages, signal: SignalBuffer) -> SignalBuffer:
    """Run the cascade over a buffer (direct-form II transposed, zero state)."""
    if signal.sample_rate != stages.sample_rate:
        raise SampleRateMismatch(
            f"buffer at {signal.sample_rate} Hz vs filter designed for {stages.sample_rate} Hz"
        )
    if len(signal) == 0:
        return SignalBuffer(np.zeros(0), signal.sample_rate)
    # sosfilt rejects a read-only coefficient buffer.
    return SignalBuffer(sosfilt(stages.sos.copy(), signal.samples), signal.sample_rate)

