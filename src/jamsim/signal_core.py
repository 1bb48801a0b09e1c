"""Sample buffers, tone and noise settings, and the multi-tone source.

Everything downstream (filters, trigger, jammer, analysis) exchanges
`SignalBuffer` values: a uniformly sampled real voltage sequence plus
its sample rate.  Buffers are immutable; operations are pure functions
of their inputs.  A stage hands the arrays it fills to its result uncopied
and splits long buffers with one helper thread, leaving every byte as is.
The noise streams themselves come from `jamsim.rng`.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParameter

#: Simulation defaults: 10 GS/s comfortably clears twice the highest
#: tone of interest (3 GHz), and 4096 samples span 409.6 ns.
DEFAULT_SAMPLE_RATE = 10e9
DEFAULT_N_SAMPLES = 4096
#: A 2 V in-band tone keeps the rectified, filtered wave above the 1 V
#: trigger threshold with margin under unity passband gain.
DEFAULT_TONE_AMPLITUDE = 2.0
#: Noise seed of a run that names none (the Band 3 jammer's stream).
DEFAULT_SEED = 42
#: Largest noise seed: the streams read a seed as 64 bits, so a larger one would alias.
MAX_SEED = 2**64 - 1
#: Longest buffer whose float64 byte count numpy can index.
MAX_N_SAMPLES = np.iinfo(np.intp).max // 8
#: Largest summed tone amplitude and largest noise sigma, in volts, and
#: largest jammer gain.  It is far above any real voltage or gain, and low
#: enough that no stage's samples overflow: a jammer's gain * signal + noise
#: stays near 1e200 at most.  The squares taken downstream stay finite too:
#: the input spectrum's |X|^2 <= (n * total)^2 even at the longest buffer,
#: and the RMS of a jammer at the default gain.  At a larger gain that RMS
#: may overflow to inf, which is a failed simulation, not an invalid input.
MAX_TOTAL_AMPLITUDE = 1e100
#: Samples per block of the tone render and the noise draw; a few stay in cache.
_BLOCK = 16384


def check_number(value, name: str, lo: float = -math.inf, hi: float = math.inf, *,
                 integer: bool = False, above: bool = False):
    """`value` as an int if `integer`, else as a float; InvalidParameter naming `name` unless
    it is such a number and no bool, finite, and in [lo, hi], or in (lo, hi] if `above`."""
    exact, kind = (int, numbers.Integral) if integer else (float, numbers.Real)
    if type(value) is not exact and (type(value) is bool or not isinstance(value, kind)):
        raise InvalidParameter(f"{name} must be {'an integer' if integer else 'a real number'}, "
                               f"got {value!r}", name)
    try:
        out = operator.index(value) if integer else float(value)
    except OverflowError:  # an int past the float range
        out = math.inf
    if not integer and not math.isfinite(out):
        raise InvalidParameter(f"{name} must be finite, got {value!r}", name)
    if (out <= lo if above else out < lo) or out > hi:
        upper = "" if hi == math.inf else f" and <= {hi!r}"
        raise InvalidParameter(f"{name} must be {'>' if above else '>='} {lo!r}{upper}, "
                               f"got {value!r}", name)
    return out


def check_field(config, name: str, *bounds, **kind) -> None:
    """`check_number` of field `name` of a frozen dataclass, storing the value it returns."""
    object.__setattr__(config, name, check_number(getattr(config, name), name, *bounds, **kind))


@dataclass(frozen=True)
class _Owned:
    """A float64 array a stage filled and gives up: buffers check it but do not copy it."""
    array: np.ndarray


def _as_readonly_f64(values, name: str) -> np.ndarray:
    try:
        arr = values.array if isinstance(values, _Owned) else np.array(values, dtype=np.float64)
        if arr.ndim != 1:  # a scalar or a nested sequence, which no buffer or axis is
            raise ValueError(arr.ndim)
    except (TypeError, ValueError):
        raise InvalidParameter(f"{name} must be a 1-D sequence of real numbers", name) from None
    arr.setflags(write=False)
    return arr


def _in_halves(work, lo: int, hi: int, samples: int) -> None:
    """`work(0, lo, hi)`, or from 2**17 samples and two items up `work(0, lo, mid)` here
    while a helper thread runs `work(1, mid, hi)`; an exception from either is raised here."""
    if samples < 2**17 or hi - lo < 2:
        return work(0, lo, hi)
    mid, failed = (lo + hi) // 2, []

    def second_half():
        try:
            work(1, mid, hi)
        except BaseException as exc:  # raised again in the calling thread
            failed.append(exc)
    helper = threading.Thread(target=second_half)
    helper.start()
    try:
        work(0, lo, mid)
    finally:
        helper.join()
    if failed:
        raise failed[0]


@dataclass(frozen=True, eq=False)
class SignalBuffer:
    """Uniformly sampled real voltages (volts) at `sample_rate` (Hz), and their `peak` |x|."""

    samples: np.ndarray
    sample_rate: float
    #: The largest |x|, 0.0 if empty: the buffer's one scan, which also checks finiteness.
    peak: float = field(init=False, repr=False)

    def __post_init__(self):
        rate = check_number(self.sample_rate, "sample_rate", 0.0, above=True)
        arr = _as_readonly_f64(self.samples, "samples")
        peak = float(max(arr.max(), -arr.min())) if arr.size else 0.0  # NaN or inf if any is
        self._check_samples(arr, peak)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "peak", peak)

    def _check_samples(self, samples: np.ndarray, peak: float) -> None:
        """InvalidParameter naming samples unless all are finite (a subclass may allow fewer)."""
        if not math.isfinite(peak):
            raise InvalidParameter("samples must all be finite", "samples")

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        """Same type and every field equal, the samples element by element."""
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class ToneSpec:
    """One sinusoid: frequency (Hz), amplitude (volts), phase (radians)."""

    frequency: float
    amplitude: float = DEFAULT_TONE_AMPLITUDE
    phase: float = 0.0

    def __post_init__(self):
        check_field(self, "frequency", 0.0, above=True)
        check_field(self, "amplitude", 0.0)
        check_field(self, "phase")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian + Rayleigh noise levels (volts) and the stream seed."""

    gaussian_sigma: float = 0.0
    rayleigh_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_field(self, "gaussian_sigma", 0.0, MAX_TOTAL_AMPLITUDE)
        check_field(self, "rayleigh_sigma", 0.0, MAX_TOTAL_AMPLITUDE)
        check_field(self, "seed", 0, MAX_SEED, integer=True)


def _check_kind(value, name: str, kind: type):
    """`value`; InvalidParameter naming `name` unless it is a `kind`."""
    if not isinstance(value, kind):
        raise InvalidParameter(f"{name} must be {kind.__name__}, got {value!r}", name)
    return value


def _check_tones(tones) -> tuple[ToneSpec, ...]:
    """`tones` as a tuple; InvalidParameter naming tones unless it is an iterable of ToneSpec."""
    return tuple(_check_kind(t, "tones", ToneSpec) for t in _check_kind(tones, "tones", Iterable))


def check_below_nyquist(frequency: float, sample_rate: float, what: str, *fields: str) -> None:
    """InvalidParameter naming `fields` unless `frequency` in Hz, a tone's or a band edge's,
    lies below sample_rate / 2; the message calls it `what`."""
    if frequency >= sample_rate / 2.0:
        raise InvalidParameter(f"{what} is not below Nyquist ({sample_rate / 2.0} Hz)", *fields)


def multi_tone(tones, sample_rate: float, n_samples: int) -> SignalBuffer:
    """Sum of sinusoids: x[i] = sum_k a_k sin(2 pi f_k i / fs + phi_k).

    Deterministic.  Each tone is rendered once and scaled, so scaling
    every amplitude by a power of two scales the samples exactly while
    each product a_k sin(...) stays a normal float; a subnormal product
    (below about 2.2e-308 in size) may round one step (5e-324) off.
    """
    sample_rate = check_number(sample_rate, "sample_rate", 0.0, above=True)
    n_samples = check_number(n_samples, "n_samples", 0, MAX_N_SAMPLES, integer=True)
    tones = _check_tones(tones)
    for tone in tones:
        check_below_nyquist(tone.frequency, sample_rate, f"tone at {tone.frequency} Hz",
                            "frequency", "sample_rate")
    acc, scratch = np.empty(n_samples), np.empty((2, 2, min(n_samples, _BLOCK)))
    ramp = np.arange(min(n_samples, _BLOCK), dtype=np.float64)

    def render(half, lo, hi):
        for start in range(lo, hi, _BLOCK):
            out = acc[start:min(start + _BLOCK, hi)]
            t, tmp = scratch[half, :, :out.size]
            np.divide(np.add(ramp[:out.size], start, out=t), sample_rate, out=t)  # i / fs
            out.fill(0.0)  # every tone, the first too, is added into zeros: 0.0 + -0.0 is 0.0
            for tone in tones:
                # a * sin(2 pi f t + phi), evaluated in that order in one scratch block
                np.multiply(2.0 * np.pi * tone.frequency, t, out=tmp)
                tmp += tone.phase
                np.sin(tmp, out=tmp)
                tmp *= tone.amplitude
                out += tmp

    _in_halves(render, 0, n_samples, n_samples)
    return SignalBuffer(_Owned(acc), sample_rate)
