import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jamsim.errors import InvalidParameter
from jamsim.rng import gaussian_stream, rayleigh_stream
from jamsim.signal_core import NoiseSpec, SignalBuffer, ToneSpec, multi_tone
from jamsim.trigger import GateLine

FS = 10e9
N = 4096

#: Finite floats of every size, with signed zeros, subnormals and +-1e300 drawn often.
finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]))


def spectral_peak_bins(buffer, magnitude_over_median=30.0):
    """Independent FFT oracle: local-max bins well above the median bin."""
    mag = np.abs(np.fft.rfft(buffer.samples))
    floor = np.median(mag)
    bins = []
    for k in range(1, mag.size - 1):
        if mag[k] > mag[k - 1] and mag[k] > mag[k + 1] and mag[k] > magnitude_over_median * floor:
            bins.append(k)
    return bins


class TestSignalBuffer:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidParameter, match="sample_rate"):
            SignalBuffer([0.0], 0.0)
        with pytest.raises(InvalidParameter, match="sample_rate"):
            SignalBuffer([0.0], -1.0)

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError):
            SignalBuffer([0.0, np.nan], FS)
        with pytest.raises(ValueError):
            SignalBuffer([np.inf], FS)

    def test_empty_buffer_is_legal(self):
        assert len(SignalBuffer([], FS)) == 0

    def test_samples_are_immutable(self):
        buf = SignalBuffer([1.0, 2.0], FS)
        with pytest.raises(ValueError):
            buf.samples[0] = 9.0


class TestPeak:
    @given(hnp.arrays(np.float64, st.integers(1, 64), elements=finite_floats))
    def test_the_peak_is_the_largest_magnitude(self, x):
        assert SignalBuffer(x, FS).peak == np.abs(x).max()

    @given(hnp.arrays(np.bool_, st.integers(1, 64)), finite_floats)
    def test_a_gates_peak_is_the_largest_magnitude(self, high, level):
        x = np.where(high, level, 0.0)
        assert GateLine(x, FS, level).peak == np.abs(x).max()

    def test_an_empty_buffer_peaks_at_zero(self):
        assert SignalBuffer([], FS).peak == 0.0
        assert GateLine([], FS).peak == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 3, -1])
    def test_a_non_finite_sample_anywhere_is_refused_without_a_warning(self, bad, at):
        x = np.array([1e300, -0.0, -1e300, 5e-324, 2.0])
        x[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="^samples must all be finite$") as err:
                SignalBuffer(x, FS)
        assert err.value.fields == ("samples",)

    def test_replace_recomputes_the_peak(self):
        buf = SignalBuffer([1.0, -2.0], FS)
        assert replace(buf, samples=[0.5, -4.0]).peak == 4.0
        assert replace(buf, sample_rate=1.0).peak == 2.0
        assert replace(GateLine([0.0, 5.0], FS), samples=[0.0, 0.0]).peak == 0.0

    def test_the_peak_is_read_only(self):
        buf = SignalBuffer([1.0, -2.0], FS)
        with pytest.raises(FrozenInstanceError):
            buf.peak = 9.0
        with pytest.raises(ValueError, match="init=False"):
            replace(buf, peak=9.0)
        assert "peak" not in repr(buf)


class TestEquality:
    def test_a_gate_is_not_a_plain_buffer(self):
        zeros = np.zeros(8)
        assert GateLine(zeros, FS) != SignalBuffer(zeros, FS)
        assert SignalBuffer(zeros, FS) != GateLine(zeros, FS)

    def test_gates_differing_only_in_high_level_differ(self):
        zeros = np.zeros(8)
        assert GateLine(zeros, FS, 5.0) != GateLine(zeros, FS, 3.0)
        assert GateLine(zeros, FS, 5.0) == GateLine(zeros.copy(), FS, 5.0)


class TestMultiTone:
    def test_four_tone_spectrum_has_exactly_four_peaks(self):
        tones_hz = (1.2e9, 1.5e9, 1.6e9, 3.0e9)
        buf = multi_tone([ToneSpec(f, 2.0) for f in tones_hz], FS, N)
        bins = spectral_peak_bins(buf)
        assert len(bins) == 4
        for f, k in zip(tones_hz, sorted(bins)):
            assert abs(k - f * N / FS) <= 1.0

    def test_two_tones_three_bins_apart_resolve(self):
        res = FS / N
        bins = spectral_peak_bins(multi_tone([ToneSpec(500 * res, 2.0), ToneSpec(503 * res, 2.0)],
                                             FS, N))
        assert bins == [500, 503]

    def test_two_tones_render_as_the_sum_of_each_alone(self):
        a, b = ToneSpec(1.2e9, 2.0), ToneSpec(2.3e9, 2.0)
        both = multi_tone([a, b], FS, N)
        assert np.array_equal(both.samples, multi_tone([a], FS, N).samples
                              + multi_tone([b], FS, N).samples)
        bins = spectral_peak_bins(both)
        assert len(bins) == 2
        assert abs(bins[0] - 1.2e9 * N / FS) <= 1.0
        assert abs(bins[1] - 2.3e9 * N / FS) <= 1.0

    @settings(max_examples=50)
    @given(st.lists(st.builds(ToneSpec, st.floats(1e6, 4.9e9), st.just(0.0) | st.floats(0.0, 8.0),
                              st.floats(-3.0, 3.0)), max_size=5),
           st.integers(2, 300))
    def test_matches_one_expression_per_tone_bit_for_bit(self, tones, n):
        t = np.arange(n) / FS
        want = np.zeros(n)
        for tone in tones:
            want += tone.amplitude * np.sin(2.0 * np.pi * tone.frequency * t + tone.phase)
        assert multi_tone(tones, FS, n).samples.tobytes() == want.tobytes()

    def test_silent_tone_renders_positive_zeros(self):
        # 0 V times a negative sine is -0.0; adding it into zeros gives 0.0,
        # which the CSV writer prints without a sign.
        buf = multi_tone([ToneSpec(1e9, 0.0)], FS, 16)
        assert not np.any(np.signbit(buf.samples))

    def test_empty_tone_list_renders_silence(self):
        buf = multi_tone([], FS, 100)
        assert len(buf) == 100
        assert np.all(buf.samples == 0.0)

    def test_single_tone_dominant_bin(self):
        buf = multi_tone([ToneSpec(1.0e9, 2.0)], FS, N)
        dominant = int(np.argmax(np.abs(np.fft.rfft(buf.samples))))
        assert dominant == round(1.0e9 * N / FS) == 410

    def test_tone_at_or_above_nyquist_rejected(self):
        with pytest.raises(InvalidParameter, match="Nyquist"):
            multi_tone([ToneSpec(FS / 2.0)], FS, 16)
        with pytest.raises(InvalidParameter, match="Nyquist"):
            multi_tone([ToneSpec(6e9)], FS, 16)

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(InvalidParameter, match="sample_rate"):
            multi_tone([], 0.0, 16)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            multi_tone([], FS, -1)

    # Amplitudes of 0 or >= 1e-6 V and phases of 0 or >= 1e-300 rad in size
    # keep every product a * sin(...) normal or zero, the range in which
    # multi_tone's scaling is exact.
    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.floats(1e6, 4e9), st.just(0.0) | st.floats(1e-6, 8.0),
                              st.floats(-3.0, 3.0).filter(lambda p: p == 0.0 or abs(p) >= 1e-300)),
                    min_size=0, max_size=5))
    def test_doubling_amplitudes_doubles_samples_exactly(self, tone_params):
        base = [ToneSpec(f, a, p) for f, a, p in tone_params]
        doubled = [ToneSpec(f, 2.0 * a, p) for f, a, p in tone_params]
        one = multi_tone(base, FS, 256)
        two = multi_tone(doubled, FS, 256)
        assert np.array_equal(two.samples, 2.0 * one.samples)

    def test_doubling_a_subnormal_amplitude_is_off_by_at_most_one_step(self):
        # 5e-324 V times a sine rounds to 0 or 5e-324; twice that amplitude
        # can round the other way, one subnormal step (5e-324) apart.
        one = multi_tone([ToneSpec(1577072.0, 5e-324)], FS, 256)
        two = multi_tone([ToneSpec(1577072.0, 1e-323)], FS, 256)
        assert np.max(np.abs(two.samples - 2.0 * one.samples)) <= 5e-324


class TestToneSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ToneSpec(frequency=0.0)
        with pytest.raises(ValueError):
            ToneSpec(frequency=1e9, amplitude=-0.5)
        with pytest.raises(ValueError):
            ToneSpec(frequency=1e9, phase=np.inf)

    def test_defaults(self):
        tone = ToneSpec(frequency=1e9)
        assert tone.amplitude == 2.0
        assert tone.phase == 0.0


class TestGaussianNoise:
    def test_zero_sigma_is_silence(self):
        assert np.all(gaussian_stream(0.0, 1, 1000) == 0.0)

    def test_sample_mean_within_standard_error_bound(self):
        # 4 standard errors of the mean for n = 1e5 unit-sigma draws.
        samples = gaussian_stream(1.0, 42, 10**5)
        assert abs(float(np.mean(samples))) < 4.0 / np.sqrt(10**5)

    def test_same_seed_bit_identical(self):
        assert np.array_equal(gaussian_stream(1.0, 7, 4096), gaussian_stream(1.0, 7, 4096))

    def test_different_seeds_differ(self):
        assert not np.array_equal(gaussian_stream(1.0, 1, 64), gaussian_stream(1.0, 2, 64))

    def test_variance_tracks_sigma(self):
        for seed in range(3):
            assert np.var(gaussian_stream(2.0, seed, 10**5)) == pytest.approx(4.0, rel=0.05)


class TestRayleighNoise:
    def test_zero_sigma_is_silence(self):
        assert np.all(rayleigh_stream(0.0, 3, 500) == 0.0)

    def test_support_is_nonnegative(self):
        assert rayleigh_stream(1.5, 11, 10**4).min() >= 0.0

    def test_sample_mean_matches_analytic_mean(self):
        # Rayleigh(sigma=1) has mean sigma * sqrt(pi/2).
        samples = rayleigh_stream(1.0, 7, 10**5)
        assert float(np.mean(samples)) == pytest.approx(np.sqrt(np.pi / 2.0), rel=0.01)

    def test_same_seed_bit_identical(self):
        assert np.array_equal(rayleigh_stream(1.0, 5, 2048), rayleigh_stream(1.0, 5, 2048))


class TestNoiseSpec:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            NoiseSpec(gaussian_sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(rayleigh_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(seed=-1)
