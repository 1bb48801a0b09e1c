import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim.analysis import DB_FLOOR, Spectrum, power_spectrum, rms
from jamsim.errors import InvalidParameter
from jamsim.signal_core import SignalBuffer, ToneSpec, multi_tone

FS = 10e9
N = 4096


class TestPowerSpectrum:
    def test_silence_sits_on_the_floor(self):
        spec = power_spectrum(SignalBuffer(np.zeros(256), FS))
        assert np.all(spec.power_db == DB_FLOOR)

    def test_tone_peak_lands_within_one_bin(self):
        spec = power_spectrum(multi_tone([ToneSpec(2.34e9, 2.0)], FS, N))
        peak_bin = int(np.argmax(spec.power_db))
        assert abs(spec.freqs[peak_bin] - 2.34e9) <= spec.resolution

    @settings(max_examples=50)
    @given(st.integers(5, N // 2 - 5), st.floats(0.1, 10.0, allow_nan=False))
    def test_bin_exact_tone_peaks_at_its_bin(self, bin_index, amplitude):
        res = FS / N
        spec = power_spectrum(multi_tone([ToneSpec(bin_index * res, amplitude)], FS, N))
        assert int(np.argmax(spec.power_db)) == bin_index
        assert spec.freqs[bin_index] == pytest.approx(bin_index * res, abs=1e-3)

    def test_parseval_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, 1024)
            spec = power_spectrum(SignalBuffer(x, FS))
            total = np.sum(10.0 ** (spec.power_db / 10.0))
            mean_square = float(np.mean(x * x))
            assert total == pytest.approx(mean_square, rel=1e-6)

    def test_parseval_odd_length(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5.0, 5.0, 1023)
        spec = power_spectrum(SignalBuffer(x, FS))
        total = np.sum(10.0 ** (spec.power_db / 10.0))
        assert total == pytest.approx(float(np.mean(x * x)), rel=1e-6)

    def test_axis_spans_zero_to_nyquist(self):
        spec = power_spectrum(SignalBuffer(np.ones(256), FS))
        assert spec.freqs[0] == 0.0
        assert spec.freqs[-1] == FS / 2.0
        assert np.all(np.diff(spec.freqs) > 0.0)
        assert spec.resolution == FS / 256

    @pytest.mark.parametrize("name", ["freqs", "power_db"])
    def test_arrays_are_read_only(self, name):
        spec = power_spectrum(SignalBuffer(np.ones(256), FS))
        with pytest.raises(ValueError, match="read-only"):
            getattr(spec, name)[0] = 123.0

    def test_too_short_rejected(self):
        with pytest.raises(InvalidParameter, match="at least 2 samples"):
            power_spectrum(SignalBuffer([1.0], FS))

    def test_an_overflowing_bin_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = power_spectrum(SignalBuffer([1e200, -1e200, 3.0], FS))
        assert spec.power_db[1] == np.inf

    @pytest.mark.parametrize("samples,inf_bin", [
        ([1e308] * 4, 0),
        ([1.7e308, -1.7e308] * 2, 2),
        ([1e308, 0.0, -1e308, 0.0], 1),
    ])
    def test_a_transform_that_would_overflow_gives_inf_and_floor_bins(self, samples, inf_bin):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = power_spectrum(SignalBuffer(samples, 1e10))
        expected = np.full(3, DB_FLOOR)
        expected[inf_bin] = np.inf
        np.testing.assert_array_equal(spec.power_db, expected)


class TestRms:
    def test_silence(self):
        assert rms(SignalBuffer(np.zeros(100), FS)) == 0.0

    def test_constant(self):
        buf = SignalBuffer(np.full(100, 5.0), FS)
        assert rms(buf) == 5.0
        assert rms(buf, 0.6) == 5.0

    def test_sine_analytic_value(self):
        # Whole periods: RMS of a 2 V sine is 2/sqrt(2).
        buf = multi_tone([ToneSpec(1e6, 2.0)], 1e9, 5000)
        assert rms(buf, 0.0) == pytest.approx(2.0 / np.sqrt(2.0), abs=1e-3)

    def test_empty_region_rejected(self):
        with pytest.raises(InvalidParameter, match="nothing left to measure"):
            rms(SignalBuffer([], FS))
        with pytest.raises(InvalidParameter, match="nothing left to measure"):
            rms(SignalBuffer([], FS), 0.5)

    def test_invalid_skip_fraction(self):
        buf = SignalBuffer([1.0, 2.0], FS)
        with pytest.raises(ValueError):
            rms(buf, 1.0)
        with pytest.raises(ValueError):
            rms(buf, -0.1)

    @settings(max_examples=100)
    @given(st.floats(-1e6, 1e6, allow_nan=False), st.integers(0, 2**31 - 1))
    def test_scale_covariance(self, c, seed):
        xs = np.random.default_rng(seed).uniform(-5.0, 5.0, 300)
        base = rms(SignalBuffer(xs, FS))
        scaled = rms(SignalBuffer(c * xs, FS))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


class TestSpectrumType:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(freqs=np.arange(3.0), power_db=np.arange(4.0), resolution=1.0)
