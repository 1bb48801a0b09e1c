import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from jamsim.errors import (
    BandAboveNyquist,
    DesignUnstable,
    FrequencyAboveNyquist,
    InvalidOrder,
    SampleRateMismatch,
)
from jamsim.filterbank import (
    BAND_FILTER_SPECS,
    FilterSpec,
    FilterStages,
    apply_filter,
    design_bandpass,
    frequency_response,
)
from jamsim.signal_core import SignalBuffer, ToneSpec, multi_tone

FS = 10e9


def mag_db_at(stages, freq_hz):
    return float(frequency_response(stages, [freq_hz])[0][0])


def bisect_minus3db_edge(stages, f_inside, f_outside, iters=80):
    """Independent measurement of a -3 dB crossing by bisection."""
    target = -3.0102999566398120  # 20*log10(1/sqrt(2))
    lo, hi = f_outside, f_inside
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mag_db_at(stages, mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def df2t_reference(stages, x):
    """Per-sample direct-form II transposed cascade, independent of scipy."""
    y = np.asarray(x, dtype=np.float64).copy()
    for b0, b1, b2, _, a1, a2 in stages.sos:
        z1 = z2 = 0.0
        out = np.empty_like(y)
        for i, xi in enumerate(y):
            yi = b0 * xi + z1
            z1 = b1 * xi - a1 * yi + z2
            z2 = b2 * xi - a2 * yi
            out[i] = yi
        y = out
    return y


FILTERS = tuple(design_bandpass(spec, FS) for spec in BAND_FILTER_SPECS)


@pytest.fixture(scope="module")
def default_filters():
    return FILTERS


class TestDesign:
    @pytest.mark.parametrize("spec", BAND_FILTER_SPECS, ids=lambda s: f"filter{s.id}")
    def test_centre_gain_within_1db(self, spec):
        stages = design_bandpass(spec, FS)
        assert abs(mag_db_at(stages, spec.center * 1e6)) <= 1.0

    @pytest.mark.parametrize("spec", BAND_FILTER_SPECS, ids=lambda s: f"filter{s.id}")
    def test_measured_minus3db_edges_within_1p5_percent(self, spec):
        stages = design_bandpass(spec, FS)
        centre = spec.center * 1e6
        low = bisect_minus3db_edge(stages, centre, spec.band_low * 1e6 - 200e6)
        high = bisect_minus3db_edge(stages, centre, spec.band_high * 1e6 + 200e6)
        assert low == pytest.approx(spec.band_low * 1e6, rel=0.015)
        assert high == pytest.approx(spec.band_high * 1e6, rel=0.015)

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(id=9, band_low=1880.0, band_high=1710.0)
        for low in (0.0, -5.0, float("nan")):
            with pytest.raises(ValueError):
                FilterSpec(id=9, band_low=low, band_high=1880.0)

    def test_center_is_the_arithmetic_midpoint(self):
        assert [s.center for s in BAND_FILTER_SPECS] == [1795.0, 1747.5, 1842.5, 2355.0]

    def test_band40_filter_rejects_band3_centre(self):
        stages = design_bandpass(BAND_FILTER_SPECS[3], FS)
        assert mag_db_at(stages, 1795e6) <= -40.0

    def test_passband_within_3db_and_outside_attenuates(self):
        stages = design_bandpass(BAND_FILTER_SPECS[1], FS)
        inside = np.linspace(1710e6, 1785e6, 41)
        mags, _ = frequency_response(stages, inside)
        assert np.all(mags >= -3.2) and np.all(mags <= 0.5)
        # Monotone attenuation moving away from the band.
        below = frequency_response(stages, np.linspace(1.0e9, 1700e6, 30))[0]
        above = frequency_response(stages, np.linspace(1795e6, 4.0e9, 30))[0]
        assert np.all(np.diff(below) > 0.0)
        assert np.all(np.diff(above) < 0.0)

    def test_invalid_order_rejected(self):
        spec = BAND_FILTER_SPECS[0]
        for order in (0, 1, 3, 5, -2):
            with pytest.raises(InvalidOrder):
                design_bandpass(spec, FS, order)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(BandAboveNyquist):
            design_bandpass(BAND_FILTER_SPECS[3], 4.0e9)

    def test_sections_are_stable(self, default_filters):
        for stages in default_filters:
            for _, _, _, a0, a1, a2 in stages.sos:
                assert a0 == 1.0 and abs(a2) < 1.0 and abs(a1) < 1.0 + a2

    @pytest.mark.parametrize("order", range(2, 25, 2))
    @pytest.mark.parametrize("fs", [4e9, 5e9, 10e9, 40e9, 100e9])
    def test_matches_independent_butterworth_design(self, fs, order):
        # scipy's own Butterworth bandpass is the cross-check; both are
        # normalized designs so magnitudes must coincide closely.
        probe = np.linspace(1.0e9, min(4.5e9, fs / 2.0), 1501)
        for spec in BAND_FILTER_SPECS:
            if spec.band_high * 1e6 >= fs / 2.0:
                continue
            stages = design_bandpass(spec, fs, order)
            mine = 10.0 ** (frequency_response(stages, probe)[0] / 20.0)
            sos = sps.butter(order // 2, [spec.band_low * 1e6, spec.band_high * 1e6],
                             btype="bandpass", fs=fs, output="sos")
            theirs = np.abs(sps.sosfreqz(sos, worN=probe, fs=fs)[1])
            assert np.allclose(mine, theirs, rtol=1e-9, atol=1e-15)

    def test_unstable_section_rejected_at_construction(self):
        bad = [[1.0, 0.0, 0.0, 1.0, 0.0, 0.5], [1.0, 0.0, 0.0, 1.0, -2.1, 1.2]]
        with pytest.raises(DesignUnstable, match=r"section 1 .*a1=-2\.1.*a2=1\.2"):
            FilterStages(sos=bad, sample_rate=FS, spec=BAND_FILTER_SPECS[0])

    @pytest.mark.parametrize("sos", [
        [[1.0, 0.0, float("nan"), 1.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0, 1.0, float("inf"), 0.0]],
    ])
    def test_non_finite_coefficient_rejected(self, sos):
        with pytest.raises(DesignUnstable):
            FilterStages(sos=sos, sample_rate=FS, spec=BAND_FILTER_SPECS[0])

    @pytest.mark.parametrize("sos", [
        [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [[1.0, 0.0, 0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]],
    ])
    def test_malformed_sos_rejected(self, sos):
        with pytest.raises(ValueError):
            FilterStages(sos=sos, sample_rate=FS, spec=BAND_FILTER_SPECS[0])

    def test_sos_is_a_read_only_copy(self):
        rows = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
        stages = FilterStages(sos=rows, sample_rate=FS, spec=BAND_FILTER_SPECS[0])
        rows[0, 0] = 2.0
        assert stages.sos[0, 0] == 1.0
        with pytest.raises(ValueError):
            stages.sos[0, 0] = 3.0


class TestFrequencyResponse:
    def test_bandpass_blocks_dc(self, default_filters):
        for stages in default_filters:
            assert mag_db_at(stages, 0.0) <= -40.0

    def test_identity_filter_is_flat(self):
        identity = FilterStages(sos=[[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]],
                                sample_rate=FS, spec=BAND_FILTER_SPECS[0])
        mags, phases = frequency_response(identity, np.linspace(0.0, FS / 2.0, 64))
        assert np.allclose(mags, 0.0, atol=1e-12)
        assert np.allclose(phases, 0.0, atol=1e-12)

    def test_uplink_filter_centre_unity(self, default_filters):
        assert abs(mag_db_at(default_filters[1], 1747.5e6)) <= 1.0

    def test_out_of_range_frequency_rejected(self, default_filters):
        stages = default_filters[0]
        with pytest.raises(FrequencyAboveNyquist):
            frequency_response(stages, [FS / 2.0 + 1.0])
        with pytest.raises(FrequencyAboveNyquist):
            frequency_response(stages, [-1.0])

    def test_cross_band_rejection_at_least_40db(self, default_filters):
        assert mag_db_at(default_filters[1], 2355e6) <= -40.0
        assert mag_db_at(default_filters[2], 2355e6) <= -40.0
        assert mag_db_at(default_filters[3], 1747.5e6) <= -40.0
        assert mag_db_at(default_filters[3], 1842.5e6) <= -40.0


class TestApplyFilter:
    def test_zero_in_zero_out(self, default_filters):
        out = apply_filter(default_filters[1], SignalBuffer(np.zeros(1024), FS))
        assert np.all(out.samples == 0.0)

    def test_rate_mismatch_rejected(self, default_filters):
        with pytest.raises(SampleRateMismatch):
            apply_filter(default_filters[0], SignalBuffer([1.0, 2.0], FS / 2.0))

    @pytest.mark.parametrize("spec", BAND_FILTER_SPECS, ids=lambda s: f"filter{s.id}")
    def test_centre_tone_steady_state_amplitude(self, spec, default_filters):
        tone = multi_tone([ToneSpec(spec.center * 1e6, 2.0)], FS, 4096)
        out = apply_filter(default_filters[spec.id - 1], tone)
        steady = np.abs(out.samples[1024:]).max()
        assert steady == pytest.approx(2.0, rel=0.12)

    def test_out_of_band_tones_leave_small_residue(self, default_filters):
        tones = [ToneSpec(f, 2.0) for f in (1.2e9, 1.5e9, 1.6e9, 3.0e9)]
        out = apply_filter(default_filters[1], multi_tone(tones, FS, 4096))
        tail = out.samples[1024:]
        assert float(np.sqrt(np.mean(tail**2))) < 0.05

    def test_matches_per_sample_reference_loop(self, default_filters):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 256)
        stages = default_filters[2]
        fast = apply_filter(stages, SignalBuffer(x, FS)).samples
        slow = df2t_reference(stages, x)
        assert np.allclose(fast, slow, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("spec", BAND_FILTER_SPECS, ids=lambda s: f"filter{s.id}")
    def test_impulse_response_decays_below_1e6_of_peak(self, spec, default_filters):
        impulse = np.zeros(4097)
        impulse[0] = 1.0
        h = apply_filter(default_filters[spec.id - 1], SignalBuffer(impulse, FS)).samples
        assert abs(h[4096]) < 1e-6 * np.abs(h).max()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.integers(0, 2**31 - 1))
    def test_linearity_to_1e9_volts(self, a, b, seed):
        stages = FILTERS[1]
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10.0, 10.0, 512)
        y = rng.uniform(-10.0, 10.0, 512)
        combined = apply_filter(stages, SignalBuffer(a * x + b * y, FS)).samples
        separate = (a * apply_filter(stages, SignalBuffer(x, FS)).samples
                    + b * apply_filter(stages, SignalBuffer(y, FS)).samples)
        assert np.max(np.abs(combined - separate)) < 1e-9

