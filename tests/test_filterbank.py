import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from jamsim.errors import InvalidParameter, JamSimError
from jamsim.filterbank import (
    BAND_FILTER_SPECS,
    BLOCK_LEN,
    FilterSpec,
    FilterStages,
    apply_filter,
    design_bandpass,
    frequency_response,
)
from jamsim.signal_core import SignalBuffer, ToneSpec, multi_tone

FS = 10e9
#: The (fs, order) grid on which the design and the run are checked
#: against independent oracles.
GRID_FS = (4e9, 5e9, 10e9, 40e9, 100e9)
GRID_ORDERS = tuple(range(2, 25, 2))


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


def df2t_reference(stages, x, dtype=np.float64):
    """Per-sample direct-form II transposed cascade, independent of scipy.

    With ``dtype=np.longdouble`` it is the accuracy reference for the
    float64 runs.
    """
    y = np.asarray(x, dtype=dtype).copy()
    for b0, b1, b2, _, a1, a2 in stages.sos.astype(dtype):
        z1 = z2 = dtype(0.0)
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
            with pytest.raises(InvalidParameter, match="filter order"):
                design_bandpass(spec, FS, order)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(InvalidParameter, match="Nyquist"):
            design_bandpass(BAND_FILTER_SPECS[3], 4.0e9)

    def test_sections_are_stable(self, default_filters):
        for stages in default_filters:
            for _, _, _, a0, a1, a2 in stages.sos:
                assert a0 == 1.0 and abs(a2) < 1.0 and abs(a1) < 1.0 + a2

    @pytest.mark.parametrize("order", GRID_ORDERS)
    @pytest.mark.parametrize("fs", GRID_FS)
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
        with pytest.raises(JamSimError, match=r"section 1 .*unit circle.*a1=-2\.1.*a2=1\.2") as err:
            FilterStages(sos=bad, sample_rate=FS, spec=BAND_FILTER_SPECS[0])
        assert type(err.value) is JamSimError  # a failed design, not an invalid input

    @pytest.mark.parametrize("sos", [
        [[1.0, 0.0, float("nan"), 1.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0, 1.0, float("inf"), 0.0]],
    ])
    def test_non_finite_coefficient_rejected(self, sos):
        with pytest.raises(JamSimError, match="non-finite") as err:
            FilterStages(sos=sos, sample_rate=FS, spec=BAND_FILTER_SPECS[0])
        assert type(err.value) is JamSimError

    @pytest.mark.parametrize("sos", [
        [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [[1.0, 0.0, 0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]],
        np.zeros((0, 6)),
    ])
    def test_malformed_sos_rejected(self, sos):
        with pytest.raises(InvalidParameter, match="one or more rows"):
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
        with pytest.raises(InvalidParameter, match=r"\[0, fs/2\]"):
            frequency_response(stages, [FS / 2.0 + 1.0])
        with pytest.raises(InvalidParameter, match=r"\[0, fs/2\]"):
            frequency_response(stages, [-1.0])
        with pytest.raises(InvalidParameter, match=r"\[0, fs/2\]"):
            frequency_response(stages, [1e9, np.nan])

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
        with pytest.raises(InvalidParameter, match="filter designed for"):
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



def grid_filters(fs, order):
    """The band filters designable at (fs, order): those below Nyquist."""
    return [design_bandpass(spec, fs, order) for spec in BAND_FILTER_SPECS
            if spec.band_high * 1e6 < fs / 2.0]


class TestTimeDomainOracle:
    """The run agrees with the design: a settled tone comes out scaled and
    shifted by `frequency_response`, with no scipy involved."""

    #: Tone frequencies are k / PERIOD of fs, so the phase index k*i mod
    #: PERIOD is exact integer arithmetic and the test's own sine carries
    #: no phase error that grows with the sample index.
    PERIOD = 1 << 16
    #: Largest error allowed, in units of the tone amplitude.  The sosfilt
    #: run met 1.1e-12 over the whole grid (worst at 100 GS/s).
    TOL = 1e-11

    @staticmethod
    def settle_samples(stages):
        """Samples after which the start-up transient is below ~1e-15."""
        poles = np.concatenate([np.roots([1.0, a1, a2]) for *_, a1, a2 in stages.sos])
        return int(np.ceil(60.0 / (1.0 - np.abs(poles).max())))

    @pytest.mark.parametrize("order", GRID_ORDERS)
    @pytest.mark.parametrize("fs", GRID_FS)
    def test_settled_tone_follows_the_frequency_response(self, fs, order):
        amplitude, phase = 2.0, 0.3
        for stages in grid_filters(fs, order):
            spec = stages.spec
            settle = self.settle_samples(stages)
            i = np.arange(settle + 4096, dtype=np.int64)
            # One tone in the passband and one in each stopband.
            upper = min(1.25 * spec.band_high * 1e6, (spec.band_high * 1e6 + fs / 2.0) / 2.0)
            for f in (spec.center * 1e6, 0.8 * spec.band_low * 1e6, upper):
                k = round(f / fs * self.PERIOD)
                angle = 2.0 * np.pi * ((k * i) % self.PERIOD) / self.PERIOD + phase
                mag_db, arg = frequency_response(stages, [k * fs / self.PERIOD])
                gain = 10.0 ** (mag_db[0] / 20.0)
                x = SignalBuffer(amplitude * np.sin(angle), fs)
                y = apply_filter(stages, x).samples[settle:]
                expected = amplitude * gain * np.sin(angle[settle:] + arg[0])
                err = np.max(np.abs(y - expected)) / amplitude
                assert err <= self.TOL, (spec.id, f, err)


class TestBlockedRun:
    """`apply_filter` runs in blocks of BLOCK_LEN samples; it must agree with
    per-sample loops at every block edge and over the whole (fs, order) grid."""

    LENGTHS = (1, 2, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 3 * BLOCK_LEN + 5, 200003)
    #: Largest error allowed, relative to the largest output sample: four
    #: times the worst error of sosfilt against the long-double loop at
    #: that fs (over the grid orders, the bands and 197 or 200003 uniform
    #: samples): 1.42e-13 at 4 GS/s, 2.11e-13 at 5, 3.77e-14 at 10,
    #: 1.58e-13 at 40 and 7.78e-13 at 100 GS/s.
    BOUND = {4e9: 6e-13, 5e9: 9e-13, 10e9: 2e-13, 40e9: 7e-13, 100e9: 4e-12}

    @pytest.mark.parametrize("order", GRID_ORDERS)
    @pytest.mark.parametrize("fs", GRID_FS)
    def test_matches_sosfilt_and_the_per_sample_loop(self, fs, order):
        x = np.random.default_rng(17).uniform(-1.0, 1.0, max(self.LENGTHS))
        for stages in grid_filters(fs, order):
            for n in self.LENGTHS:
                got = apply_filter(stages, SignalBuffer(x[:n], fs)).samples
                oracles = [sps.sosfilt(stages.sos.copy(), x[:n])]
                if n <= 3 * BLOCK_LEN + 5:
                    oracles.append(df2t_reference(stages, x[:n]))
                for want in oracles:
                    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert err <= self.BOUND[fs], (stages.spec.id, n, err)

    @pytest.mark.parametrize("order", GRID_ORDERS)
    @pytest.mark.parametrize("fs", GRID_FS)
    def test_as_accurate_as_sosfilt_against_long_double(self, fs, order):
        x = np.random.default_rng(18).uniform(-1.0, 1.0, 3 * BLOCK_LEN + 5)
        for stages in grid_filters(fs, order):
            exact = df2t_reference(stages, x, np.longdouble)
            scale = float(np.max(np.abs(exact)))
            for y in (apply_filter(stages, SignalBuffer(x, fs)).samples,
                      sps.sosfilt(stages.sos.copy(), x)):
                err = float(np.max(np.abs(y - exact))) / scale
                assert err <= self.BOUND[fs], (stages.spec.id, err)

    def test_empty_buffer(self):
        out = apply_filter(FILTERS[0], SignalBuffer(np.zeros(0), FS))
        assert len(out) == 0 and out.sample_rate == FS
