import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import maximum_filter1d

from jamsim.errors import InvalidParameter
from jamsim.filterbank import BAND_FILTER_SPECS, apply_filter, design_bandpass
from jamsim.signal_core import SignalBuffer, ToneSpec, multi_tone
from jamsim.trigger import (
    DEFAULT_THRESHOLD,
    GateLine,
    TriggerConfig,
    default_envelope_window,
    envelope,
    trigger_chain,
)

FS = 10e9

finite_buffers = hnp.arrays(np.float64, st.integers(1, 256),
                            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


def rectify_compare(signal, threshold=DEFAULT_THRESHOLD):
    """The rectifier and comparator alone: `trigger_chain` with a one-sample envelope."""
    return trigger_chain(signal, TriggerConfig(threshold, envelope_window=1)).samples


class TestRectifier:
    def test_small_example(self):
        # Both half-waves fire: the gate is the comparator of [1, 2, 3].
        gate = rectify_compare(SignalBuffer([-1.0, 2.0, -3.0], FS), threshold=1.5)
        assert np.array_equal(gate, [0.0, 5.0, 5.0])

    def test_silence_stays_silent(self):
        gate = rectify_compare(SignalBuffer(np.zeros(64), FS))
        assert np.all(gate == 0.0)

    def test_sine_statistics(self):
        # 5 whole periods, 1000 samples each: min 0, max 2, mean 4/pi.  The gate shows the
        # rectified samples through thresholds: the mean is the integral of the fraction above t.
        buf = multi_tone([ToneSpec(1e6, 2.0)], 1e9, 5000)
        assert not rectify_compare(buf, threshold=1e-9).all()
        assert rectify_compare(buf, threshold=2.0 - 1e-9).any()
        assert not rectify_compare(buf, threshold=2.0 + 1e-9).any()
        dt = 2.0 / 400
        mean = sum(float(np.mean(rectify_compare(buf, threshold=(k + 0.5) * dt) > 0.0)) * dt
                   for k in range(400))
        assert mean == pytest.approx(2.0 * 2.0 / np.pi, rel=1e-3)

    @settings(max_examples=100)
    @given(finite_buffers)
    def test_idempotent_and_nonnegative(self, xs):
        once = rectify_compare(SignalBuffer(xs, FS))
        twice = rectify_compare(SignalBuffer(np.abs(xs), FS))
        assert np.array_equal(once, twice)
        assert np.array_equal(once, rectify_compare(SignalBuffer(-xs, FS)))

    @settings(max_examples=100)
    @given(finite_buffers, st.floats(-1e3, 1e3, allow_nan=False))
    def test_scale_covariance_exact(self, xs, c):
        scaled = rectify_compare(SignalBuffer(c * xs, FS))
        reference = rectify_compare(SignalBuffer(abs(c) * xs, FS))
        assert np.array_equal(scaled, reference)


class TestEnvelope:
    def test_window_one_is_identity(self):
        buf = SignalBuffer([3.0, 1.0, 4.0, 1.0, 5.0], FS)
        assert envelope(buf, 1) == buf

    def test_matches_brute_force_trailing_max(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-5.0, 5.0, 200)
        buf = SignalBuffer(xs, FS)
        for window in (1, 2, 3, 7, 50, 200, 500):
            got = envelope(buf, window).samples
            want = np.array([xs[max(0, i - window + 1):i + 1].max() for i in range(xs.size)])
            assert np.array_equal(got, want)

    def test_full_period_window_holds_the_peak(self):
        # 2 V tone starting on its crest: every trailing-max sample
        # over at least one period stays within 0.1% of the peak.
        buf = multi_tone([ToneSpec(1e6, 2.0, phase=np.pi / 2.0)], 1e9, 5000)
        gate = trigger_chain(buf, TriggerConfig(2.0 * (1.0 - 1e-3), envelope_window=1000))
        assert np.all(gate.samples == 5.0)

    def test_increasing_input_is_unchanged(self):
        xs = np.cumsum(np.abs(np.random.default_rng(1).normal(size=100)))
        buf = SignalBuffer(xs, FS)
        for window in (1, 5, 100):
            assert np.array_equal(envelope(buf, window).samples, xs)

    def test_zero_window_rejected(self):
        with pytest.raises(InvalidParameter, match="window"):
            envelope(SignalBuffer([1.0], FS), 0)

    @pytest.mark.parametrize("window", [10**12, 10**29])
    def test_window_longer_than_the_buffer_is_a_running_max(self, window):
        xs = np.random.default_rng(5).uniform(-5.0, 5.0, 64)
        buf = SignalBuffer(xs, FS)
        assert envelope(buf, window) == envelope(buf, len(buf))
        assert np.array_equal(envelope(buf, window).samples, np.maximum.accumulate(xs))


def scipy_envelope(xs, window):
    """The envelope as scipy computed it: maximum_filter1d with the window's end on each sample."""
    window = min(window, xs.size)
    return maximum_filter1d(xs, size=window, origin=(window - 1) - window // 2,
                            mode="constant", cval=-np.inf)


@st.composite
def length_and_window(draw):
    n = draw(st.integers(1, 5000))
    return n, draw(st.integers(1, n + 5))


class TestEnvelopeOracle:
    @settings(max_examples=200, deadline=None)
    @given(length_and_window(), st.integers(0, 2**32 - 1), st.booleans())
    @example((1, 1), 0, False)
    @example((4097, 4102), 1, False)
    @example((1000, 585), 2, True)
    def test_matches_maximum_filter1d(self, n_window, draw_seed, ties):
        n, window = n_window
        draws = np.random.default_rng(draw_seed)
        # Rounded draws repeat values, so ties between window entries occur.
        xs = draws.integers(0, 6, n) * 0.5 if ties else draws.normal(size=n)
        got = envelope(SignalBuffer(xs, FS), window).samples
        assert got.tobytes() == scipy_envelope(xs, window).tobytes()

    @pytest.mark.parametrize("window", [10**12, 10**29])
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 4097])
    def test_clamped_huge_window_matches_maximum_filter1d(self, n, window):
        xs = np.random.default_rng(n).normal(size=n)
        got = envelope(SignalBuffer(xs, FS), window).samples
        assert got.tobytes() == scipy_envelope(xs, window).tobytes()


class TestComparator:
    @pytest.mark.parametrize("level,expected", [(1.2, 5.0), (0.5, 0.0), (1.0, 0.0)])
    def test_threshold_is_strict(self, level, expected):
        env = SignalBuffer(np.full(100, level), FS)
        assert np.all(rectify_compare(env) == expected)

    def test_levels_are_exactly_binary(self):
        env = SignalBuffer(np.linspace(0.0, 3.0, 301), FS)
        assert set(np.unique(rectify_compare(env))) <= {0.0, 5.0}

    @settings(max_examples=100)
    @given(hnp.arrays(np.float64, 64, elements=st.floats(0.0, 3.0, allow_nan=False)),
           hnp.arrays(np.float64, 64, elements=st.floats(0.0, 3.0, allow_nan=False)))
    def test_monotone_in_the_envelope(self, base, bump):
        low = rectify_compare(SignalBuffer(base, FS))
        high = rectify_compare(SignalBuffer(base + bump, FS))
        assert np.all(high >= low)


class TestTriggerChain:
    def test_detected_uplink_tone_gives_steady_high_gate(self):
        uplink = design_bandpass(BAND_FILTER_SPECS[1], FS)
        tone = multi_tone([ToneSpec(1.74e9, 2.0)], FS, 4096)
        gate = trigger_chain(apply_filter(uplink, tone), TriggerConfig())
        first_high = int(np.argmax(gate.samples > 0.0))
        assert gate.samples[first_high] == 5.0
        assert first_high < 1024  # fires during the filter ramp-up
        assert np.all(gate.samples[first_high:] == 5.0)  # and never drops out

    def test_silence_never_fires(self):
        gate = trigger_chain(SignalBuffer(np.zeros(4096), FS), TriggerConfig())
        assert np.all(gate.samples == 0.0)

    def test_out_of_band_residue_stays_below_threshold(self):
        uplink = design_bandpass(BAND_FILTER_SPECS[1], FS)
        tones = [ToneSpec(f, 2.0) for f in (1.2e9, 1.5e9, 1.6e9, 3.0e9)]
        residue = apply_filter(uplink, multi_tone(tones, FS, 4096))
        gate = trigger_chain(residue, TriggerConfig())
        assert np.all(gate.samples == 0.0)


class TestConfigAndGate:
    def test_default_window_covers_slowest_inband_period(self):
        assert default_envelope_window(10e9) == 6
        assert default_envelope_window(5e9) == 3

    def test_unset_window_is_the_default_and_a_set_one_is_used(self):
        # A 100-sample 2 V pulse holds a trailing max of w samples high for 100 + w - 1.
        x = SignalBuffer(np.r_[np.zeros(100), np.full(100, 2.0), np.zeros(100)], FS)
        default = trigger_chain(x, TriggerConfig())
        pinned = trigger_chain(x, TriggerConfig(envelope_window=9))
        assert TriggerConfig().envelope_window is None
        assert int(np.count_nonzero(default.samples)) == 100 + default_envelope_window(FS) - 1
        assert int(np.count_nonzero(pinned.samples)) == 100 + 9 - 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TriggerConfig(threshold=0.0)
        with pytest.raises(ValueError):
            TriggerConfig(threshold=2.0, high_level=1.0)
        with pytest.raises(InvalidParameter, match="envelope_window"):
            TriggerConfig(envelope_window=0)

    def test_gate_rejects_non_binary_levels(self):
        with pytest.raises(ValueError):
            GateLine([0.0, 2.5], FS, high_level=5.0)
