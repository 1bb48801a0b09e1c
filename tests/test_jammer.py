import numpy as np
import pytest

from jamsim.errors import LengthMismatch, SampleRateMismatch
from jamsim.jammer import JammerConfig, jam
from jamsim.rng import gaussian_stream, rayleigh_stream
from jamsim.signal_core import NoiseSpec, ToneSpec, multi_tone
from jamsim.trigger import GateLine

FS = 10e9
N = 4096


def full_gate(n=N, high=5.0):
    return GateLine(np.full(n, high), FS, high)


def idle_gate(n=N):
    return GateLine(np.zeros(n), FS)


def tone_2v():
    return multi_tone([ToneSpec(1.85e9, 2.0)], FS, N)


class TestGating:
    def test_idle_gate_means_exact_silence(self):
        out = jam(tone_2v(), idle_gate(), JammerConfig())
        assert np.all(out.samples == 0.0)

    def test_mixed_gate_zeroes_exactly_the_idle_samples(self):
        rng = np.random.default_rng(11)
        levels = np.where(rng.random(N) < 0.5, 5.0, 0.0)
        gate = GateLine(levels, FS)
        out = jam(tone_2v(), gate, JammerConfig())
        assert np.all(out.samples[levels == 0.0] == 0.0)
        # Active samples carry noise, so they are essentially never 0.
        assert np.count_nonzero(out.samples[levels > 0.0]) == (levels > 0.0).sum()


class TestTransferFunction:
    def test_identity_configuration_passes_signal_through(self):
        cfg = JammerConfig(gain=1.0, noise=NoiseSpec(0.0, 0.0, seed=1))
        signal = tone_2v()
        out = jam(signal, full_gate(), cfg)
        assert np.array_equal(out.samples, signal.samples)

    def test_noiseless_gain_is_exact(self):
        cfg = JammerConfig(gain=5.0, noise=NoiseSpec(0.0, 0.0, seed=1))
        signal = tone_2v()
        out = jam(signal, full_gate(), cfg)
        assert np.array_equal(out.samples, 5.0 * signal.samples)

    def test_active_output_is_gain_signal_plus_both_noise_streams(self):
        cfg = JammerConfig(gain=5.0, noise=NoiseSpec(1.0, 1.0, seed=99))
        signal = tone_2v()
        out = jam(signal, full_gate(), cfg)
        expected = (5.0 * signal.samples
                    + gaussian_stream(1.0, 99, N)
                    + rayleigh_stream(1.0, 99, N))
        assert np.array_equal(out.samples, expected)

    def test_output_rms_dominates_input_rms(self):
        signal = tone_2v()
        out = jam(signal, full_gate(), JammerConfig())
        rms_in = np.sqrt(np.mean(signal.samples**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert rms_out > rms_in
        assert rms_out >= 2.0 * rms_in

    def test_determinism(self):
        cfg = JammerConfig()
        a = jam(tone_2v(), full_gate(), cfg)
        b = jam(tone_2v(), full_gate(), cfg)
        assert a == b

    def test_gated_run_matches_ungated_run_on_active_samples(self):
        # The noise stream spans the whole buffer regardless of gating,
        # so a partially gated run agrees with the fully gated one
        # wherever the gate is high.
        cfg = JammerConfig()
        signal = tone_2v()
        levels = np.where(np.arange(N) % 3 == 0, 5.0, 0.0)
        partial = jam(signal, GateLine(levels, FS), cfg)
        full = jam(signal, full_gate(), cfg)
        active = levels > 0.0
        assert np.array_equal(partial.samples[active], full.samples[active])


class TestValidation:
    def test_attenuating_gain_rejected(self):
        with pytest.raises(ValueError):
            JammerConfig(gain=0.5)
        JammerConfig(gain=1.0)  # identity edge is allowed

    def test_defaults(self):
        cfg = JammerConfig()
        assert cfg.gain == 5.0
        assert cfg.noise.gaussian_sigma == 1.0
        assert cfg.noise.rayleigh_sigma == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            jam(tone_2v(), idle_gate(16), JammerConfig())

    def test_rate_mismatch(self):
        gate = GateLine(np.zeros(N), FS / 2.0)
        with pytest.raises(SampleRateMismatch):
            jam(tone_2v(), gate, JammerConfig())
