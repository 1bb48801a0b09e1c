import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim import rng
from jamsim.errors import InvalidParameter
from jamsim.jammer import JammerConfig, jam
from jamsim.rng import gaussian_stream, rayleigh_stream
from jamsim.signal_core import _BLOCK, NoiseSpec, SignalBuffer, ToneSpec, multi_tone
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
        # Noise sample j depends only on (seed, j), however much of the
        # buffer the gate covers, so a partially gated run agrees with
        # the fully gated one wherever the gate is high.
        cfg = JammerConfig()
        signal = tone_2v()
        levels = np.where(np.arange(N) % 3 == 0, 5.0, 0.0)
        partial = jam(signal, GateLine(levels, FS), cfg)
        full = jam(signal, full_gate(), cfg)
        active = levels > 0.0
        assert np.array_equal(partial.samples[active], full.samples[active])


def whole_buffer_jam(signal, gate, config):
    """The jammer as first written: both streams over the whole buffer, then masked."""
    noise, n = config.noise, len(signal)
    g = gaussian_stream(noise.gaussian_sigma, noise.seed, n)
    r = rayleigh_stream(noise.rayleigh_sigma, noise.seed, n)
    active = config.gain * signal.samples + g + r
    return np.where(gate.levels > 0.0, active, 0.0)


def _levels(n, *runs):
    """0/5 V levels, high over each half-open (start, stop) run."""
    levels = np.zeros(n)
    for start, stop in runs:
        levels[start:stop] = 5.0
    return levels


class TestGatedSpanMatchesWholeBuffer:
    @pytest.mark.parametrize("levels", [
        _levels(N),
        _levels(N, (0, N)),
        _levels(N, (0, 1)),
        _levels(N, (N - 1, N)),
        _levels(N, (1, 2)),
        _levels(N, (1500, N)),
        _levels(N, (37, 38), (101, 900), (901, 903), (2047, 3001), (4000, 4095)),
    ], ids=["all-low", "all-high", "first-only", "last-only", "odd-single",
            "one-rise", "rises-and-falls"])
    @pytest.mark.parametrize("seed", [0, 42, 43, 2**63 + 5])
    def test_bit_identical(self, levels, seed):
        cfg = JammerConfig(gain=5.0, noise=NoiseSpec(1.0, 0.5, seed=seed))
        gate = GateLine(levels, FS)
        out = jam(tone_2v(), gate, cfg)
        assert out.samples.tobytes() == whole_buffer_jam(tone_2v(), gate, cfg).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), density=st.floats(0.0, 1.0),
           draw_seed=st.integers(0, 2**32 - 1), seed=st.sampled_from([0, 42, 43, 2**63 + 5]))
    def test_bit_identical_on_random_gates(self, n, density, draw_seed, seed):
        draws = np.random.default_rng(draw_seed)
        signal = SignalBuffer(draws.normal(size=n), FS)
        gate = GateLine(np.where(draws.random(n) < density, 5.0, 0.0), FS)
        cfg = JammerConfig(gain=3.0, noise=NoiseSpec(1.0, 1.0, seed=seed))
        assert jam(signal, gate, cfg).samples.tobytes() == \
            whole_buffer_jam(signal, gate, cfg).tobytes()


class TestBlocks:
    """jam draws noise only in the blocks of `_BLOCK` samples that its gate opens."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """(stream, start, count) of every noise draw that jam makes."""
        calls = []
        for name in ("gaussian_stream", "rayleigh_stream"):
            def record(sigma, seed, count, start=0, name=name, stream=getattr(rng, name)):
                calls.append((name, start, count))
                return stream(sigma, seed, count, start)
            monkeypatch.setattr(rng, name, record)
        return calls

    def run(self, levels):
        signal = SignalBuffer(np.random.default_rng(5).normal(size=levels.size), FS)
        gate, cfg = GateLine(levels, FS), JammerConfig(gain=3.0, noise=NoiseSpec(1.0, 0.5, 7))
        out = jam(signal, gate, cfg)
        assert out.samples.tobytes() == whole_buffer_jam(signal, gate, cfg).tobytes()

    def test_a_gate_high_only_in_its_last_block_draws_only_there(self, draws):
        n = 3 * _BLOCK + 100
        self.run(_levels(n, (3 * _BLOCK + 10, 3 * _BLOCK + 50)))
        assert draws == [("gaussian_stream", 3 * _BLOCK, 100),
                         ("rayleigh_stream", 3 * _BLOCK, 100)]

    def test_an_idle_gate_draws_nothing(self, draws):
        self.run(_levels(3 * _BLOCK + 100))
        assert draws == []

    def test_split_halves_draw_only_the_blocks_their_gate_opens(self, draws):
        n, mid = 2**17 + 5, (2**17 + 5) // 2  # the helper thread takes [mid, n)
        levels = _levels(n, (100, 200), (mid - 8, mid + 7), (n - 4, n))
        self.run(levels)
        spans = sorted((start, start + count) for name, start, count in draws
                       if name == "gaussian_stream")
        assert spans == sorted((start, start + count) for name, start, count in draws
                               if name == "rayleigh_stream")
        assert all(levels[a:b].any() and b - a <= _BLOCK for a, b in spans)
        assert all(b <= c for (_, b), (c, _) in zip(spans, spans[1:]))  # no sample drawn twice
        high = np.flatnonzero(levels)
        assert all(any(a <= i < b for a, b in spans) for i in high)
        assert not any(a < mid < b for a, b in spans)  # no block crosses the split


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
        with pytest.raises(InvalidParameter, match="samples but gate has"):
            jam(tone_2v(), idle_gate(16), JammerConfig())

    def test_rate_mismatch(self):
        gate = GateLine(np.zeros(N), FS / 2.0)
        with pytest.raises(InvalidParameter, match="Hz but gate at"):
            jam(tone_2v(), gate, JammerConfig())
