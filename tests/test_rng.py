import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamsim.errors import InvalidParameter
from jamsim.rng import (_check_draw, gaussian_stream, mix64, raw_stream, rayleigh_stream,
                        uniform_stream)
from jamsim.signal_core import MAX_N_SAMPLES

# First outputs of splitmix64 seeded with 0, from the reference C
# implementation distributed with the xoshiro generators.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_matches_published_reference_outputs():
    assert tuple(int(v) for v in raw_stream(0, 3)) == SPLITMIX64_SEED0


def test_stream_is_prefix_stable():
    # Drawing more values never changes the earlier ones.
    assert np.array_equal(raw_stream(123, 10), raw_stream(123, 50)[:10])


def test_mix64_matches_stream_step():
    # One step from seed s is the finalizer applied to s + gamma.
    gamma = 0x9E3779B97F4A7C15
    assert int(raw_stream(7, 1)[0]) == mix64((7 + gamma) & (2**64 - 1))


def test_uniforms_in_unit_interval():
    u = uniform_stream(99, 10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_gaussian_and_rayleigh_are_decorrelated_for_shared_seed():
    g = gaussian_stream(1.0, 2024, 100_000)
    r = rayleigh_stream(1.0, 2024, 100_000)
    corr = np.corrcoef(g, r)[0, 1]
    assert abs(corr) < 0.02


def test_rayleigh_nonnegative():
    assert rayleigh_stream(2.5, 5, 10_000).min() >= 0.0


def test_zero_count_streams_are_empty():
    assert gaussian_stream(1.0, 1, 0).size == 0
    assert rayleigh_stream(1.0, 1, 0).size == 0
    assert uniform_stream(1, 0).size == 0


SEEDS = st.sampled_from([0, 42, 43, 2**63 + 5])
STREAMS = {
    "raw": lambda seed, count, start=0: raw_stream(seed, count, start),
    "gaussian": lambda seed, count, start=0: gaussian_stream(1.5, seed, count, start),
    "rayleigh": lambda seed, count, start=0: rayleigh_stream(0.75, seed, count, start),
    "uniform": lambda seed, count, start=0: uniform_stream(seed, count, start),
}


class TestRandomAccess:
    @pytest.mark.parametrize("name", STREAMS)
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, start=st.integers(0, 3000), count=st.integers(0, 3000))
    @example(seed=42, start=0, count=0)
    @example(seed=42, start=7, count=0)
    @example(seed=43, start=1, count=1)
    @example(seed=0, start=2, count=1)
    @example(seed=2**63 + 5, start=3, count=2)
    def test_a_span_is_the_slice_of_the_whole_stream(self, name, seed, start, count):
        draw = STREAMS[name]
        span = draw(seed, count, start)
        assert span.size == count
        assert span.tobytes() == draw(seed, start + count)[start:].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, start=st.integers(0, 2**62), count=st.integers(0, 8))
    def test_a_far_span_matches_the_finalizer_at_each_index(self, seed, start, count):
        # Sample j is mix64(seed + (j + 1) * gamma), wherever the span begins.
        gamma = 0x9E3779B97F4A7C15
        want = [mix64(seed + (j + 1) * gamma) for j in range(start, start + count)]
        assert [int(v) for v in raw_stream(seed, count, start)] == want

    @pytest.mark.parametrize("name", STREAMS)
    @pytest.mark.parametrize("start", [-1, -2])
    def test_negative_start_raises_invalid_parameter(self, name, start):
        with pytest.raises(InvalidParameter):
            STREAMS[name](42, 4, start)


#: The last sample each stream can draw: sample j takes counter j + 1, the last is
#: 2**64 - 1, and a Gaussian draw takes whole pairs of counters (2p + 1, 2p + 2).
LAST_SAMPLE = {"raw": 2**64 - 2, "uniform": 2**64 - 2, "rayleigh": 2**64 - 2,
               "gaussian": 2**64 - 3}


class TestTheEndOfTheCounters:
    @pytest.mark.parametrize("name", LAST_SAMPLE)
    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_the_last_accepted_span_and_the_first_rejected_one(self, name, count):
        draw, end = STREAMS[name], LAST_SAMPLE[name] + 1
        span = draw(42, count, end - count)
        assert span.size == count
        if count:  # random access holds up to the last sample
            assert span[1:].tobytes() == draw(42, count - 1, end - count + 1).tobytes()
        with pytest.raises(InvalidParameter) as err:
            draw(42, count, end - count + 1)
        assert err.value.fields == ("start", "count")

    def test_the_last_raw_samples_follow_the_finalizer(self):
        gamma, start = 0x9E3779B97F4A7C15, 2**64 - 4
        want = [mix64(7 + (j + 1) * gamma) for j in range(start, start + 3)]
        assert [int(v) for v in raw_stream(7, 3, start)] == want

    @pytest.mark.parametrize("call", [
        lambda: raw_stream(1, 2, 2**64 - 1),
        lambda: gaussian_stream(1.0, 1, 1, 2**64 - 2),
    ], ids=["raw-past-the-last-counter", "gaussian-half-a-pair-past"])
    def test_a_span_past_the_last_counter_raises_invalid_parameter(self, call):
        with pytest.raises(InvalidParameter, match="past 2\\*\\*64 - 1") as err:
            call()
        assert err.value.fields == ("start", "count")

    @pytest.mark.parametrize("name", LAST_SAMPLE)
    @pytest.mark.parametrize("count", [MAX_N_SAMPLES + 1, 2**63, 2**64])
    def test_a_count_no_array_can_hold_raises_invalid_parameter(self, name, count):
        # 2**63 used to give an empty array, 2**64 an untyped ValueError.
        with pytest.raises(InvalidParameter) as err:
            STREAMS[name](42, count)
        assert err.value.fields == ("count",)

    def test_the_longest_count_is_accepted_up_to_the_last_counter(self):
        # Checked without drawing: no machine holds MAX_N_SAMPLES float64 values.
        start = 2**64 - 1 - MAX_N_SAMPLES
        assert _check_draw(42, MAX_N_SAMPLES, start) == (42, MAX_N_SAMPLES, start)
        with pytest.raises(InvalidParameter):
            _check_draw(42, MAX_N_SAMPLES, start + 1)
