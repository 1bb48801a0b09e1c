import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamsim.errors import InvalidParameter
from jamsim.rng import gaussian_stream, mix64, raw_stream, rayleigh_stream, uniform_stream

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
