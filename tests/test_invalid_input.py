"""Every invalid input ends in a typed error and exit code, never a traceback."""

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jamsim.cli import run_cli
from jamsim.errors import InvalidParameter, ParseError
from jamsim.pipeline import MAX_TOTAL_AMPLITUDE, PipelineConfig, Scenario
from jamsim.rng import gaussian_stream, raw_stream, rayleigh_stream, uniform_stream
from jamsim.scenario_io import parse_scenario_file
from jamsim.signal_core import MAX_SEED, NoiseSpec, SignalBuffer, ToneSpec, multi_tone
from jamsim.trigger import TriggerConfig, envelope

TONE = "[tones]\nfreq_mhz = 1747.5\n"


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("jamsim: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


class TestInvalidFlags:
    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--samples", "0"],
        ["--samples", "-4"],
        ["--samples", "1"],
        # Past the longest indexable float64 buffer; rejected before any allocation.
        ["--samples", "10000000000000000000"],
        ["--fs", "nan"],
        ["--fs", "inf"],
        ["--fs", "0"],
        ["--fs=-1e10"],
    ])
    def test_exits_1_with_one_line(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out), *flags]) == 1
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("fs", ["1e18", "1e100", "1e300", "1.7e308"])
    def test_undesignable_sample_rate_exits_2_without_warnings(self, tmp_path, capsys, fs):
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", "--builtin", "1", "--out", str(out), "--fs", fs]) == 2
        assert "simulation error" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_unallocatable_buffer_exits_2_with_one_line(self, tmp_path, capsys):
        # 10**15 samples pass the n_samples range check but exceed the address
        # space, so the first allocation fails at once without touching memory.
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out), "--samples", str(10**15)]) == 2
        assert "simulation error" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_a_seed_whose_band40_seed_passes_2_64_exits_1_naming_seed(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out), "--seed", str(MAX_SEED)]) == 1
        assert "seed" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_the_largest_seed_runs(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out), "--seed", str(MAX_SEED - 1),
                        "--reproducible"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["seed"], manifest["config"]["jammer40"]["seed"]) == (MAX_SEED - 1, MAX_SEED)

    def test_negative_seed_from_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "-5")
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "d")]) == 1
        assert_one_line_error(capsys)


#: (scenario text, 1-based line of the key that set the bad value)
BAD_FILES = [
    ("[tones]\nfreq_mhz = -5\n", 2),
    ("[tones]\nfreq_mhz = 1200\nfreq_mhz = 1300\namplitude_v = -1\n", 4),
    (TONE + "[trigger]\nthreshold_v = 6\n", 4),
    (TONE + "[trigger]\nhigh_v = 3\n\nthreshold_v = 4\n", 6),
    (TONE + "[jammer]\ngain = 0.5\n", 4),
    (TONE + "[jammer]\ngaussian_sigma_v = -1\n", 4),
    (TONE + "[sim]\nn_samples = 0\n", 4),
    (TONE + "[sim]\nseed = 3\nn_samples = 1\n", 5),
    (TONE + "[sim]\nseed = -3\n", 4),
    (TONE + "[sim]\nseed = 18446744073709551615\n", 4),
    (TONE + "[sim]\nseed = 1\nfilter_order = 3\n", 5),
    (TONE + "[sim]\nsample_rate_hz = 0\n", 4),
    (TONE + "[trigger]\nenvelope_window = 0\n", 4),
]


class TestHugeEnvelopeWindow:
    @pytest.mark.parametrize("window", ["1000000000000", "100000000000000000000000000000"])
    def test_run_exits_0(self, tmp_path, window):
        scn = tmp_path / "w.scn"
        scn.write_text(TONE + f"[sim]\nn_samples = 64\n[trigger]\nenvelope_window = {window}\n")
        assert run_cli(["run", str(scn), "--out", str(tmp_path / "d")]) == 0


class TestHugeValues:
    @pytest.mark.parametrize("text,line", [
        (TONE + "amplitude_v = 1e307\n", 3),
        ("[tones]\nfreq_mhz = 1200\namplitude_v = 1e308\n"
         "freq_mhz = 1300\namplitude_v = 1e308\n", 5),
    ], ids=["one-tone-1e307", "two-tones-1e308"])
    def test_summed_tone_amplitude_over_the_limit_exits_1(self, tmp_path, capsys, text, line):
        scn = tmp_path / "huge.scn"
        scn.write_text(text)
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", str(scn), "--out", str(out), "--reproducible"]) == 1
        assert f"line {line}: " in assert_one_line_error(capsys)
        assert not out.exists()

    def test_amplitude_at_the_limit_runs(self, tmp_path):
        scn = tmp_path / "limit.scn"
        scn.write_text(TONE + f"amplitude_v = {MAX_TOTAL_AMPLITUDE!r}\n[sim]\nn_samples = 256\n")
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", str(scn), "--out", str(out), "--reproducible"]) == 0
        json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)

    @pytest.mark.parametrize("key,value", [
        ("rayleigh_sigma_v", "1e308"), ("gaussian_sigma_v", "1e200"), ("gain", "1e300")])
    def test_jammer_setting_over_the_limit_exits_1_naming_its_line(self, tmp_path, capsys,
                                                                    key, value):
        scn = tmp_path / "jammer.scn"
        scn.write_text(TONE + f"[jammer]\n{key} = {value}\n")
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", str(scn), "--out", str(out), "--reproducible"]) == 1
        err = assert_one_line_error(capsys)
        assert err.startswith("jamsim: scenario file error: line 4: ")
        assert key.removesuffix("_v") in err
        assert not out.exists()

    def test_noise_sigma_at_the_limit_runs(self, tmp_path):
        scn = tmp_path / "limit.scn"
        scn.write_text(TONE + f"[sim]\nn_samples = 256\n[jammer]\n"
                       f"gaussian_sigma_v = {MAX_TOTAL_AMPLITUDE!r}\n"
                       f"rayleigh_sigma_v = {MAX_TOTAL_AMPLITUDE!r}\n")
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", str(scn), "--out", str(out), "--reproducible"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
        assert manifest["results"]["jammer1_rms_v"] > MAX_TOTAL_AMPLITUDE

    def test_overflowing_result_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # Gain and amplitude at their limits put the jammer's squares past the float range.
        scn = tmp_path / "gain.scn"
        scn.write_text(TONE + f"amplitude_v = {MAX_TOTAL_AMPLITUDE!r}\n"
                       f"[jammer]\ngain = {MAX_TOTAL_AMPLITUDE!r}\n")
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", str(scn), "--out", str(out), "--reproducible"]) == 2
        err = assert_one_line_error(capsys)
        assert err.startswith("jamsim: simulation error: manifest not written") and "inf" in err
        assert not out.exists()

    def test_scenario_rejects_the_sum_directly(self):
        tones = [ToneSpec(1.2e9, MAX_TOTAL_AMPLITUDE), ToneSpec(1.3e9, MAX_TOTAL_AMPLITUDE)]
        with pytest.raises(InvalidParameter):
            Scenario(name="huge", tones=tones)


def _reject_constant(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


class TestInvalidFileValues:
    @pytest.mark.parametrize("text,line", BAD_FILES)
    def test_parser_names_the_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: ") as err:
            parse_scenario_file(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text,line", BAD_FILES)
    def test_cli_exits_1_naming_the_line(self, tmp_path, capsys, text, line):
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        out = tmp_path / "d"
        assert run_cli(["run", str(scn), "--out", str(out)]) == 1
        assert f"line {line}: " in assert_one_line_error(capsys)
        assert not out.exists()

    def test_non_utf8_file_exits_1_with_one_line(self, tmp_path, capsys):
        scn = tmp_path / "utf16.scn"
        scn.write_bytes(b"\xff\xfe" + TONE.encode("utf-16-le"))
        out = tmp_path / "d"
        assert run_cli(["run", str(scn), "--out", str(out)]) == 1
        assert "cannot read scenario file" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_checks_see_the_whole_file(self):
        # threshold_v = 6 is valid once the later high_v = 10 is read.
        _, config = parse_scenario_file(TONE + "[trigger]\nthreshold_v = 6\nhigh_v = 10\n")
        assert (config.trigger.threshold, config.trigger.high_level) == (6.0, 10.0)

    def test_error_without_a_file_line_stays_a_parameter_error(self):
        with pytest.raises(InvalidParameter) as err:
            parse_scenario_file(TONE, default_seed=-1)
        assert not isinstance(err.value, ParseError)


class TestTypedConfigErrors:
    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": float("nan")}, {"sample_rate": float("inf")}, {"sample_rate": 0.0},
        {"filter_order": 3}, {"filter_order": 0}, {"n_samples": 0}, {"n_samples": 1},
        {"n_samples": 2**63}, {"seed": -1},
        {"gain": 0.5}, {"rayleigh_sigma": -1.0},
        {"gaussian_sigma": 1e101}, {"rayleigh_sigma": float("inf")},
        {"gain": 1e101}, {"gain": float("nan")},
    ])
    def test_pipeline_config_raises_invalid_parameter(self, kwargs):
        with pytest.raises(InvalidParameter):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("make,field", [
        (lambda: PipelineConfig(n_samples=4096.5), "n_samples"),
        (lambda: PipelineConfig(filter_order=6.0), "filter_order"),
        (lambda: PipelineConfig(seed=2.5), "seed"),
        (lambda: PipelineConfig(seed="3"), "seed"),
        (lambda: TriggerConfig(envelope_window=2.5), "envelope_window"),
        (lambda: multi_tone([ToneSpec(1.75e9)], 10e9, 4096.5), "n_samples"),
        (lambda: envelope(SignalBuffer([1.0, 2.0], 10e9), 2.5), "window"),
    ], ids=["n_samples", "filter_order", "seed-float", "seed-str", "envelope_window",
            "multi_tone-n_samples", "envelope-window"])
    def test_a_non_integer_setting_raises_invalid_parameter_naming_it(self, make, field):
        with pytest.raises(InvalidParameter, match=f"{field} must be an integer") as err:
            make()
        assert err.value.fields == (field,)

    @pytest.mark.parametrize("seed", [MAX_SEED, MAX_SEED + 1, 2**70])
    def test_a_seed_that_would_alias_a_smaller_one_is_rejected(self, seed):
        # The Band 40 jammer takes seed+1, so MAX_SEED itself is past the end.
        with pytest.raises(InvalidParameter) as err:
            PipelineConfig(seed=seed)
        assert err.value.fields == ("seed",)

    def test_noise_seeds_span_64_bits(self):
        assert NoiseSpec(seed=MAX_SEED).seed == MAX_SEED
        assert PipelineConfig(seed=MAX_SEED - 1).jammer40.noise.seed == MAX_SEED
        with pytest.raises(InvalidParameter):
            NoiseSpec(seed=MAX_SEED + 1)

    @pytest.mark.parametrize("field", ["threshold", "high_level"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_a_non_finite_trigger_level_raises_invalid_parameter_naming_it(self, field, value):
        # An infinite high level would reach 0 * inf in the comparator of a gated run.
        with pytest.raises(InvalidParameter, match=f"{field} must be finite") as err:
            TriggerConfig(**{field: value})
        assert err.value.fields == (field,)


STREAMS = {
    "raw_stream": raw_stream,
    "uniform_stream": uniform_stream,
    "gaussian_stream": lambda seed, count, start: gaussian_stream(1.0, seed, count, start),
    "rayleigh_stream": lambda seed, count, start: rayleigh_stream(1.0, seed, count, start),
}


@pytest.mark.parametrize("args,field", [
    ((MAX_SEED + 1, 8, 0), "seed"),  # would alias seed 0
    ((-1, 8, 0), "seed"),  # would alias seed MAX_SEED
    ((2.5, 8, 0), "seed"),
    ((1, 2.5, 0), "count"),
    ((1, 8, 2.5), "start"),
    ((1, "8", 0), "count"),
], ids=["seed-2**64", "seed--1", "seed-float", "count-float", "start-float", "count-str"])
@pytest.mark.parametrize("draw", STREAMS.values(), ids=STREAMS.keys())
def test_a_noise_draw_rejects_a_seed_or_span_naming_it(draw, args, field):
    with pytest.raises(InvalidParameter) as err:
        draw(*args)
    assert err.value.fields == (field,)


@pytest.mark.parametrize("count", [-1, -3])
@pytest.mark.parametrize("draw", [
    lambda n: gaussian_stream(1.0, 7, n),
    lambda n: rayleigh_stream(1.0, 7, n),
    lambda n: multi_tone([], 10e9, n),
], ids=["gaussian_stream", "rayleigh_stream", "multi_tone"])
def test_negative_length_raises_invalid_parameter(draw, count):
    with pytest.raises(InvalidParameter):
        draw(count)


_KEYS = ["name", "freq_mhz", "amplitude_v", "phase_rad", "sample_rate_hz", "n_samples", "seed",
         "filter_order", "gain", "gaussian_sigma_v", "rayleigh_sigma_v", "threshold_v",
         "high_v", "envelope_window", "wobble"]
_VALUES = st.one_of(
    st.integers(-10, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0x10", "1e400", "-0", "", "1_000", "2.5e9"]),
    st.text(max_size=8),
)
_LINES = st.one_of(
    st.sampled_from(["[scenario]", "[tones]", "[sim]", "[jammer]", "[trigger]", "[bogus]",
                     "", "# comment", "no equals sign"]),
    st.builds("{} = {}".format, st.sampled_from(_KEYS), _VALUES),
    st.text(max_size=24),
)


#: The stderr prefixes each non-zero exit code may print.
_STDERR_PREFIXES = {
    1: ("jamsim: error: ", "jamsim: scenario file error: "),
    2: ("jamsim: simulation error: ", "jamsim: i/o error: "),
}


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINES, max_size=14).map("\n".join))
    def test_any_scenario_text_parses_or_raises_parse_error(self, text):
        try:
            parse_scenario_file(text)
        except ParseError:
            pass

    # --samples stays small so that no example allocates much memory.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(builtin=st.integers(0, 5),
           seed=st.none() | st.integers(-3, 2**70),
           fs=st.none() | st.floats(allow_nan=True, allow_infinity=True),
           samples=st.none() | st.integers(-3, 1024))
    def test_run_flags_end_in_an_exit_code(self, tmp_path, capsys, builtin, seed, fs, samples):
        argv = ["run", "--builtin", str(builtin), "--out", str(tmp_path / "d")]
        for flag, value in (("--seed", seed), ("--fs", fs), ("--samples", samples)):
            if value is not None:
                argv.append(f"{flag}={value!r}")
        code = run_cli(argv)
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code in (1, 2)
            assert err.startswith(_STDERR_PREFIXES[code]), (code, err)
