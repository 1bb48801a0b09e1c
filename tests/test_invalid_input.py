"""Every invalid input ends in a typed error and exit code, never a traceback."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jamsim.analysis import rms
from jamsim.cli import run_cli
from jamsim.errors import InvalidParameter, ParseError
from jamsim.filterbank import BAND_FILTER_SPECS, FilterSpec, FilterStages, design_bandpass
from jamsim.jammer import JammerConfig
from jamsim.pipeline import (MAX_TOTAL_AMPLITUDE, Pipeline, PipelineConfig, Scenario,
                             build_pipeline)
from jamsim.rng import gaussian_stream, raw_stream, rayleigh_stream, uniform_stream
from jamsim.scenario_io import parse_scenario_file
from jamsim.signal_core import MAX_SEED, NoiseSpec, SignalBuffer, ToneSpec, multi_tone
from jamsim.trigger import GateLine, TriggerConfig, default_envelope_window, envelope

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
        assert manifest["config"]["seed"] == MAX_SEED - 1  # the Band 40 jammer draws from MAX_SEED

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
    (TONE + "[sim]\nsample_rate_hz = 4e9\n", 4),  # under twice the highest band edge
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


BUFFER = SignalBuffer([1.0, 2.0], 10e9)
UPLINK = BAND_FILTER_SPECS[1]
STAGES = design_bandpass(UPLINK, 10e9)
#: Each noise stream and the arguments of a valid draw from it.
STREAMS = {
    raw_stream: {"seed": 1, "count": 8, "start": 0},
    uniform_stream: {"seed": 1, "count": 8, "start": 0},
    gaussian_stream: {"sigma": 1.0, "seed": 1, "count": 8, "start": 0},
    rayleigh_stream: {"sigma": 1.0, "seed": 1, "count": 8, "start": 0},
}
#: Every numeric setting: a call that passes it the value under test, the name it goes by,
#: a value it accepts (an int only for an integer setting), and the values out of its range.
SETTINGS = {
    "ToneSpec.frequency": (lambda v: ToneSpec(v), "frequency", 1e9, (0.0, -1.0)),
    "ToneSpec.amplitude": (lambda v: ToneSpec(1e9, v), "amplitude", 0.0, (-1e-300,)),
    "ToneSpec.phase": (lambda v: ToneSpec(1e9, 2.0, v), "phase", -1.0, ()),
    "NoiseSpec.gaussian_sigma": (lambda v: NoiseSpec(gaussian_sigma=v), "gaussian_sigma",
                                 MAX_TOTAL_AMPLITUDE, (-1.0, 1e101)),
    "NoiseSpec.rayleigh_sigma": (lambda v: NoiseSpec(rayleigh_sigma=v), "rayleigh_sigma", 0.0,
                                 (-1.0, 1e101)),
    "NoiseSpec.seed": (lambda v: NoiseSpec(seed=v), "seed", MAX_SEED, (-1, MAX_SEED + 1)),
    "JammerConfig.gain": (lambda v: JammerConfig(gain=v), "gain", 1.0, (0.5, 1e101)),
    "TriggerConfig.threshold": (lambda v: TriggerConfig(threshold=v), "threshold", 4.0,
                                (0.0,)),
    "TriggerConfig.high_level": (lambda v: TriggerConfig(high_level=v), "high_level", 1.5, ()),
    "TriggerConfig.envelope_window": (lambda v: TriggerConfig(envelope_window=v),
                                      "envelope_window", 1, (0,)),
    "PipelineConfig.sample_rate": (lambda v: PipelineConfig(sample_rate=v), "sample_rate",
                                   4.82e9, (0.0, -1e10, 4.81e9)),
    "PipelineConfig.n_samples": (lambda v: PipelineConfig(n_samples=v), "n_samples", 2,
                                 (0, 1, 2**63)),
    "PipelineConfig.filter_order": (lambda v: PipelineConfig(filter_order=v), "filter_order",
                                    2, (0, 3)),
    "PipelineConfig.seed": (lambda v: PipelineConfig(seed=v), "seed", 0, (-1, 2**70)),
    "PipelineConfig.gain": (lambda v: PipelineConfig(gain=v), "gain", 1.0, (0.5, 1e101)),
    "PipelineConfig.gaussian_sigma": (lambda v: PipelineConfig(gaussian_sigma=v),
                                      "gaussian_sigma", 0.0, (-1.0, 1e101)),
    "PipelineConfig.rayleigh_sigma": (lambda v: PipelineConfig(rayleigh_sigma=v),
                                      "rayleigh_sigma", 0.0, (-1.0, 1e101)),
    "FilterSpec.id": (lambda v: FilterSpec(v, 1710.0, 1785.0), "id", -7, ()),
    "FilterSpec.band_low": (lambda v: FilterSpec(2, v, 1785.0), "band_low", 1e-9, (0.0, -1.0)),
    "FilterSpec.band_high": (lambda v: FilterSpec(2, 1710.0, v), "band_high", 1710.5,
                             (1710.0, 1.0)),
    "FilterStages.sample_rate": (lambda v: FilterStages(STAGES.sos, v, UPLINK), "sample_rate",
                                 1.0, (0.0,)),
    "SignalBuffer.sample_rate": (lambda v: SignalBuffer([1.0], v), "sample_rate", 1.0,
                                 (0.0, -1.0)),
    "GateLine.sample_rate": (lambda v: GateLine([0.0], v), "sample_rate", 1.0, (0.0, -1.0)),
    "GateLine.high_level": (lambda v: GateLine([0.0], 1e9, v), "high_level", -1.0, ()),
    "default_envelope_window.sample_rate": (default_envelope_window, "sample_rate", 1.0,
                                            (0.0, -1.0)),
    "multi_tone.sample_rate": (lambda v: multi_tone([], v, 4), "sample_rate", 1.0, (0.0,)),
    "multi_tone.n_samples": (lambda v: multi_tone([], 10e9, v), "n_samples", 0, (-1,)),
    "envelope.window": (lambda v: envelope(BUFFER, v), "window", 10**29, (0,)),
    "rms.skip_fraction": (lambda v: rms(BUFFER, v), "skip_fraction", 0.5, (-0.1, 1.5)),
    "design_bandpass.sample_rate": (lambda v: design_bandpass(UPLINK, v), "sample_rate", 5e9,
                                    (0.0, 3.5e9)),
    "design_bandpass.order": (lambda v: design_bandpass(UPLINK, 10e9, v), "filter_order", 2,
                              (0, 3)),
    **{f"{draw.__name__}.{arg}": (lambda v, draw=draw, args=args, arg=arg: draw(**{**args, arg: v}),
                                  arg, valid, out)
       for draw, args in STREAMS.items()
       for arg, valid, out in (("seed", MAX_SEED, (-1, MAX_SEED + 1)),
                               ("count", 0, (-1,)), ("start", 2**63, (-1,)),
                               ("sigma", 0.0, (-1.0, 1e101)))
       if arg in args},
}
#: Values no numeric setting accepts.
NOT_A_SETTING = {"str": "1", "None": None, "bool": True, "nan": float("nan"),
                 "inf": float("inf")}


def invalid_settings():
    """A case per setting and invalid value: the message start of one that is not a number
    of the setting's kind, None for one out of its range."""
    for label, (make, name, valid, out) in SETTINGS.items():
        integer = type(valid) is int
        wrong_kind = {**NOT_A_SETTING, **({"fraction": 2.5, "whole-float": 6.0} if integer
                                          else {"int-past-float": 10**400})}
        if label == "TriggerConfig.envelope_window":
            del wrong_kind["None"]  # None means the default window
        for kind, value in wrong_kind.items():
            expected = "an integer" if integer else "finite" if kind in (
                "nan", "inf", "int-past-float") else "a real number"
            yield pytest.param(make, name, f"{name} must be {expected}, got ", value,
                               id=f"{label}-{kind}")
        for value in out:
            yield pytest.param(make, name, None, value, id=f"{label}-{value!r}")


class TestTypedConfigErrors:
    @pytest.mark.parametrize("make,name,message,value", invalid_settings())
    def test_an_invalid_setting_raises_invalid_parameter_naming_it(self, make, name, message,
                                                                   value):
        with pytest.raises(InvalidParameter) as err:
            make(value)
        assert err.value.fields == (name,)
        if message is not None:
            assert str(err.value).startswith(message), err.value

    @pytest.mark.parametrize("label", SETTINGS)
    def test_each_setting_of_the_table_accepts_a_value_at_its_edge(self, label):
        make, _, valid, _ = SETTINGS[label]
        make(valid)

    @pytest.mark.parametrize("stored,kind", [
        (lambda: ToneSpec(10**9).frequency, float),
        (lambda: ToneSpec(10**9, np.float32(2.0)).amplitude, float),
        (lambda: PipelineConfig(seed=np.int64(7)).seed, int),
        (lambda: PipelineConfig(n_samples=np.int32(64)).n_samples, int),
        (lambda: PipelineConfig(sample_rate=10**10).sample_rate, float),
        (lambda: PipelineConfig(gain=np.float64(5.0)).gain, float),
        (lambda: PipelineConfig(gaussian_sigma=1).gaussian_sigma, float),
        (lambda: TriggerConfig(envelope_window=np.uint8(9)).envelope_window, int),
        (lambda: FilterSpec(np.int64(2), 1710, 1785).band_high, float),
        (lambda: SignalBuffer([1.0], np.float32(1e9)).sample_rate, float),
    ], ids=["frequency", "amplitude", "seed", "n_samples", "sample_rate", "gain",
            "gaussian_sigma", "envelope_window", "band_high", "buffer-sample_rate"])
    def test_a_setting_is_stored_as_the_check_coerced_it(self, stored, kind):
        assert type(stored()) is kind

    @pytest.mark.parametrize("seed", [MAX_SEED, MAX_SEED + 1, 2**70])
    def test_a_seed_that_would_alias_a_smaller_one_is_rejected(self, seed):
        # The Band 40 jammer takes seed+1, so MAX_SEED itself is past the end.
        with pytest.raises(InvalidParameter) as err:
            PipelineConfig(seed=seed)
        assert err.value.fields == ("seed",)
        assert str(err.value).endswith(f"got {seed}")
        if seed == MAX_SEED:  # a larger seed fails the Band 3 noise seed's range first
            assert "<= 18446744073709551614," in str(err.value)

    def test_noise_seeds_span_64_bits(self):
        assert NoiseSpec(seed=MAX_SEED).seed == MAX_SEED
        assert PipelineConfig(seed=MAX_SEED - 1).jammer40.noise.seed == MAX_SEED
        with pytest.raises(InvalidParameter):
            NoiseSpec(seed=MAX_SEED + 1)

    @pytest.mark.parametrize("make,field", [
        (lambda: Scenario("s", tones=None), "tones"),
        (lambda: Scenario("s", tones=[1]), "tones"),
        (lambda: Scenario("s", tones=ToneSpec(1e9)), "tones"),
        (lambda: Scenario("", tones=()), "name"),
        (lambda: Scenario(None, tones=()), "name"),
        (lambda: SignalBuffer(["x"], 10e9), "samples"),
        (lambda: SignalBuffer([[1.0], [2.0, 3.0]], 10e9), "samples"),
        (lambda: SignalBuffer([[1.0, 2.0], [3.0, 4.0]], 10e9), "samples"),
        (lambda: SignalBuffer(5.0, 10e9), "samples"),
        (lambda: SignalBuffer([1.0, float("nan")], 10e9), "samples"),
        (lambda: GateLine(["x"], 10e9), "samples"),
        (lambda: GateLine([0.0, 2.5], 10e9), "samples"),
        (lambda: GateLine([0.0, float("nan")], 10e9), "samples"),
        (lambda: GateLine([5.0, float("inf")], 10e9), "samples"),
        (lambda: PipelineConfig(trigger=None), "trigger"),
        (lambda: JammerConfig(noise=None), "noise"),
        (lambda: multi_tone([1], 1e9, 4), "tones"),
        (lambda: multi_tone(None, 1e9, 4), "tones"),
        (lambda: Pipeline(None), "config"),
        (lambda: build_pipeline(None), "config"),
    ], ids=["tones-None", "tones-int", "tones-ToneSpec", "name-empty", "name-None",
            "samples-str", "samples-ragged", "samples-2d", "samples-0d", "samples-nan",
            "gate-str", "gate-not-binary", "gate-nan", "gate-inf", "trigger-None", "noise-None",
            "multi_tone-int", "multi_tone-None", "Pipeline-None", "build_pipeline-None"])
    def test_a_constructor_names_the_argument_of_a_wrong_type(self, make, field):
        with pytest.raises(InvalidParameter) as err:
            make()
        assert err.value.fields == (field,)

    @pytest.mark.parametrize("make,prefix,fields", [
        (lambda: multi_tone([ToneSpec(6e9)], 10e9, 4),
         "tone at 6000000000.0 Hz is not below Nyquist (5000000000.0 Hz)",
         ("frequency", "sample_rate")),
        (lambda: design_bandpass(BAND_FILTER_SPECS[3], 4e9),
         "band edge 2405.0 MHz is not below Nyquist", ("sample_rate",)),
        (lambda: PipelineConfig(sample_rate=4e9),
         "band edge 2405.0 MHz is not below Nyquist", ("sample_rate",)),
    ], ids=["tone", "band-edge-design", "band-edge-config"])
    def test_a_nyquist_message_keeps_its_prefix(self, make, prefix, fields):
        with pytest.raises(InvalidParameter) as err:
            make()
        assert str(err.value).startswith(prefix) and err.value.fields == fields


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
