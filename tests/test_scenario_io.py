import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jamsim.cli as cli
import jamsim.scenario_io as scenario_io
from jamsim.analysis import DB_FLOOR, Spectrum, power_spectrum
from jamsim.cli import run_cli
from jamsim.errors import InvalidParameter, ParseError
from jamsim.filterbank import BAND_FILTER_SPECS, design_bandpass, frequency_response
from jamsim.jammer import JammerConfig
from jamsim.pipeline import build_pipeline, run_scenario
from jamsim.scenario_io import (
    parse_scenario_file,
    write_spectrum_csv,
    write_timeseries_csv,
)
from jamsim.signal_core import NoiseSpec, SignalBuffer, ToneSpec
from jamsim.trigger import TriggerConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SCI9 = re.compile(r"^-?\d\.\d{8}e[+-]\d{2,3}$")


def per_row_csv(header, *columns):
    """The writers' original one-f-string-per-row output, kept as the byte reference."""
    rows = [",".join(f"{v:.8e}" for v in row) for row in zip(*columns)]
    return "".join(line + "\n" for line in [header, *rows]).encode("utf-8")


def per_row_timeseries_csv(buffer):
    times = [i / buffer.sample_rate for i in range(len(buffer))]
    return per_row_csv("time_s,value_v", times, buffer.samples)


#: Values whose formatting is easy to get wrong: signed zero, the smallest
#: subnormal, the DB floor, the largest finite double, and digits to round.
AWKWARD_VALUES = [0.0, -0.0, 5e-324, -5e-324, DB_FLOOR, 1.797e308, -1.797e308, 1.0 / 3.0,
                  -2.0e-5, 123456789.5, 9.999999995e-7]
#: 1000-value columns of few distinct values, in runs of 1 to 13 that cross 3-row block edges.
_RUNS = np.resize([1, 2, 3, 5, 8, 13], 200)
REPEATING = {
    "gate": np.repeat(np.resize([0.0, 5.0], 200), _RUNS)[:1000],
    "zeros": np.zeros(1000),
    "signed-zeros": np.repeat(np.resize([0.0, -0.0], 200), _RUNS)[:1000],
}


class TestParse:
    def test_minimal_file_takes_all_defaults(self):
        scenario, config = parse_scenario_file("[tones]\nfreq_mhz = 1747.5\n")
        assert scenario.name == "scenario"
        assert scenario.tones == (ToneSpec(frequency=1747.5e6, amplitude=2.0, phase=0.0),)
        assert config.sample_rate == 10e9
        assert config.n_samples == 4096
        assert config.filter_order == 6
        assert config.jammer3.noise.seed == 42
        assert config.jammer40.noise.seed == 43
        assert config.trigger.envelope_window is None

    def test_shipped_input2_file(self):
        scenario, _ = parse_scenario_file((SCENARIO_DIR / "input2.scn").read_text())
        assert scenario.name == "input2"
        assert tuple(t.frequency / 1e6 for t in scenario.tones) == (1200.0, 1740.0, 1850.0, 3000.0)
        assert all(t.amplitude == 2.0 for t in scenario.tones)

    def test_every_section_is_honoured(self):
        text = """
        [scenario]
        name = custom

        [tones]
        freq_mhz = 1747.5
        amplitude_v = 1.5
        phase_rad = 0.25
        freq_mhz = 2355

        [sim]
        sample_rate_hz = 12e9
        n_samples = 8192
        seed = 9
        filter_order = 4

        [jammer]
        gain = 3.5
        gaussian_sigma_v = 0.5
        rayleigh_sigma_v = 0.25

        [trigger]
        threshold_v = 0.8
        high_v = 4.0
        envelope_window = 9
        """
        scenario, config = parse_scenario_file("\n".join(
            line.strip() for line in text.splitlines()))
        assert scenario.name == "custom"
        assert scenario.tones[0] == ToneSpec(1747.5e6, 1.5, 0.25)
        assert scenario.tones[1] == ToneSpec(2355e6, 2.0, 0.0)
        assert config.sample_rate == 12e9
        assert config.n_samples == 8192
        assert config.filter_order == 4
        assert config.jammer3 == JammerConfig(gain=3.5, noise=NoiseSpec(0.5, 0.25, 9))
        assert config.jammer40 == JammerConfig(gain=3.5, noise=NoiseSpec(0.5, 0.25, 10))
        assert config.trigger == TriggerConfig(threshold=0.8, high_level=4.0, envelope_window=9)

    @pytest.mark.parametrize("text,line", [
        ("[tones]\nfreq_mhz = 6000\n", 2),
        ("[tones]\nfreq_mhz = 5000\n", 2),  # exactly at Nyquist
        ("[sim]\nsample_rate_hz = 1e10\n[tones]\nfreq_mhz = 1200\nfreq_mhz = 6000\n", 5),
        ("[tones]\nfreq_mhz = 4600\nfreq_mhz = 1200\n[sim]\nsample_rate_hz = 9e9\n", 5),
        ("[tones]\nfreq_mhz = 1200\n\nfreq_mhz = 4600\namplitude_v = 1\n"
         "[sim]\nsample_rate_hz = 9e9\n", 7),
        ("[sim]\nsample_rate_hz = 9e9\n\n[tones]\nfreq_mhz = 4600\n", 5),
    ])
    def test_above_nyquist_tone_fails_at_the_later_of_its_line_and_the_rate(self, text, line):
        with pytest.raises(ParseError, match="Nyquist") as err:
            parse_scenario_file(text)
        assert err.value.line == line

    def test_each_tone_is_built_once(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(kwargs)
            return ToneSpec(*args, **kwargs)

        monkeypatch.setattr(scenario_io, "ToneSpec", counted)
        scenario, _ = parse_scenario_file(
            "[tones]\nfreq_mhz = 1200\namplitude_v = 1\nphase_rad = 0.5\n"
            "freq_mhz = 1740\nphase_rad = 1\nfreq_mhz = 2340\n[sim]\nsample_rate_hz = 9e9\n")
        assert len(built) == 3
        assert scenario.tones == (ToneSpec(1200e6, 1.0, 0.5), ToneSpec(1740e6, 2.0, 1.0),
                                  ToneSpec(2340e6))

    def test_a_rate_lowered_after_parsing_fails_at_run_time(self):
        scenario, config = parse_scenario_file("[tones]\nfreq_mhz = 4600\n")
        pipeline = build_pipeline(replace(config, sample_rate=9e9))
        with pytest.raises(InvalidParameter, match="Nyquist") as err:
            run_scenario(pipeline, scenario)
        assert not isinstance(err.value, ParseError)

    def test_unknown_section_fails_with_line_number(self):
        with pytest.raises(ParseError, match="unknown section") as err:
            parse_scenario_file("[tones]\nfreq_mhz = 1200\n[bogus]\n")
        assert err.value.line == 3

    def test_unknown_key_fails_fast(self):
        with pytest.raises(ParseError, match="unknown key") as err:
            parse_scenario_file("[sim]\nsample_rate_hz = 1e10\ncolour = blue\n")
        assert err.value.line == 3

    def test_bad_number_reported(self):
        with pytest.raises(ParseError, match="cannot parse") as err:
            parse_scenario_file("[sim]\nn_samples = many\n")
        assert err.value.line == 2

    def test_non_finite_number_rejected(self):
        with pytest.raises(ParseError, match="must be finite"):
            parse_scenario_file("[jammer]\ngain = inf\n")

    def test_key_before_section_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario_file("freq_mhz = 1200\n")

    def test_tone_attribute_before_any_tone_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario_file("[tones]\namplitude_v = 2\n")

    def test_duplicate_tone_attribute_rejected(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_scenario_file("[tones]\nfreq_mhz = 1200\namplitude_v = 2\namplitude_v = 3\n")

    def test_duplicate_sim_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_scenario_file("[sim]\nseed = 1\nseed = 2\n")

    @pytest.mark.parametrize("section,key", [(section, key) for section, keys in
                                             scenario_io._SECTION_KEYS.items() for key in keys])
    def test_every_key_given_twice_fails_at_its_second_line(self, section, key):
        head = "[tones]\nfreq_mhz = 1200\n" if section == "tones" else f"[{section}]\n"
        text = head + f"{key} = 2\n" * 2
        if key == scenario_io._TONE_KEY:  # it starts a tone, so no tone holds it twice
            assert len(parse_scenario_file(text)[0].tones) == 3
            return
        with pytest.raises(ParseError, match=f"duplicate key '{key}'") as err:
            parse_scenario_file(text)
        assert err.value.line == head.count("\n") + 2

    @pytest.mark.parametrize("spelling", ["7", "007", "+7", "1_000", " 12", "0x10", "0o17",
                                          "0b11", "7.0", "1e3", "seven", ""])
    @pytest.mark.parametrize("key", ["n_samples", "seed", "filter_order", "envelope_window"])
    def test_an_integer_takes_the_spellings_of_the_seed_flag_and_variable(
            self, monkeypatch, key, spelling):
        def read(how):
            try:
                return how()
            except InvalidParameter as exc:
                return str(exc)

        flag = read(lambda: cli._build_parser().parse_args(
            ["run", "--builtin", "1", "--out", "d", "--seed", spelling]).seed)
        monkeypatch.setenv(cli.SEED_ENV_VAR, spelling)
        variable = read(cli._ambient_seed)
        assert isinstance(flag, int) == isinstance(variable, int)
        if isinstance(flag, int):
            assert flag == variable == int(spelling)
        section = next(s for s, keys in scenario_io._SECTION_KEYS.items() if key in keys)
        text = f"[{section}]\n{key} = {spelling}\n"
        parsed = read(lambda: parse_scenario_file(text))
        if not isinstance(flag, int):
            assert parsed == (f"line 2: cannot parse {key} value {spelling.strip()!r}" if spelling
                              else f"line 2: empty value for {key!r}")
        elif isinstance(parsed, tuple):
            config = parsed[1].trigger if section == "trigger" else parsed[1]
            assert scenario_io._file_values(config, section)[key] == flag
        else:  # read, then out of its range: an odd filter order
            assert parsed.startswith("line 2: filter order must be even") and flag % 2

    def test_line_without_equals_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_scenario_file("[sim]\nnonsense\n")
        assert err.value.line == 2

    def test_comments_and_blank_lines_ignored(self):
        scenario, _ = parse_scenario_file(
            "# a comment\n\n[tones]\nfreq_mhz = 1200  # trailing\n")
        assert len(scenario.tones) == 1


class TestCsvBytes:
    @pytest.fixture(params=[3, None], ids=["3-row-blocks", "default-blocks"])
    def block_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(scenario_io, "_CSV_BLOCK_ROWS", request.param)

    @pytest.mark.parametrize("sample_rate", [10e9, 9e9, 3.0])
    def test_timeseries_matches_the_per_row_formatter(self, tmp_path, block_rows, sample_rate):
        noise = np.random.default_rng(2).normal(scale=3.0, size=1000)
        for samples in ([], AWKWARD_VALUES, noise, *REPEATING.values()):
            buf = SignalBuffer(samples, sample_rate)
            path = tmp_path / "t.csv"
            write_timeseries_csv(buf, path)
            assert path.read_bytes() == per_row_timeseries_csv(buf)
        # a run's series written side by side, as `jamsim run` writes them, and then
        # another run's at another (n, fs), whose time column must not be the first's
        written = {}
        for rate, n in [(sample_rate, 1000), (7.0 * sample_rate, 998)]:
            buffers = {tmp_path / f"{n}-{name}.csv": SignalBuffer(samples[:n], rate)
                       for name, samples in {"noise": noise, **REPEATING}.items()}
            scenario_io._write_timeseries(buffers)
            written.update(buffers)
        for path, buf in written.items():
            assert path.read_bytes() == per_row_timeseries_csv(buf), path.name

    def test_spectrum_matches_the_per_row_formatter(self, tmp_path, block_rows):
        spectra = [power_spectrum(SignalBuffer(np.ones(64), 10e9)),  # all bins but DC on the floor
                   power_spectrum(SignalBuffer(np.random.default_rng(4).normal(size=99), 9e9)),
                   Spectrum(np.arange(len(AWKWARD_VALUES), dtype=float), AWKWARD_VALUES, 1.0),
                   *(Spectrum(np.arange(1000.0), power, 1.0) for power in REPEATING.values())]
        assert np.count_nonzero(spectra[0].power_db == DB_FLOOR) == len(spectra[0]) - 1
        for spec in spectra:
            path = tmp_path / "s.csv"
            write_spectrum_csv(spec, path)
            assert path.read_bytes() == per_row_csv("freq_hz,power_db", spec.freqs, spec.power_db)

    @pytest.mark.parametrize("filter_id", [1, 2, 3, 4])
    def test_response_matches_the_per_row_formatter(self, tmp_path, block_rows, filter_id):
        path = tmp_path / "r.csv"
        assert run_cli(["response", "--filter", str(filter_id), "--out", str(path)]) == 0
        stages = design_bandpass(BAND_FILTER_SPECS[filter_id - 1], 10e9)
        freqs = np.linspace(0.0, 5e9, 2049)
        mag_db, phase = frequency_response(stages, freqs)
        assert path.read_bytes() == per_row_csv("freq_hz,magnitude_db,phase_rad",
                                                freqs, mag_db, phase)


class TestCsvWriters:
    def test_empty_buffer_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_timeseries_csv(SignalBuffer([], 10e9), path)
        assert path.read_bytes() == b"time_s,value_v\n"

    def test_time_axis(self, tmp_path):
        path = tmp_path / "three.csv"
        write_timeseries_csv(SignalBuffer([1.0, -2.0, 0.5], 10e9), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,value_v"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == [0.0, 1e-10, 2e-10]

    def test_nine_significant_digits_and_lf_endings(self, tmp_path):
        path = tmp_path / "fmt.csv"
        write_timeseries_csv(SignalBuffer([1.0 / 3.0, -2.0e-5], 10e9), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        for line in raw.decode("utf-8").splitlines()[1:]:
            for cell in line.split(","):
                assert SCI9.match(cell), cell

    def test_spectrum_csv(self, tmp_path):
        spec = power_spectrum(SignalBuffer(np.ones(8), 10e9))
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,power_db"
        assert len(lines) == 1 + len(spec)
