import gc
import json
import os
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jamsim.cli as cli
from jamsim.cli import run_cli
from jamsim.pipeline import (MEASURE_SKIP_FRACTION, Pipeline, PipelineConfig, Scenario,
                             builtin_scenarios, run_scenario)
from jamsim.scenario_io import _SECTION_KEYS, parse_scenario_file
from jamsim.signal_core import ToneSpec
from jamsim.trigger import TriggerConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
#: The runs whose manifests are checked: each built-in and each shipped scenario file.
SOURCES = {**{f"builtin{i}": ["--builtin", str(i)] for i in range(1, 5)},
           **{f"input{i}.scn": [str(SCENARIO_DIR / f"input{i}.scn")] for i in range(1, 5)}}

RUN_FILES = {"jammer1.csv", "jammer2.csv", "trigger1.csv", "trigger2.csv",
             "input_spectrum.csv", "manifest.json"}


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


class TestRun:
    def test_builtin_1_idle_verdict(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES
        assert capsys.readouterr().out.strip() == "band3: idle, band40: idle"

    def test_builtin_4_jams_both_bands(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "band3: JAMMING, band40: JAMMING"
        manifest = read_manifest(out)
        assert manifest["verdicts"] == {"band3": True, "band40": True}
        assert manifest["results"]["jammer1_rms_v"] > 1.0
        # The digest test pins these keys on one platform only; this pins them everywhere.
        assert manifest["results"].keys() == {
            "trigger1_level_v", "trigger2_level_v", "trigger1_stable", "trigger2_stable",
            "jammer1_rms_v", "jammer2_rms_v"}
        assert manifest["outputs"] == {
            "jammer1": "jammer1.csv", "jammer2": "jammer2.csv", "trigger1": "trigger1.csv",
            "trigger2": "trigger2.csv", "input_spectrum": "input_spectrum.csv"}

    def test_scenario_file_run(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(["run", str(SCENARIO_DIR / "input2.scn"), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "band3: JAMMING, band40: idle"

    def test_a_scenario_file_with_a_byte_order_mark_reads_as_without(self, tmp_path, capsys):
        plain = SCENARIO_DIR / "input4.scn"
        marked = tmp_path / "marked.scn"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())  # as Windows editors save it
        runs = []
        for source, out in ((plain, tmp_path / "a"), (marked, tmp_path / "b")):
            assert run_cli(["run", str(source), "--reproducible", "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[1] == runs[0]

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "--builtin", "2", "--out", str(a), "--seed", "7"]) == 0
        assert run_cli(["run", "--builtin", "2", "--out", str(b), "--seed", "7"]) == 0
        assert (a / "jammer1.csv").read_bytes() == (b / "jammer1.csv").read_bytes()

    def test_seed_changes_the_noise(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "--builtin", "2", "--out", str(a), "--seed", "7"]) == 0
        assert run_cli(["run", "--builtin", "2", "--out", str(b), "--seed", "8"]) == 0
        assert (a / "jammer1.csv").read_bytes() != (b / "jammer1.csv").read_bytes()

    def test_overrides_are_echoed(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out),
                        "--samples", "2048", "--fs", "9e9"]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["n_samples"] == 2048
        assert manifest["config"]["sample_rate_hz"] == 9e9

    def test_existing_directory_is_replaced(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "4", "--out", str(out)]) == 0
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES
        assert read_manifest(out)["verdicts"] == {"band3": False, "band40": False}
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_an_older_jamsim_output_is_replaced(self, tmp_path):
        # An older jamsim echoed each jammer with its own seed, and the seed outside config.
        out = tmp_path / "d"
        out.mkdir()
        (out / "jammer1.csv").write_text("time_s,value_v\n")
        (out / "manifest.json").write_text(json.dumps({
            "tool": "jamsim", "version": "0.1.0", "seed": 42,
            "config": {"n_samples": 4096, "measure_skip_fraction": 0.25,
                       "jammer3": {"gain": 5.0, "seed": 42}, "jammer40": {"gain": 5.0, "seed": 43}},
        }))
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES
        assert read_manifest(out)["verdicts"] == {"band3": False, "band40": False}

    def test_empty_directory_is_filled(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES

    @pytest.mark.parametrize("files", [
        {"notes.txt": "mine"},
        {"manifest.json": '{"name": "a web app"}'},
        {"manifest.json": "not json"},
    ])
    def test_foreign_directory_survives(self, tmp_path, capsys, files):
        out = tmp_path / "u"
        out.mkdir()
        for name, text in files.items():
            (out / name).write_text(text)
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 1
        assert {p.name: p.read_text() for p in out.iterdir()} == files
        assert capsys.readouterr().err.startswith("jamsim: error: --out ")
        assert [p.name for p in tmp_path.iterdir()] == ["u"]

    def test_a_file_added_to_an_earlier_output_directory_survives(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "my_notes.txt").write_text("precious\n")
        assert run_cli(["run", "--builtin", "4", "--out", str(out)]) == 1
        assert (out / "my_notes.txt").read_text() == "precious\n"
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.name in RUN_FILES} == before
        assert f"--out {str(out)!r} ({out}) exists and is not a jamsim" in capsys.readouterr().err

    def test_a_directory_named_like_an_output_file_survives(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        (out / "jammer1.csv").unlink()
        (out / "jammer1.csv").mkdir()
        (out / "jammer1.csv" / "notes.txt").write_text("precious")
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 1
        assert (out / "jammer1.csv" / "notes.txt").read_text() == "precious"

    def test_a_directory_made_while_the_run_computes_survives(self, tmp_path, monkeypatch,
                                                              capsys):
        def make_directory_then_run(*args):
            (tmp_path / "race").mkdir()
            (tmp_path / "race" / "user.txt").write_text("mine")
            return run_scenario(*args)

        run_scenario = cli.run_scenario
        monkeypatch.setattr(cli, "run_scenario", make_directory_then_run)
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", "--builtin", "4", "--out", "race"]) == 1
        assert [p.name for p in (tmp_path / "race").iterdir()] == ["user.txt"]
        assert (tmp_path / "race" / "user.txt").read_text() == "mine"
        assert capsys.readouterr().err.startswith(
            f"jamsim: error: --out 'race' ({tmp_path / 'race'}) exists ")
        assert [p.name for p in tmp_path.iterdir()] == ["race"]

    def test_regular_file_survives(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("mine")
        assert run_cli(["run", "--builtin", "1", "--out", str(target)]) == 1
        assert target.read_text() == "mine"


def scenario_file_from_manifest(manifest: dict) -> str:
    """A scenario file of the settings the manifest echoes: each section's keys in the
    file's order (freq_mhz starts a tone), each non-null value under its own key."""
    scenario, config = manifest["scenario"], manifest["config"]
    sections = {"scenario": [scenario], "tones": scenario["tones"], "sim": [config],
                "trigger": [config["trigger"]], "jammer": [config["jammer"]]}
    lines = []
    for section, entries in sections.items():
        lines += [f"[{section}]", *(f"{key} = {values[key]}" for values in entries
                                    for key in _SECTION_KEYS[section] if values[key] is not None)]
    return "\n".join(lines) + "\n"


class TestManifestEcho:
    """The manifest echoes every setting of the run under its scenario-file key."""

    FLAGS = {"seed": 7, "sample_rate": 9e9, "n_samples": 2048}

    @pytest.mark.parametrize("source", SOURCES)
    def test_the_echo_is_a_scenario_file_of_the_run(self, tmp_path, source):
        if source.startswith("builtin"):
            scenario, config = builtin_scenarios()[int(source[-1]) - 1], PipelineConfig()
        else:
            scenario, config = parse_scenario_file((SCENARIO_DIR / source).read_text())
        out = tmp_path / "d"
        assert run_cli(["run", *SOURCES[source], "--out", str(out), "--seed", "7", "--fs", "9e9",
                        "--samples", "2048"]) == 0
        echoed = parse_scenario_file(scenario_file_from_manifest(read_manifest(out)))
        assert echoed == (scenario, replace(config, **self.FLAGS))

    @pytest.mark.parametrize("source", SOURCES)
    def test_config_is_the_file_sections_each_key_once(self, tmp_path, source):
        assert run_cli(["run", *SOURCES[source], "--out", str(tmp_path / "d")]) == 0
        manifest = read_manifest(tmp_path / "d")
        config = manifest["config"]
        sections = {k: v.keys() for k, v in config.items() if isinstance(v, dict)}
        assert config.keys() - sections == _SECTION_KEYS["sim"].keys()
        assert sections == {s: _SECTION_KEYS[s].keys() for s in ("trigger", "jammer")}
        assert not {"seed", "jammer3", "jammer40"} & manifest.keys()
        assert manifest["measure_skip_fraction"] == MEASURE_SKIP_FRACTION

    def test_every_setting_off_its_default_is_echoed(self, tmp_path):
        text = "\n".join([
            "[scenario]", "name = every-key",
            "[tones]", "freq_mhz = 1747.5", "amplitude_v = 1.25", "phase_rad = 0.5",
            "freq_mhz = 2355", "phase_rad = -1", "amplitude_v = 0.75",
            "[sim]", "sample_rate_hz = 11e9", "n_samples = 2048", "seed = 7", "filter_order = 4",
            "[jammer]", "gain = 4.5", "gaussian_sigma_v = 0.75", "rayleigh_sigma_v = 0.5",
            "[trigger]", "threshold_v = 1.1", "high_v = 6.0", "envelope_window = 7",
        ]) + "\n"
        assert all(f"\n{key} = " in text for keys in _SECTION_KEYS.values() for key in keys)
        (tmp_path / "every.scn").write_text(text)
        assert run_cli(["run", str(tmp_path / "every.scn"), "--out", str(tmp_path / "d")]) == 0
        echoed = parse_scenario_file(scenario_file_from_manifest(read_manifest(tmp_path / "d")))
        assert echoed == parse_scenario_file(text)

    def test_numpy_scalar_settings_echo_as_plain_numbers(self):
        # Stored coerced, numpy scalars echo as the plain numbers, not as "np.float64(4.5)".
        scenario = Scenario("np", (ToneSpec(np.float64(1.2e9), np.float32(1.5)),))
        config = PipelineConfig(sample_rate=np.float64(11e9), n_samples=np.int64(2048),
                                seed=np.uint32(7), gain=np.float64(4.5),
                                gaussian_sigma=np.float64(0.75), rayleigh_sigma=np.int8(1),
                                trigger=TriggerConfig(np.float64(1.1), np.float64(6.0),
                                                      np.int64(7)))
        plain = (Scenario("np", (ToneSpec(1.2e9, 1.5),)),
                 PipelineConfig(sample_rate=11e9, n_samples=2048, seed=7, gain=4.5,
                                gaussian_sigma=0.75, rayleigh_sigma=1,
                                trigger=TriggerConfig(1.1, 6.0, 7)))
        report = run_scenario(Pipeline(plain[1]), plain[0])
        manifest = json.dumps(cli._manifest(scenario, config, report, True))
        assert manifest == json.dumps(cli._manifest(*plain, report, True))
        assert parse_scenario_file(scenario_file_from_manifest(json.loads(manifest))) == plain


class TestSeedResolution:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "123")
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["seed"] == 123

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "123")
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out), "--seed", "5"]) == 0
        assert read_manifest(out)["config"]["seed"] == 5

    def test_file_seed_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "123")
        scn = tmp_path / "s.scn"
        scn.write_text("[tones]\nfreq_mhz = 1200\n\n[sim]\nseed = 9\n")
        out = tmp_path / "d"
        assert run_cli(["run", str(scn), "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["seed"] == 9

    def test_invalid_env_var_is_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "not-a-number")
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "d")]) == 1


class TestUsageErrors:
    def test_no_command(self):
        assert run_cli([]) == 1

    def test_run_needs_exactly_one_source(self, tmp_path):
        assert run_cli(["run", "--out", str(tmp_path / "d")]) == 1
        assert run_cli(["run", "x.scn", "--builtin", "1", "--out", str(tmp_path / "d")]) == 1

    def test_builtin_out_of_range(self, tmp_path):
        assert run_cli(["run", "--builtin", "9", "--out", str(tmp_path / "d")]) == 1

    def test_missing_scenario_file(self, tmp_path):
        assert run_cli(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "d")]) == 1

    def test_missing_out_flag(self):
        assert run_cli(["run", "--builtin", "1"]) == 1

    def test_malformed_scenario_file(self, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text("[tones]\nfreq_mhz = 1200\nwobble = 3\n")
        assert run_cli(["run", str(scn), "--out", str(tmp_path / "d")]) == 1

    def test_response_filter_out_of_range(self, tmp_path):
        assert run_cli(["response", "--filter", "7", "--out", str(tmp_path / "r.csv")]) == 1


class TestInputErrorsFoundWhileRunning:
    """An input only the run can check is still an invalid input: exit 1, not 2."""

    @staticmethod
    def run_and_read_error(argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(argv)
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        return code, err

    def test_above_nyquist_tone_exits_1(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text("[tones]\nfreq_mhz = 6000\n")
        out = tmp_path / "d"
        code, err = self.run_and_read_error(["run", str(scn), "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("jamsim: scenario file error: line 2: tone at ") and "Nyquist" in err
        assert not out.exists()

    def test_tone_above_the_nyquist_of_fs_exits_1(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text("[tones]\nfreq_mhz = 4600\n")  # below Nyquist at the default 10 GS/s
        out = tmp_path / "d"
        code, err = self.run_and_read_error(
            ["run", str(scn), "--out", str(out), "--fs", "9e9"], capsys)
        assert code == 1
        assert err.startswith("jamsim: error: tone at ") and "Nyquist" in err
        assert not out.exists()

    def test_sample_rate_below_band_edges_exits_1(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, err = self.run_and_read_error(
            ["run", "--builtin", "1", "--out", str(out), "--fs", "4e9"], capsys)
        assert code == 1
        assert err.startswith("jamsim: error: band edge ") and "Nyquist" in err
        assert not out.exists()


class TestAtomicity:
    def test_failed_run_leaves_no_output_directory(self, tmp_path, monkeypatch):
        def boom(spectrum, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_spectrum_csv", boom)
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert not any(p.name.startswith(".jamsim-") for p in tmp_path.iterdir())

    def test_failed_run_preserves_previous_output(self, tmp_path, monkeypatch):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def boom(spectrum, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_spectrum_csv", boom)
        assert run_cli(["run", "--builtin", "4", "--out", str(out)]) == 2
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == before

    def test_a_failed_final_move_restores_the_previous_output(self, tmp_path, monkeypatch,
                                                              capsys):
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rename, failed = os.rename, []

        def fail_the_staged_move_once(src, dst):
            if os.path.basename(src) == "new" and not failed:
                failed.append(dst)
                raise OSError("rename failed")
            return rename(src, dst)

        monkeypatch.setattr(cli.os, "rename", fail_the_staged_move_once)
        assert run_cli(["run", "--builtin", "4", "--out", str(out)]) == 2
        assert failed == [str(out)]
        err = capsys.readouterr().err
        assert err.startswith("jamsim: i/o error: ") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_a_failed_run_makes_no_parent_directory(self, tmp_path):
        # The filter design fails at 1e18 S/s (exit 2) inside the run.
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "new" / "sub"),
                        "--fs", "1e18"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_run_keeps_the_parents_that_were_there(self, tmp_path):
        (tmp_path / "old").mkdir()
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "old" / "new" / "sub"),
                        "--fs", "1e18"]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        assert list((tmp_path / "old").iterdir()) == []

    def test_an_out_path_through_a_file_fails_before_the_run(self, tmp_path, monkeypatch,
                                                             capsys):
        (tmp_path / "f.txt").write_text("mine")
        monkeypatch.setattr(cli, "run_scenario", lambda *args: pytest.fail("the run started"))
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "f.txt" / "sub")]) == 2
        assert capsys.readouterr().err.startswith("jamsim: i/o error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]
        assert (tmp_path / "f.txt").read_text() == "mine"

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_parent_exists_while_the_run_computes(self, tmp_path, monkeypatch, fails):
        seen = []

        def look_then_run(*args):
            seen.extend(p.name for p in tmp_path.iterdir())
            if fails:
                raise OSError("disk full")
            return run_scenario(*args)

        monkeypatch.setattr(cli, "run_scenario", look_then_run)
        code = run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "new" / "sub")])
        assert len(seen) == 1 and seen[0].startswith(".jamsim-")  # the staging directory only
        if fails:
            assert code == 2
            assert list(tmp_path.iterdir()) == []
        else:
            assert code == 0
            assert [p.name for p in tmp_path.iterdir()] == ["new"]
            assert {p.name for p in (tmp_path / "new" / "sub").iterdir()} == RUN_FILES


class TestOutSpellings:
    """Every spelling of --out is checked as the path it names, the path that is replaced."""

    @pytest.mark.parametrize("argv", [
        ["run", "--builtin", "1", "--out", ""],
        ["run", "--builtin", "1", "--out", "missing/.."],
        ["response", "--filter", "2", "--out", ""],
        ["response", "--filter", "2", "--out", "missing/.."],
    ])
    def test_a_spelling_of_a_user_directory_is_refused(self, tmp_path, monkeypatch, capsys,
                                                        argv):
        (tmp_path / "notes.txt").write_text("mine")
        monkeypatch.chdir(tmp_path)
        what = "output directory" if argv[0] == "run" else "response CSV"
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (f"jamsim: error: --out {argv[-1]!r} ({tmp_path}) exists "
                                           f"and is not a jamsim {what}; refusing to replace it\n")
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
        assert (tmp_path / "notes.txt").read_text() == "mine"

    #: A sandbox of directories, each holding a user file; the commands run in `START`.
    TREE = ("a", "a/b", "a/b/c", "a/b/c/d", "a/e")
    START = "a/b/c"
    PARTS = ("", ".", "..", "d", "e", "b", "c", "notes.txt", "new", "new2", "out.csv")
    COMMANDS = (["run", "--builtin", "4", "--samples", "64", "--out"],
                ["response", "--filter", "2", "--out"])

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.sampled_from(PARTS), max_size=4), slash=st.booleans(),
           commands=st.permutations(COMMANDS))
    def test_no_spelling_touches_a_file_jamsim_did_not_write(self, parts, slash, commands):
        spelling = "/".join(parts) + ("/" if slash else "")
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.realpath(tmp)
            user = {}
            for d in ("", *self.TREE):
                os.makedirs(os.path.join(root, d), exist_ok=True)
                user[os.path.join(root, d, "notes.txt")] = f"user file in /{d}\n".encode()
            for path, data in user.items():
                Path(path).write_bytes(data)
            os.chdir(os.path.join(root, self.START))
            try:
                # Only paths strictly inside the sandbox, so no run can reach past it.
                assume(os.path.abspath(spelling).startswith(root + os.sep))
                for command in commands:
                    assert run_cli([*command, spelling]) in (0, 1, 2)
                    for path, data in user.items():
                        assert os.path.isfile(path) and Path(path).read_bytes() == data, path
                    assert not [d for _, dirs, _ in os.walk(root) for d in dirs
                                if d.startswith(".jamsim-")]
            finally:
                os.chdir(home)


class TestScenariosCommand:
    def test_lists_four(self, capsys):
        assert run_cli(["scenarios"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"{i}  input{i}")


class TestResponseCommand:
    def test_writes_response_csv(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert run_cli(["response", "--filter", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_hz,magnitude_db,phase_rad"
        assert len(lines) == 1 + 2049
        # The grid point nearest the band centre sits in the passband.
        rows = [line.split(",") for line in lines[1:]]
        nearest = min(rows, key=lambda r: abs(float(r[0]) - 1747.5e6))
        assert float(nearest[1]) > -1.0

    def test_rerun_replaces_its_own_csv(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert run_cli(["response", "--filter", "2", "--out", str(out)]) == 0
        assert run_cli(["response", "--filter", "4", "--out", str(out)]) == 0
        fresh = tmp_path / "fresh.csv"
        assert run_cli(["response", "--filter", "4", "--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("content", ["precious\n", "freq_hz,magnitude_db\n", ""])
    def test_a_foreign_file_is_refused_and_kept(self, tmp_path, capsys, content):
        out = tmp_path / "notes.csv"
        out.write_text(content)
        assert run_cli(["response", "--filter", "2", "--out", str(out)]) == 1
        assert "refusing to replace it" in capsys.readouterr().err
        assert out.read_text() == content
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.csv"]

    def test_a_directory_is_refused_and_kept(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        assert run_cli(["response", "--filter", "2", "--out", str(out)]) == 1
        assert (out / "keep.txt").read_text() == "precious"


class TestHelp:
    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0


class TestLibraryPath:
    def test_run_cli_and_run_scenario_leave_the_collector_alone(self, tmp_path, capsys):
        # only the `jamsim` process entry (`cli.main`) ends its process, with no shutdown
        enabled = gc.isenabled()
        assert run_cli(["run", "--builtin", "4", "--out", str(tmp_path / "d")]) == 0
        run_scenario(Pipeline(PipelineConfig()), builtin_scenarios()[3])
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == enabled
