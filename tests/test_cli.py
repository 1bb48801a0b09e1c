import json
import os
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import jamsim.cli as cli
from jamsim.cli import run_cli
from jamsim.pipeline import PipelineConfig, builtin_scenarios
from jamsim.scenario_io import parse_scenario_file

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

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

    def test_scenario_file_run(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(["run", str(SCENARIO_DIR / "input2.scn"), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "band3: JAMMING, band40: idle"

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
        assert f"--out {out} exists and is not a jamsim" in capsys.readouterr().err

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
        assert capsys.readouterr().err.startswith("jamsim: error: --out race exists ")
        assert [p.name for p in tmp_path.iterdir()] == ["race"]

    def test_regular_file_survives(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("mine")
        assert run_cli(["run", "--builtin", "1", "--out", str(target)]) == 1
        assert target.read_text() == "mine"


def scenario_file_from_manifest(manifest: dict) -> str:
    """A scenario file of the settings the manifest echoes under the file's keys."""
    config = manifest["config"]
    sections = {
        "sim": {**{k: v for k, v in config.items()
                   if not isinstance(v, dict) and k != "measure_skip_fraction"},
                "seed": manifest["seed"]},
        "jammer": {k: v for k, v in config["jammer3"].items() if k != "seed"},
        "trigger": {k: v for k, v in config["trigger"].items() if v is not None},
    }
    lines = ["[scenario]", f"name = {manifest['scenario']['name']}", "[tones]"]
    for tone in manifest["scenario"]["tones"]:  # freq_mhz starts a tone
        lines += [f"{k} = {v!r}" for k, v in {"freq_mhz": tone["freq_mhz"], **tone}.items()]
    for section, values in sections.items():
        lines += [f"[{section}]", *(f"{k} = {v!r}" for k, v in values.items())]
    return "\n".join(lines) + "\n"


class TestManifestEcho:
    """The manifest echoes every setting of the run under its scenario-file key."""

    FLAGS = {"seed": 7, "sample_rate": 9e9, "n_samples": 2048}

    @pytest.mark.parametrize("source", [f"builtin{i}" for i in range(1, 5)]
                             + [f"input{i}.scn" for i in range(1, 5)])
    def test_the_echo_is_a_scenario_file_of_the_run(self, tmp_path, source):
        if source.startswith("builtin"):
            argv = ["--builtin", source[-1]]
            scenario, config = builtin_scenarios()[int(source[-1]) - 1], PipelineConfig()
        else:
            argv = [str(SCENARIO_DIR / source)]
            scenario, config = parse_scenario_file((SCENARIO_DIR / source).read_text())
        out = tmp_path / "d"
        assert run_cli(["run", *argv, "--out", str(out), "--seed", "7", "--fs", "9e9",
                        "--samples", "2048"]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["jammer40"] == {**manifest["config"]["jammer3"], "seed": 8}
        echoed = parse_scenario_file(scenario_file_from_manifest(manifest))
        assert echoed == (scenario, replace(config, **self.FLAGS))


class TestSeedResolution:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "123")
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out)]) == 0
        assert read_manifest(out)["seed"] == 123

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "123")
        out = tmp_path / "d"
        assert run_cli(["run", "--builtin", "1", "--out", str(out), "--seed", "5"]) == 0
        assert read_manifest(out)["seed"] == 5

    def test_file_seed_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAMSIM_SEED", "123")
        scn = tmp_path / "s.scn"
        scn.write_text("[tones]\nfreq_mhz = 1200\n\n[sim]\nseed = 9\n")
        out = tmp_path / "d"
        assert run_cli(["run", str(scn), "--out", str(out)]) == 0
        assert read_manifest(out)["seed"] == 9

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

    def test_a_failed_run_removes_the_parents_it_made(self, tmp_path):
        # The filter design fails at 1e18 S/s (exit 2) after the parents of --out are made.
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "new" / "sub"),
                        "--fs", "1e18"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_run_keeps_the_parents_that_were_there(self, tmp_path):
        (tmp_path / "old").mkdir()
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "old" / "new" / "sub"),
                        "--fs", "1e18"]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        assert list((tmp_path / "old").iterdir()) == []

    def test_a_parent_that_gains_a_file_during_a_failed_run_stays(self, tmp_path, monkeypatch):
        def add_file_then_fail(*args):
            (tmp_path / "new" / "user.txt").write_text("mine")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "run_scenario", add_file_then_fail)
        assert run_cli(["run", "--builtin", "1", "--out", str(tmp_path / "new" / "sub")]) == 2
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["user.txt"]


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
