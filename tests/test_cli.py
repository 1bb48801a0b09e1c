import json
import os
import warnings
from pathlib import Path

import pytest

import jamsim.cli as cli
from jamsim.cli import run_cli

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

    def test_regular_file_survives(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("mine")
        assert run_cli(["run", "--builtin", "1", "--out", str(target)]) == 1
        assert target.read_text() == "mine"


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


class TestHelp:
    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0
