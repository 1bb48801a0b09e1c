"""The benchmark's output checks must reject wrong outputs, not only pass right ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each test takes a real `jamsim run` output, confirms the checks accept
it, then corrupts one thing and asserts the checks reject it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.signal import sosfreqz

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import scenarios  # noqa: E402
from jamsim.cli import run_cli  # noqa: E402

N = 4096
SEED = 7


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One checked run directory per truth-table cell, with its stdout."""
    base = tmp_path_factory.mktemp("runs")
    out = {}
    for path, gen in scenarios.write_cells(str(base), SEED):
        run_dir = str(base / gen.cell)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run_cli(["run", path, "--out", run_dir, "--reproducible"]) == 0
        checks.check_run_dir(run_dir, gen, N, buf.getvalue())
        out[gen.cell] = (run_dir, gen, buf.getvalue())
    return out


@pytest.mark.parametrize("filter_name", ["uplink", "downlink", "band40"])
def test_oracle_response_matches_sosfreqz(filter_name):
    freqs = np.linspace(1e6, scenarios.SAMPLE_RATE / 2 - 1e6, 997)
    _, ref = sosfreqz(scenarios._SOS[filter_name], worN=freqs, fs=scenarios.SAMPLE_RATE)
    np.testing.assert_allclose(scenarios.response(filter_name, freqs), ref, rtol=1e-12, atol=1e-15)


def _copy(runs, cell, tmp_path):
    run_dir, gen, stdout = runs[cell]
    dst = str(tmp_path / cell)
    shutil.copytree(run_dir, dst)
    return dst, gen, stdout


def _edit_csv(path, row, value):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    first = lines[row + 1].split(",")[0]
    lines[row + 1] = f"{first},{value}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def test_wrong_verdict_in_stdout_is_rejected(runs):
    run_dir, gen, stdout = runs["band3"]
    with pytest.raises(checks.CheckError, match="band plan expects"):
        checks.check_run_dir(run_dir, gen, N, stdout.replace("band40: idle", "band40: JAMMING"))


def test_wrong_verdict_in_manifest_is_rejected(runs, tmp_path):
    run_dir, gen, stdout = _copy(runs, "none", tmp_path)
    path = os.path.join(run_dir, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["verdicts"]["band3"] = True
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(checks.CheckError, match="verdicts"):
        checks.check_run_dir(run_dir, gen, N, stdout)


def test_nonzero_idle_sample_is_rejected(runs, tmp_path):
    run_dir, gen, stdout = _copy(runs, "band3", tmp_path)  # jammer2 is idle throughout
    _edit_csv(os.path.join(run_dir, "jammer2.csv"), 2000, "1.00000000e-06")
    with pytest.raises(checks.CheckError, match="where its gate is low"):
        checks.check_run_dir(run_dir, gen, N, stdout)


def test_gate_level_other_than_0_or_5_is_rejected(runs, tmp_path):
    run_dir, gen, stdout = _copy(runs, "both", tmp_path)
    _edit_csv(os.path.join(run_dir, "trigger1.csv"), 3000, "4.99999999e+00")
    with pytest.raises(checks.CheckError, match="level other than"):
        checks.check_run_dir(run_dir, gen, N, stdout)


@pytest.mark.parametrize("pick", ["peak", "quiet"])
def test_corrupted_spectrum_row_is_rejected(runs, tmp_path, pick):
    run_dir, gen, stdout = _copy(runs, "both", tmp_path)
    path = os.path.join(run_dir, "input_spectrum.csv")
    power_db = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
    # The peak row breaks Parseval; a row 80 dB down only the per-bin comparison.
    target = power_db.max() - (0.0 if pick == "peak" else 80.0)
    row = int(np.argmin(np.abs(power_db - target)))
    _edit_csv(path, row, f"{power_db[row] + 3.0:.8e}")
    with pytest.raises(checks.CheckError, match="Parseval" if pick == "peak" else "spectrum bin"):
        checks.check_run_dir(run_dir, gen, N, stdout)


def test_missing_row_is_rejected(runs, tmp_path):
    run_dir, gen, stdout = _copy(runs, "none", tmp_path)
    path = os.path.join(run_dir, "jammer1.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_run_dir(run_dir, gen, N, stdout)


def _report(run_dir):
    """A ScenarioReport look-alike rebuilt from a run directory."""
    def col(name):
        return np.loadtxt(os.path.join(run_dir, f"{name}.csv"), delimiter=",", skiprows=1)[:, 1]

    with open(os.path.join(run_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return SimpleNamespace(
        verdicts=dict(manifest["verdicts"]),
        gates={t: SimpleNamespace(levels=col(t)) for t in ("trigger1", "trigger2")},
        branch_buffers={j: SimpleNamespace(samples=col(j)) for j in ("jammer1", "jammer2")},
        jammer1_rms=manifest["results"]["jammer1_rms_v"],
        jammer2_rms=manifest["results"]["jammer2_rms_v"],
    )


def test_report_checks_reject_wrong_verdict_and_power(runs):
    run_dir, gen, _ = runs["both"]
    report = _report(run_dir)
    checks.check_report(gen, N, report)

    report.verdicts["band40"] = False
    with pytest.raises(checks.CheckError, match="band plan"):
        checks.check_report(gen, N, report)

    report = _report(run_dir)
    samples = report.branch_buffers["jammer1"].samples
    report.branch_buffers["jammer1"].samples = samples * 1.05
    report.jammer1_rms *= 1.05
    with pytest.raises(checks.CheckError, match="oracle predicts"):
        checks.check_report(gen, N, report)
