"""Properties of a whole jamsim process, each checked in a fresh interpreter.

The `jamsim` entry point behaves as `run_cli` does, exit codes and messages
included, even when its standard output cannot be written.  A jamsim run
imports neither scipy nor `numpy.ma`, and neither the number of BLAS threads
nor the CPUs the process may use change a byte of its output.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jamsim.cli import run_cli

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def process_env(**overrides: str | None) -> dict:
    """This process's environment on this checkout's jamsim; an override of None unsets."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(overrides)
    return {k: v for k, v in env.items() if v is not None}


def run_python(code: str, *args: str, **env_overrides: str) -> str:
    """Run `code` in a fresh interpreter on this checkout's jamsim; its stdout."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=process_env(**env_overrides),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_jamsim(*args: str) -> subprocess.CompletedProcess:
    """Run `python -m jamsim.cli ARGS`, the `jamsim` command, to completion."""
    return subprocess.run([sys.executable, "-m", "jamsim.cli", *args], env=process_env(),
                          capture_output=True, text=True, timeout=120)


class TestEntryPoint:
    def test_a_run_matches_an_in_process_run(self, tmp_path, capsys):
        done = run_jamsim("run", "--builtin", "4", "--out", str(tmp_path / "spawned"),
                          "--reproducible")
        assert (done.returncode, done.stderr) == (0, "")
        assert run_cli(["run", "--builtin", "4", "--out", str(tmp_path / "in"),
                        "--reproducible"]) == 0
        assert done.stdout == capsys.readouterr().out == "band3: JAMMING, band40: JAMMING\n"
        spawned, in_process = tmp_path / "spawned", tmp_path / "in"
        names = sorted(p.name for p in in_process.iterdir())
        assert sorted(p.name for p in spawned.iterdir()) == names
        for name in names:
            assert (spawned / name).read_bytes() == (in_process / name).read_bytes(), name

    def test_invalid_input_exits_1(self, tmp_path):
        done = run_jamsim("run", "--builtin", "9", "--out", str(tmp_path / "d"))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "jamsim: error: --builtin must be >= 1 and <= 4, got 9\n"
        assert not (tmp_path / "d").exists()

    def test_a_failed_simulation_exits_2_and_writes_nothing(self, tmp_path):
        done = run_jamsim("run", "--builtin", "4", "--samples", "64", "--fs", "1e300",
                          "--out", str(tmp_path / "d"))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("jamsim: simulation error: ")
        assert done.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_an_unwritable_verdict_exits_2_with_one_message(self, tmp_path, unbuffered):
        child = subprocess.Popen(
            [sys.executable, "-m", "jamsim.cli", "run", "--builtin", "1", "--out",
             str(tmp_path / "d")], env=process_env(PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()  # before the child can print its verdict
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 2
        assert stderr.startswith("jamsim: i/o error: ")
        assert stderr.count("\n") == 1


NO_SCIPY = """
import contextlib, io, os, sys
import jamsim
from jamsim.cli import run_cli
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert run_cli(["run", "--builtin", "4", "--out", os.path.join(out, "run"),
                    "--reproducible"]) == 0
    assert run_cli(["response", "--filter", "2", "--out", os.path.join(out, "r.csv")]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("numpy.ma" in sys.modules)
"""


def test_a_run_imports_no_scipy_and_no_numpy_ma(tmp_path):
    # numpy.ma costs a fresh process ~15 ms of import; np.unique, for one, imports it
    assert run_python(NO_SCIPY, str(tmp_path)).split("\n") == ["[]", "False", ""]


#: Hashes of each band filter's output for a 2**20 + 5 sample input and of
#: every buffer and gate of `run_scenario` on builtin 4 at that length (long
#: enough that each stage splits its samples with a helper thread), then of
#: every file of a reproducible `jamsim run --builtin 4`.  With "pin" the
#: process first confines itself to one CPU, where the OS allows it, before
#: numpy starts the BLAS.
OUTPUT_HASHES = """
import contextlib, hashlib, io, json, os, sys
if sys.argv[2] == "pin" and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
import jamsim
from jamsim.cli import run_cli
def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()
pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config())
x = jamsim.SignalBuffer(np.random.default_rng(3).uniform(-2.0, 2.0, 2**20 + 5), 10e9)
hashes = {f"filter{k}": digest(jamsim.apply_filter(stages, x).samples)
          for k, stages in enumerate(pipeline.filters, 1)}
long_run = jamsim.build_pipeline(jamsim.default_pipeline_config(n_samples=2**20 + 5))
report = jamsim.run_scenario(long_run, jamsim.builtin_scenarios()[3])
hashes.update({f"run.{name}": digest(buf.samples)
               for name, buf in {"input": report.input, **report.rows}.items()})
for name, branch in report.branches.items():
    hashes.update({f"run.{name}.gate": digest(branch.gate.samples),
                   f"run.{name}.jammer": digest(branch.jammer.samples),
                   f"run.{name}.rms": repr(branch.rms)})
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert run_cli(["run", "--builtin", "4", "--out", out, "--reproducible"]) == 0
for name in sorted(os.listdir(out)):
    with open(os.path.join(out, name), "rb") as fh:
        hashes[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(hashes))
"""


def test_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    default = json.loads(run_python(OUTPUT_HASHES, str(tmp_path / "default"), "free"))
    single = json.loads(run_python(OUTPUT_HASHES, str(tmp_path / "single"), "pin",
                                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    assert "manifest.json" in default and "filter4" in default and "run.band40.jammer" in default
    assert single == default
