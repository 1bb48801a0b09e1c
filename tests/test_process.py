"""Properties of a whole jamsim process, each checked in a fresh interpreter.

A jamsim run imports no scipy module, and neither the number of BLAS
threads nor the CPUs the process may use change a byte of its output.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code: str, *args: str, **env_overrides: str) -> str:
    """Run `code` in a fresh interpreter on this checkout's jamsim; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_overrides)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
"""


def test_a_run_imports_no_scipy(tmp_path):
    assert run_python(NO_SCIPY, str(tmp_path)).strip() == "[]"


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
hashes.update({f"run.{name}": digest(buf.samples) for name, buf in report.branch_buffers.items()})
hashes.update({f"run.{name}": digest(gate.levels) for name, gate in report.gates.items()})
hashes["run.rms"] = repr((report.jammer1_rms, report.jammer2_rms))
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
    assert "manifest.json" in default and "filter4" in default and "run.jammer2" in default
    assert single == default
