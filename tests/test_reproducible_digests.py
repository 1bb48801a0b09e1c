"""Every `--reproducible` byte, pinned.

`tests/data/reproducible_digests.json` holds the sha256 of each file and the
verdict line of 24 `jamsim run --reproducible` runs (builtins 1-4 and
`scenarios/input1..4.scn`, each with no flags, with `--seed 7` and with
`--fs 9e9 --samples 2048`), of the CSV of `jamsim response --filter 1..4`,
and of every `run_scenario` buffer and gate of builtins 1-4 at lengths on both
sides of one block and of the helper-thread split, with the settled outcome.
The CSVs keep 9 significant digits, so the raw buffers pin the last bit.
Next to them it records what the bytes depend on: the numpy version, the
OpenBLAS kernel, numpy's enabled SIMD features, the C library and the machine.
The digests are compared only on a platform with that fingerprint; elsewhere
the test skips and names what differs.

After a deliberate byte change, regenerate the fixture on the pinned platform:
``PYTHONPATH=src python tests/test_reproducible_digests.py``.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from jamsim.cli import SEED_ENV_VAR, run_cli
from jamsim.pipeline import (BRANCHES, Pipeline, PipelineConfig, builtin_scenarios,
                             run_scenario)

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "reproducible_digests.json"
SOURCES = {**{f"builtin{i}": ["--builtin", str(i)] for i in range(1, 5)},
           **{f"input{i}.scn": [str(ROOT / "scenarios" / f"input{i}.scn")] for i in range(1, 5)}}
FLAGS = ["", "--seed 7", "--fs 9e9 --samples 2048"]
LENGTHS = [63, 4097, 2**17 + 1]


def openblas_core():
    """The kernel numpy's bundled OpenBLAS chose (such as "SkylakeX"), or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def fingerprint() -> dict:
    """What the bytes of a run depend on, beyond jamsim's own code."""
    return {
        "numpy": np.__version__,
        "openblas_core": openblas_core(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
        "libc": list(platform.libc_ver()),
        "machine": platform.machine(),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workdir: Path) -> dict:
    """Each run's verdict line and file digests, each response CSV's digest, and each
    `run_scenario` buffer's digest with its outcome."""
    result = {}
    for name, source in SOURCES.items():
        for flags in FLAGS:
            out = workdir / f"{name} {flags}".strip().replace(" ", "_")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = run_cli(["run", *source, *flags.split(), "--out", str(out),
                                "--reproducible"])
            assert code == 0, f"{name} {flags}"
            result[f"run {name} {flags}".strip()] = {
                "verdict": printed.getvalue(),
                "files": {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())},
            }
    for k in range(1, 5):
        out = workdir / f"response{k}.csv"
        assert run_cli(["response", "--filter", str(k), "--out", str(out)]) == 0
        result[f"response --filter {k}"] = sha256(out.read_bytes())
    for n in LENGTHS:
        pipeline = Pipeline(PipelineConfig(n_samples=n))
        for i, scenario in enumerate(builtin_scenarios(), start=1):
            report = run_scenario(pipeline, scenario)
            buffers = {"input": report.input, **report.rows}
            for name, k in BRANCHES.items():
                branch = report.branches[name]
                buffers.update({f"jammer{k}": branch.jammer, f"trigger{k}": branch.gate})
            outcome = tuple(getattr(branch, field) for field in ("level", "stable", "rms")
                            for branch in report.branches.values())
            result[f"run_scenario builtin{i} n={n}"] = {
                **{name: sha256(buf.samples.tobytes()) for name, buf in buffers.items()},
                "outcome": repr((*outcome, report.verdicts)),
            }
    return result


def test_reproducible_output_has_the_pinned_digests(tmp_path, monkeypatch):
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    here = fingerprint()
    differs = sorted(key for key in here if here[key] != pinned["fingerprint"].get(key))
    if differs:
        pytest.skip(f"digests pinned on another platform: {', '.join(differs)} differ")
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert digests(tmp_path) == pinned["digests"]


if __name__ == "__main__":
    os.environ.pop(SEED_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        fixture = {"fingerprint": fingerprint(), "digests": digests(Path(tmp))}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
