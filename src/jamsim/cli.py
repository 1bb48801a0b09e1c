"""Scenario-driven command line front end.

Commands::

    jamsim run (FILE | --builtin N) --out DIR [--seed S] [--fs HZ]
               [--samples N] [--reproducible]
    jamsim scenarios
    jamsim response --filter K --out FILE

`run` writes each branch's jammer and trigger time series, the input
spectrum and a JSON manifest into DIR, atomically: the directory is
either complete or untouched.  An existing DIR is replaced only if it is
empty or holds nothing but a run's files, a jamsim manifest.json among
them, and an existing `response` FILE only if its first line is the
response CSV header; the check runs again just before the replacement.
The JAMSIM_SEED environment variable overrides the default seed; an
explicit [sim] seed or --seed flag wins over it.

Exit codes: 0 ok; 1 for any invalid input or usage, an `InvalidParameter`
(a `ParseError` also names its scenario-file line); 2 for a failed
simulation or write: any other `JamSimError`, a `MemoryError` or an
`OSError`.  The error's type picks the code, not where it was raised.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import power_spectrum
from .errors import InvalidParameter, JamSimError, ParseError
from .filterbank import BAND_FILTER_SPECS, design_bandpass, frequency_response
from .pipeline import (
    BRANCHES,
    MEASURE_SKIP_FRACTION,
    Pipeline,
    PipelineConfig,
    Scenario,
    ScenarioReport,
    builtin_scenarios,
    run_scenario,
)
from .scenario_io import (RESPONSE_HEADER, _file_values, _write_csv, _write_timeseries,
                          parse_scenario_file, write_spectrum_csv)
from .signal_core import DEFAULT_SAMPLE_RATE, DEFAULT_SEED, check_number

SEED_ENV_VAR = "JAMSIM_SEED"
#: Timestamp placeholder written under --reproducible.
REPRODUCIBLE_TIMESTAMP = "reproducible"

#: What a run records of each branch, named for its number k: the `BranchReport` field
#: each time series file and each manifest `results` entry holds.
_SERIES = {"jammer{k}": "jammer", "trigger{k}": "gate"}
_RESULTS = {"trigger{k}_level_v": "level", "trigger{k}_stable": "stable", "jammer{k}_rms_v": "rms"}
_RUN_OUTPUTS = {
    **{name.format(k=k): name.format(k=k) + ".csv" for name in _SERIES for k in BRANCHES.values()},
    "input_spectrum": "input_spectrum.csv",
    "manifest": "manifest.json",
}


def _per_branch(report: ScenarioReport, table: dict) -> dict:
    """Each `table` entry for each branch k: its name for k, and that branch's field."""
    return {name.format(k=k): getattr(report.branches[branch], field)
            for name, field in table.items() for branch, k in BRANCHES.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameter(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="jamsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="execute one scenario and write its outputs")
    run.add_argument("scenario", nargs="?", help="scenario file path")
    run.add_argument("--builtin", type=int, metavar="N", help="run built-in scenario N (1-4)")
    run.add_argument("--out", required=True, metavar="DIR", help="output directory")
    run.add_argument("--seed", type=int, help="noise seed (wins over file and environment)")
    run.add_argument("--fs", type=float, metavar="HZ", help="override sample rate")
    run.add_argument("--samples", type=int, metavar="N", help="override buffer length")
    run.add_argument("--reproducible", action="store_true",
                     help="write a fixed timestamp placeholder in the manifest")

    sub.add_parser("scenarios", help="list the built-in scenarios")

    resp = sub.add_parser("response", help="dump one detection filter's frequency response")
    resp.add_argument("--filter", type=int, required=True, metavar="K", help="filter id (1-4)")
    resp.add_argument("--out", required=True, metavar="FILE", help="output CSV path")
    return parser


def _ambient_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameter(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _resolve_run(args) -> tuple[Scenario, PipelineConfig]:
    if (args.scenario is None) == (args.builtin is None):
        raise InvalidParameter("run needs exactly one of a scenario file or --builtin N")
    ambient = _ambient_seed()
    if args.builtin is not None:
        builtins = builtin_scenarios()
        scenario = builtins[check_number(args.builtin, "--builtin", 1, len(builtins),
                                         integer=True) - 1]
        config = PipelineConfig(seed=ambient)
    else:
        try:
            with open(args.scenario, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"cannot read scenario file: {exc}") from None
        scenario, config = parse_scenario_file(text, default_seed=ambient)
    flags = {"seed": args.seed, "sample_rate": args.fs, "n_samples": args.samples}
    return scenario, replace(config, **{k: v for k, v in flags.items() if v is not None})


def _manifest(scenario: Scenario, config: PipelineConfig, report: ScenarioReport,
              reproducible: bool) -> dict:
    """The run's settings under their file sections and keys, then what it wrote and measured."""
    created = REPRODUCIBLE_TIMESTAMP if reproducible else (
        datetime.now(timezone.utc).isoformat(timespec="seconds"))
    return {
        "tool": "jamsim",
        "version": __version__,
        "created_at": created,
        "scenario": {**_file_values(scenario, "scenario"),
                     "tones": [_file_values(tone, "tones") for tone in scenario.tones]},
        "config": {**_file_values(config, "sim"),
                   "trigger": _file_values(config.trigger, "trigger"),
                   "jammer": _file_values(config, "jammer")},
        "outputs": {k: v for k, v in _RUN_OUTPUTS.items() if k != "manifest"},
        "measure_skip_fraction": MEASURE_SKIP_FRACTION,
        "results": _per_branch(report, _RESULTS),
        "verdicts": report.verdicts,
    }


def _is_jamsim_output(path: str) -> bool:
    """True if `path` is a directory that is empty, or holds a jamsim manifest and nothing
    but the files a run writes (no directory, even under such a file's name)."""
    try:
        entries = list(os.scandir(path))
        if not entries or any(e.is_dir() or e.name not in _RUN_OUTPUTS.values() for e in entries):
            return not entries  # empty, or holding something no run writes
        with open(os.path.join(path, _RUN_OUTPUTS["manifest"]), "r", encoding="utf-8") as fh:
            return json.load(fh).get("tool") == "jamsim"
    except (OSError, ValueError, AttributeError):  # AttributeError: JSON but not an object
        return False


def _is_response_csv(path: str) -> bool:
    """True if `path` is a file whose first line is the `response` CSV header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readline(len(RESPONSE_HEADER) + 1) == RESPONSE_HEADER + "\n"
    except (OSError, ValueError):  # ValueError: not UTF-8
        return False


@contextlib.contextmanager
def _atomic_output(target: str, is_ours, what: str):
    """Yield a path to write a file or directory at; on success, move it onto `target`.

    `target` is resolved once, lexically (`''` is the current directory, `missing/..` the
    directory it spells), and every step reads that one path.  An existing path that
    `is_ours` rejects is refused, on entry and again just before the move; a replaced
    directory is moved aside until the new one is in place.  The path is staged in the
    deepest directory that exists on the way to it, and the missing parents are made only
    for the move, so a failed run leaves no directory behind.
    """
    path = os.path.abspath(target)

    def refuse_foreign():
        if os.path.lexists(path) and not is_ours(path):
            raise InvalidParameter(f"--out {target!r} ({path}) exists and is not a jamsim "
                                   f"{what}; refusing to replace it")

    refuse_foreign()
    base = os.path.dirname(path)
    while not os.path.lexists(base):  # a file here fails the staging, before the run
        base = os.path.dirname(base)
    tmp = tempfile.mkdtemp(prefix=".jamsim-", dir=base)
    staged = os.path.join(tmp, "new")
    try:
        yield staged
        refuse_foreign()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.isdir(staged) and os.path.lexists(path):
            old = os.path.join(tmp, "old")
            os.rename(path, old)
            try:
                os.rename(staged, path)
            except OSError:
                os.rename(old, path)
                raise
        else:
            os.replace(staged, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _cmd_run(args) -> int:
    scenario, config = _resolve_run(args)
    with _atomic_output(args.out, _is_jamsim_output, "output directory") as out_dir:
        report = run_scenario(Pipeline(config), scenario)
        manifest = _manifest(scenario, config, report, args.reproducible)
        try:
            manifest_text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:  # inf or nan, which strict JSON parsers reject
            raise JamSimError(f"manifest not written: {exc}") from None
        os.mkdir(out_dir)
        _write_timeseries({os.path.join(out_dir, _RUN_OUTPUTS[name]): series
                           for name, series in _per_branch(report, _SERIES).items()})
        write_spectrum_csv(power_spectrum(report.input),
                           os.path.join(out_dir, _RUN_OUTPUTS["input_spectrum"]))
        with open(os.path.join(out_dir, _RUN_OUTPUTS["manifest"]), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(manifest_text)
    print(", ".join(f"{band}: {'JAMMING' if jams else 'idle'}"
                    for band, jams in report.verdicts.items()))
    return 0


def _cmd_scenarios() -> int:
    for i, scenario in enumerate(builtin_scenarios(), start=1):
        tones = " ".join(f"{t.frequency / 1e6:g}" for t in scenario.tones)
        print(f"{i}  {scenario.name}  tones_mhz: {tones}")
    return 0


def _cmd_response(args) -> int:
    k = check_number(args.filter, "--filter", 1, len(BAND_FILTER_SPECS), integer=True)
    stages = design_bandpass(BAND_FILTER_SPECS[k - 1], DEFAULT_SAMPLE_RATE)
    freqs = np.linspace(0.0, stages.sample_rate / 2.0, 2049)
    mag_db, phase = frequency_response(stages, freqs)
    with _atomic_output(args.out, _is_response_csv, "response CSV") as path:
        _write_csv({path: (freqs, mag_db, phase)}, RESPONSE_HEADER)
    return 0


def run_cli(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "scenarios":
            return _cmd_scenarios()
        if args.command == "response":
            return _cmd_response(args)
        raise InvalidParameter("missing command (run, scenarios, response)")
    except ParseError as exc:
        print(f"jamsim: scenario file error: {exc}", file=sys.stderr)
        return 1
    except InvalidParameter as exc:
        print(f"jamsim: error: {exc}", file=sys.stderr)
        return 1
    except (JamSimError, MemoryError) as exc:  # MemoryError: a buffer too large to allocate
        print(f"jamsim: simulation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"jamsim: i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    """The `jamsim` command: `run_cli` on the process's arguments, then exit with its code.

    Standard output is flushed here, so a verdict line that cannot be written exits 2 with
    one `jamsim: i/o error` line; the stream then points at os.devnull, so the flush at
    exit cannot fail again.  `gc.freeze()` spares shutdown's collector passes the ~21k
    objects numpy and jamsim leave tracked, 15-20 ms of an idle run; the exit frees them
    anyway.  `run_cli` does neither: a test, a benchmark or a library caller goes on
    running in its process, where a frozen heap would never be collected.
    """
    code = run_cli()
    try:
        if sys.stdout is not None:  # None if the process started without one
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            print(f"jamsim: i/o error: {exc}", file=sys.stderr)
            code = 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
