"""Scenario-driven command line front end.

Commands::

    jamsim run (FILE | --builtin N) --out DIR [--seed S] [--fs HZ]
               [--samples N] [--reproducible]
    jamsim scenarios
    jamsim response --filter K --out FILE

`run` writes jammer1/jammer2/trigger1/trigger2 time series, the input
spectrum and a JSON manifest into DIR, atomically: the directory is
either complete or untouched.  An existing DIR is replaced only if it is
empty or holds a jamsim manifest.json, and an existing `response` FILE
only if its first line is the response CSV header.  The JAMSIM_SEED
environment variable overrides the default seed; an explicit [sim] seed
or --seed flag wins over it.

Exit codes: 0 ok; 1 for any invalid input or usage, an `InvalidParameter`
(a `ParseError` also names its scenario-file line); 2 for a failed
simulation or write: any other `JamSimError`, a `MemoryError` or an
`OSError`.  The error's type picks the code, not where it was raised.
"""

from __future__ import annotations

import argparse
import contextlib
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
    PipelineConfig,
    Scenario,
    ScenarioReport,
    build_pipeline,
    builtin_scenarios,
    run_scenario,
)
from .scenario_io import _write_csv, parse_scenario_file, write_spectrum_csv, write_timeseries_csv
from .signal_core import DEFAULT_SAMPLE_RATE, DEFAULT_SEED, check_number

SEED_ENV_VAR = "JAMSIM_SEED"
#: Timestamp placeholder written under --reproducible.
REPRODUCIBLE_TIMESTAMP = "reproducible"

_RUN_OUTPUTS = {
    "jammer1": "jammer1.csv",
    "jammer2": "jammer2.csv",
    "trigger1": "trigger1.csv",
    "trigger2": "trigger2.csv",
    "input_spectrum": "input_spectrum.csv",
    "manifest": "manifest.json",
}
_RESPONSE_HEADER = "freq_hz,magnitude_db,phase_rad"


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
            with open(args.scenario, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"cannot read scenario file: {exc}") from None
        scenario, config = parse_scenario_file(text, default_seed=ambient)
    flags = {"seed": args.seed, "sample_rate": args.fs, "n_samples": args.samples}
    return scenario, replace(config, **{k: v for k, v in flags.items() if v is not None})


def _manifest(scenario: Scenario, config: PipelineConfig, report: ScenarioReport,
              reproducible: bool) -> dict:
    def noise_echo(jcfg):
        return {
            "gain": jcfg.gain,
            "gaussian_sigma_v": jcfg.noise.gaussian_sigma,
            "rayleigh_sigma_v": jcfg.noise.rayleigh_sigma,
            "seed": jcfg.noise.seed,
        }

    created = REPRODUCIBLE_TIMESTAMP if reproducible else (
        datetime.now(timezone.utc).isoformat(timespec="seconds"))
    return {
        "tool": "jamsim",
        "version": __version__,
        "created_at": created,
        "seed": config.seed,
        "scenario": {
            "name": scenario.name,
            "tones": [
                {"freq_mhz": t.frequency / 1e6, "amplitude_v": t.amplitude, "phase_rad": t.phase}
                for t in scenario.tones
            ],
        },
        "config": {
            "sample_rate_hz": config.sample_rate,
            "n_samples": config.n_samples,
            "filter_order": config.filter_order,
            "measure_skip_fraction": config.measure_skip_fraction,
            "trigger": {
                "threshold_v": config.trigger.threshold,
                "high_v": config.trigger.high_level,
                "envelope_window": config.trigger.envelope_window,
            },
            "jammer3": noise_echo(config.jammer3),
            "jammer40": noise_echo(config.jammer40),
        },
        "outputs": {k: v for k, v in _RUN_OUTPUTS.items() if k != "manifest"},
        "results": {
            "trigger1_level_v": report.trigger1_level,
            "trigger2_level_v": report.trigger2_level,
            "trigger1_stable": report.trigger1_stable,
            "trigger2_stable": report.trigger2_stable,
            "jammer1_rms_v": report.jammer1_rms,
            "jammer2_rms_v": report.jammer2_rms,
        },
        "verdicts": dict(report.verdicts),
    }


def _is_jamsim_output(path: str) -> bool:
    """True if `path` is a directory that is empty or holds a jamsim manifest."""
    try:
        if not os.listdir(path):
            return True
        with open(os.path.join(path, _RUN_OUTPUTS["manifest"]), "r", encoding="utf-8") as fh:
            return json.load(fh).get("tool") == "jamsim"
    except (OSError, ValueError, AttributeError):  # AttributeError: JSON but not an object
        return False


def _is_response_csv(path: str) -> bool:
    """True if `path` is a file whose first line is the `response` CSV header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readline(len(_RESPONSE_HEADER) + 1) == _RESPONSE_HEADER + "\n"
    except (OSError, ValueError):  # ValueError: not UTF-8
        return False


def _refuse_foreign(path: str, is_ours, what: str) -> None:
    """InvalidParameter if `path` exists and `is_ours` says jamsim did not write it."""
    if os.path.lexists(path) and not is_ours(path):
        raise InvalidParameter(f"--out {path} exists and is not a jamsim {what}; "
                               "refusing to replace it")


@contextlib.contextmanager
def _atomic_output(target: str):
    """Yield a path to write a file or directory at; on success, move it onto `target`.

    A replaced directory is moved aside until the new one is in place.
    """
    target = os.path.abspath(target)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".jamsim-", dir=os.path.dirname(target))
    staged = os.path.join(tmp, "new")
    try:
        yield staged
        if os.path.isdir(staged) and os.path.lexists(target):
            old = os.path.join(tmp, "old")
            os.rename(target, old)
            try:
                os.rename(staged, target)
            except OSError:
                os.rename(old, target)
                raise
        else:
            os.replace(staged, target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _cmd_run(args) -> int:
    scenario, config = _resolve_run(args)
    _refuse_foreign(args.out, _is_jamsim_output, "output directory")
    report = run_scenario(build_pipeline(config), scenario)
    manifest = _manifest(scenario, config, report, args.reproducible)
    try:
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # inf or nan, which strict JSON parsers reject
        raise JamSimError(f"manifest not written: {exc}") from None
    with _atomic_output(args.out) as out_dir:
        os.mkdir(out_dir)
        for name in ("jammer1", "jammer2"):
            write_timeseries_csv(report.branch_buffers[name],
                                 os.path.join(out_dir, _RUN_OUTPUTS[name]))
        for name in ("trigger1", "trigger2"):
            write_timeseries_csv(report.gates[name].to_buffer(),
                                 os.path.join(out_dir, _RUN_OUTPUTS[name]))
        write_spectrum_csv(power_spectrum(report.branch_buffers["input"]),
                           os.path.join(out_dir, _RUN_OUTPUTS["input_spectrum"]))
        with open(os.path.join(out_dir, _RUN_OUTPUTS["manifest"]), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(manifest_text)
    print(", ".join(f"{band}: {'JAMMING' if report.verdicts[band] else 'idle'}"
                    for band in ("band3", "band40")))
    return 0


def _cmd_scenarios() -> int:
    for i, scenario in enumerate(builtin_scenarios(), start=1):
        tones = " ".join(f"{t.frequency / 1e6:g}" for t in scenario.tones)
        print(f"{i}  {scenario.name}  tones_mhz: {tones}")
    return 0


def _cmd_response(args) -> int:
    k = check_number(args.filter, "--filter", 1, len(BAND_FILTER_SPECS), integer=True)
    _refuse_foreign(args.out, _is_response_csv, "response CSV")
    stages = design_bandpass(BAND_FILTER_SPECS[k - 1], DEFAULT_SAMPLE_RATE)
    freqs = np.linspace(0.0, stages.sample_rate / 2.0, 2049)
    mag_db, phase = frequency_response(stages, freqs)
    with _atomic_output(args.out) as path:
        _write_csv(path, _RESPONSE_HEADER, freqs, mag_db, phase)
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
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
