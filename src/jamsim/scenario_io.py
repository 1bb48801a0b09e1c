"""Scenario file format plus the CSV serializers.

A scenario file is a line-based key = value document::

    [scenario]
    name = lab-bench

    [tones]                 # one entry per tone; freq_mhz starts a tone
    freq_mhz = 1747.5
    amplitude_v = 2.0       # optional, default 2.0
    phase_rad = 0.0         # optional, default 0.0

    [sim]                   # all optional
    sample_rate_hz = 1e10
    n_samples = 4096
    seed = 42
    filter_order = 6

    [jammer]                # applies to both jammers; optional
    gain = 5.0
    gaussian_sigma_v = 1.0
    rayleigh_sigma_v = 1.0

    [trigger]               # optional
    threshold_v = 1.0
    high_v = 5.0
    envelope_window = 6

Blank lines and ``#`` comments are ignored.  Unknown sections or keys
and out-of-range values fail fast with the offending key's line number.
The [sim] seed feeds the Band 3 jammer; the Band 40 jammer takes seed+1.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .analysis import Spectrum
from .errors import InvalidParameter, InvalidValue, ParseError, UnknownKey
from .pipeline import PipelineConfig, Scenario
from .signal_core import DEFAULT_SEED, SignalBuffer, ToneSpec
from .trigger import TriggerConfig

#: Each section's keys and the ToneSpec/PipelineConfig/TriggerConfig field each sets.
_SECTION_KEYS = {
    "scenario": {"name": "name"},
    "tones": {"freq_mhz": "frequency", "amplitude_v": "amplitude", "phase_rad": "phase"},
    "sim": {"sample_rate_hz": "sample_rate", "n_samples": "n_samples", "seed": "seed",
            "filter_order": "filter_order"},
    "jammer": {"gain": "gain", "gaussian_sigma_v": "gaussian_sigma",
               "rayleigh_sigma_v": "rayleigh_sigma"},
    "trigger": {"threshold_v": "threshold", "high_v": "high_level",
                "envelope_window": "envelope_window"},
}
_INT_KEYS = {"n_samples", "seed", "filter_order", "envelope_window"}


def _parse_number(key: str, value: str, line: int) -> float | int:
    try:
        if key in _INT_KEYS:
            return int(value, 0)
        out = float(value)
    except ValueError:
        raise InvalidValue(f"cannot parse {key} value {value!r}", line) from None
    if not math.isfinite(out):
        raise InvalidValue(f"{key} must be finite, got {value!r}", line)
    return out


@contextmanager
def _blame(lines: dict[str, int]):
    """Re-raise an InvalidParameter at the last line that set a field it names."""
    try:
        yield
    except InvalidParameter as exc:
        hit = [lines[f] for f in exc.fields if f in lines]
        if not hit:
            raise
        raise InvalidValue(str(exc), max(hit)) from None


def parse_scenario_file(text: str, default_seed: int = DEFAULT_SEED
                        ) -> tuple[Scenario, PipelineConfig]:
    """Parse a scenario document into a fully resolved (Scenario, PipelineConfig)."""
    name = "scenario"
    tones: list[dict[str, float]] = []
    settings: dict[str, dict[str, float | int]] = {"sim": {}, "jammer": {}, "trigger": {}}
    lines: dict[str, int] = {}  # field -> line that last set it
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                raise UnknownKey(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ParseError("key appears before any [section] header", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SECTION_KEYS[section]:
            raise UnknownKey(f"unknown key {key!r} in section [{section}]", lineno)
        if not value:
            raise InvalidValue(f"empty value for {key!r}", lineno)
        if section == "scenario":
            name = value
            continue

        if section == "tones" and key == "freq_mhz":
            tones.append({})
        elif section == "tones" and not tones:
            raise ParseError(f"{key} appears before any freq_mhz", lineno)
        target = tones[-1] if section == "tones" else settings[section]
        field = _SECTION_KEYS[section][key]
        if field in target:
            raise InvalidValue(f"duplicate key {key!r}", lineno)
        number = _parse_number(key, value, lineno)
        target[field] = number * 1e6 if key == "freq_mhz" else number
        lines[field] = lineno
        if section == "tones":  # checked now: the next tone reuses these line slots
            with _blame(lines):
                ToneSpec(**target)

    with _blame(lines):
        config = PipelineConfig(**{"seed": default_seed, **settings["sim"], **settings["jammer"]},
                                trigger=TriggerConfig(**settings["trigger"]))
    return Scenario(name=name, tones=tuple(ToneSpec(**t) for t in tones)), config


def render_scenario_file(scenario: Scenario, config: PipelineConfig) -> str:
    """Serialize back to the file format (inverse of parse_scenario_file).

    Every setting round-trips but `measure_skip_fraction`, which the
    format does not carry.
    """
    lines = ["[scenario]", f"name = {scenario.name}", "", "[tones]"]
    for tone in scenario.tones:
        lines.append(f"freq_mhz = {tone.frequency / 1e6!r}")
        lines.append(f"amplitude_v = {tone.amplitude!r}")
        lines.append(f"phase_rad = {tone.phase!r}")
    for section in ("sim", "jammer", "trigger"):
        lines += ["", f"[{section}]"]
        source = config.trigger if section == "trigger" else config
        for key, field in _SECTION_KEYS[section].items():
            if getattr(source, field) is not None:
                lines.append(f"{key} = {getattr(source, field)!r}")
    return "\n".join(lines) + "\n"


#: Rows formatted per write, so a long buffer's CSV body is never held whole in memory.
_CSV_BLOCK_ROWS = 65536


def _write_csv(path, header: str, *columns) -> None:
    """Write `header`, then one row per index of the aligned `columns`.

    Every value is written in decimal scientific notation with 9
    significant digits.
    """
    row = ",".join(["%.8e"] * len(columns)) + "\n"
    n_rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_timeseries_csv(buffer: SignalBuffer, path) -> None:
    """CSV rows `time_s,value_v`, t_i = i / sample_rate."""
    _write_csv(path, "time_s,value_v", buffer.times(), buffer.samples)


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """CSV rows `freq_hz,power_db`."""
    _write_csv(path, "freq_hz,power_db", spectrum.freqs, spectrum.power_db)
