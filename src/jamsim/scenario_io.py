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

from contextlib import contextmanager

import numpy as np

from .analysis import Spectrum
from .errors import InvalidParameter, ParseError
from .pipeline import PipelineConfig, Scenario
from .signal_core import DEFAULT_SEED, SignalBuffer, ToneSpec, check_below_nyquist
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
#: The [tones] key that starts a tone, and each field a file gives in other units.
_TONE_KEY = next(iter(_SECTION_KEYS["tones"]))
_SCALE = {"frequency": 1e6}  # file value * scale = field value


def _parse_number(key: str, value: str, line: int) -> float | int:
    try:
        return int(value, 0) if key in _INT_KEYS else float(value)
    except ValueError:
        raise ParseError(f"cannot parse {key} value {value!r}", line) from None


@contextmanager
def _blame(lines: dict[str, int]):
    """Re-raise an InvalidParameter at the last line that set a field it names."""
    try:
        yield
    except InvalidParameter as exc:
        hit = [lines[f] for f in exc.fields if f in lines]
        if not hit:
            raise
        raise ParseError(str(exc), max(hit)) from None


def parse_scenario_file(text: str, default_seed: int = DEFAULT_SEED
                        ) -> tuple[Scenario, PipelineConfig]:
    """Parse a scenario document into a fully resolved (Scenario, PipelineConfig)."""
    name = "scenario"
    tones: list[dict[str, float]] = []
    tone_lines: list[int] = []  # the line that starts each tone
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
                raise ParseError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ParseError("key appears before any [section] header", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SECTION_KEYS[section]:
            raise ParseError(f"unknown key {key!r} in section [{section}]", lineno)
        if not value:
            raise ParseError(f"empty value for {key!r}", lineno)
        if section == "scenario":
            name = value
            continue

        if section == "tones" and key == _TONE_KEY:
            tones.append({})
            tone_lines.append(lineno)
        elif section == "tones" and not tones:
            raise ParseError(f"{key} appears before any {_TONE_KEY}", lineno)
        target = tones[-1] if section == "tones" else settings[section]
        field = _SECTION_KEYS[section][key]
        if field in target:
            raise ParseError(f"duplicate key {key!r}", lineno)
        number = _parse_number(key, value, lineno)
        target[field] = number * _SCALE[field] if field in _SCALE else number
        lines[field] = lineno
        if section == "tones":  # checked now: the next tone reuses these line slots
            with _blame(lines):
                ToneSpec(**target)

    with _blame(lines):
        config = PipelineConfig(**{"seed": default_seed, **settings["sim"], **settings["jammer"]},
                                trigger=TriggerConfig(**settings["trigger"]))
        scenario = Scenario(name=name, tones=tuple(ToneSpec(**t) for t in tones))
    for tone, line in zip(scenario.tones, tone_lines):  # blamed on it or on the rate's line
        with _blame({**lines, "frequency": line}):
            check_below_nyquist(tone.frequency, config.sample_rate, f"tone at {tone.frequency} Hz",
                                "frequency", "sample_rate")
    return scenario, config


def _file_values(source, section: str) -> dict:
    """What `source`, a ToneSpec, PipelineConfig or TriggerConfig, holds for file `section`:
    each setting under its file key and in file units (a tone's frequency in MHz)."""
    return {key: getattr(source, field) / _SCALE[field] if field in _SCALE
            else getattr(source, field) for key, field in _SECTION_KEYS[section].items()}


def render_scenario_file(scenario: Scenario, config: PipelineConfig) -> str:
    """Serialize back to the file format; every setting round-trips through parse_scenario_file."""
    def assignments(source, section: str) -> list[str]:
        return [f"{key} = {value!r}" for key, value in _file_values(source, section).items()
                if value is not None]

    lines = ["[scenario]", f"name = {scenario.name}", "", "[tones]"]
    for tone in scenario.tones:
        lines += assignments(tone, "tones")
    for section in ("sim", "jammer", "trigger"):
        lines += ["", f"[{section}]",
                  *assignments(config.trigger if section == "trigger" else config, section)]
    return "\n".join(lines) + "\n"


#: Rows formatted per write, so a long buffer's CSV body is never held whole in memory.
_CSV_BLOCK_ROWS = 65536
#: The header of the CSV that `jamsim response` writes.
RESPONSE_HEADER = "freq_hz,magnitude_db,phase_rad"


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
