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

Blank lines and ``#`` comments are ignored.  Each key appears once per section,
or per tone, ``name`` included.  Integers are decimal, as ``int()`` reads them and
as --seed and JAMSIM_SEED take them (``007``, ``1_000``; no ``0x10``, no ``7.0``).
Unknown sections or keys and repeated keys fail fast, and out-of-range values
once the file is read, with the key's line number.
The [sim] seed feeds the Band 3 jammer; the Band 40 jammer takes seed+1.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

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
_READ = {"name": str, "n_samples": int, "seed": int, "filter_order": int,
         "envelope_window": int}  # how each key is read; any other as a float
#: The [tones] key that starts a tone, and each field a file gives in other units.
_TONE_KEY = next(iter(_SECTION_KEYS["tones"]))
_SCALE = {"frequency": 1e6}  # file value * scale = field value


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
    tones: list[tuple[dict[str, float], dict[str, int]]] = []  # each tone's fields, their lines
    settings: dict[str, dict] = {section: {} for section in _SECTION_KEYS if section != "tones"}
    lines: dict[str, int] = {}  # a field outside [tones] -> the line that set it
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
        if section == "tones" and key == _TONE_KEY:
            tones.append(({}, {}))
        elif section == "tones" and not tones:
            raise ParseError(f"{key} appears before any {_TONE_KEY}", lineno)
        target, target_lines = tones[-1] if section == "tones" else (settings[section], lines)
        field = _SECTION_KEYS[section][key]
        if field in target:
            raise ParseError(f"duplicate key {key!r}", lineno)
        try:
            parsed = _READ.get(key, float)(value)
        except ValueError:
            raise ParseError(f"cannot parse {key} value {value!r}", lineno) from None
        target[field] = parsed * _SCALE[field] if field in _SCALE else parsed
        target_lines[field] = lineno

    with _blame(lines):
        config = PipelineConfig(**{"seed": default_seed, **settings["sim"], **settings["jammer"]},
                                trigger=TriggerConfig(**settings["trigger"]))
    specs = []
    for fields, own in tones:  # blamed on the tone's own lines or on the rate's
        with _blame({**lines, **own}):
            tone = ToneSpec(**fields)
            check_below_nyquist(tone.frequency, config.sample_rate, f"tone at {tone.frequency} Hz",
                                "frequency", "sample_rate")
        specs.append(tone)
    with _blame({f: line for _, own in tones for f, line in own.items()}):
        scenario = Scenario(**{"name": "scenario", **settings["scenario"]},
                            tones=tuple(specs))  # a sum: the last amplitude_v line
    return scenario, config


def _file_values(source, section: str) -> dict:
    """What `source` (a Scenario, ToneSpec, PipelineConfig or TriggerConfig) holds for file
    `section`: each setting under its file key and in file units (a tone's frequency in MHz)."""
    return {key: getattr(source, field) / _SCALE[field] if field in _SCALE
            else getattr(source, field) for key, field in _SECTION_KEYS[section].items()}


#: Rows formatted per write, so a long buffer's CSV body is never held whole in memory.
#: Within a block, each distinct value of a mostly repeating column is formatted once,
#: and a run's four series share the block's time text; 65536-row blocks raised the
#: peak RSS of a 2**20-sample run by ~5 MB.
_CSV_BLOCK_ROWS = 16384
#: The header of the CSV that `jamsim response` writes.
RESPONSE_HEADER = "freq_hz,magnitude_db,phase_rad"


def _texts(values: np.ndarray) -> list[str]:
    """Each of `values` in decimal scientific notation with 9 significant digits."""
    return (("%.8e\n" * len(values)) % tuple(values.tolist())).split("\n")[:-1]


def _field(values: np.ndarray) -> tuple[str, list]:
    """The row field of one column's block (contiguous float64) and the values for it.

    Values are told apart by their bits, so -0.0 stays apart from 0.0.  If at most half
    of them are distinct, each distinct value is formatted once and the field takes its
    text; otherwise the field formats each value itself, which is faster when few repeat.
    """
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if 2 * len(distinct) > len(bits):
        return "%.8e", values.tolist()
    texts = np.array(_texts(distinct.view(np.float64)), dtype=object)
    return "%s", texts[np.searchsorted(distinct, bits)].tolist()


def _write_csv(files: dict, header: str, sample_rate: float | None = None) -> None:
    """Write each `path: columns` entry of `files`: `header`, then one row per index of
    the aligned `columns`, led by the time t_i = i / `sample_rate` if one is given.

    Every value is written in decimal scientific notation with 9 significant digits.
    The files are written side by side, `_CSV_BLOCK_ROWS` rows at a time, so the memory
    held is one block's text: each block of the time column is formatted once for all
    of them, and each distinct value of a mostly repeating column once (see `_field`).
    """
    files = {path: [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
             for path, columns in files.items()}
    n_rows = len(next(iter(files.values()))[0])
    with ExitStack() as stack:
        handles = {path: stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                   for path in files}
        for fh in handles.values():
            fh.write(header + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            stop = min(n_rows, start + _CSV_BLOCK_ROWS)
            times = [] if sample_rate is None else [np.arange(start, stop) / sample_rate]
            # one file formats its times like any column, several share their text
            common = [("%s", _texts(t)) if len(files) > 1 else _field(t) for t in times]
            for path, fh in handles.items():
                fields = common + [_field(c[start:stop]) for c in files[path]]
                cells = [None] * (len(fields) * (stop - start))
                for i, (_, values) in enumerate(fields):
                    cells[i::len(fields)] = values
                row = ",".join(spec for spec, _ in fields) + "\n"
                fh.write((row * (stop - start)) % tuple(cells))


def write_timeseries_csv(buffer: SignalBuffer, path) -> None:
    """CSV rows `time_s,value_v`, t_i = i / sample_rate."""
    _write_timeseries({path: buffer})


def _write_timeseries(buffers: dict) -> None:
    """Write each `path: buffer` entry as `write_timeseries_csv` does.  The buffers share
    one length and sample rate, so one time column, which is formatted once for all."""
    rate = next(iter(buffers.values())).sample_rate
    _write_csv({path: (buffer.samples,) for path, buffer in buffers.items()},
               "time_s,value_v", sample_rate=rate)


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """CSV rows `freq_hz,power_db`."""
    _write_csv({path: (spectrum.freqs, spectrum.power_db)}, "freq_hz,power_db")
