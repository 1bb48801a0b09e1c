"""Seeded scenario generation and the independent oracle behind every check.

The benchmark never trusts jamsim to tell it what the right answer is.
Expected verdicts come from the LTE band plan: a tone strictly inside the
Band 3 uplink (1710-1785 MHz) or Band 40 (2305-2405 MHz), kept a margin
away from the edges, must trigger its band; anything else must not.  The
filter magnitudes used to place tones and to predict jammer power come from
scipy's own Butterworth design (``butter``), not from ``jamsim.filterbank``.

Every scenario has exactly four tones, so the work per scenario does not
depend on the seed; only the frequencies, amplitudes and phases do.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter

SAMPLE_RATE = 10e9
FILTER_ORDER = 6
THRESHOLD_V = 1.0
HIGH_V = 5.0
GAIN = 5.0
GAUSSIAN_SIGMA = 1.0
RAYLEIGH_SIGMA = 1.0
SKIP_FRACTION = 0.25
#: jamsim's buffer length when a run passes no --samples.
DEFAULT_SAMPLES = 4096

#: Passbands in MHz of the filters that feed the triggers and jammers.
UPLINK = (1710.0, 1785.0)     # filter 2 -> trigger 1
DOWNLINK = (1805.0, 1880.0)   # filter 3 -> jammer 1
BAND40 = (2305.0, 2405.0)     # filter 4 -> trigger 2 and jammer 2
#: Far out-of-band regions (MHz), below Nyquist at 10 GS/s.
FAR = ((300.0, 1500.0), (2700.0, 4500.0))

#: Share of each passband's width kept clear of tones at either edge.
EDGE_MARGIN = 0.15
#: A band that must fire needs a worst-case envelope of at least
#: ON_MARGIN x threshold; a band that must stay idle, at most OFF_MARGIN x.
ON_MARGIN = 1.2
OFF_MARGIN = 0.8

#: Tone roles per truth-table cell; four tones each.
CELLS = {
    "none": ("downlink", "far", "far", "far"),
    "band3": ("uplink", "downlink", "far", "far"),
    "band40": ("band40", "downlink", "far", "far"),
    "both": ("uplink", "downlink", "band40", "far"),
}
CELL_ORDER = ("none", "band3", "band40", "both")

_AMPLITUDE = {"uplink": (2.0, 2.5), "band40": (2.0, 2.5),
              "downlink": (1.0, 2.5), "far": (0.5, 2.5)}


@dataclass(frozen=True)
class Tone:
    freq_hz: float
    amplitude_v: float
    phase_rad: float


@dataclass(frozen=True)
class GenScenario:
    """One generated input and the verdicts the band plan demands for it."""

    name: str
    cell: str
    tones: tuple[Tone, ...]
    band3: bool
    band40: bool


def _oracle_sos(band_mhz: tuple[float, float]) -> np.ndarray:
    return butter(FILTER_ORDER // 2, [band_mhz[0] * 1e6, band_mhz[1] * 1e6],
                  btype="bandpass", fs=SAMPLE_RATE, output="sos")


_SOS = {"uplink": _oracle_sos(UPLINK), "downlink": _oracle_sos(DOWNLINK),
        "band40": _oracle_sos(BAND40)}


def response(filter_name: str, freqs_hz) -> np.ndarray:
    """Complex response of the scipy Butterworth oracle for one band filter.

    The product of the section responses, as ``sosfreqz`` computes it
    (test_checks.py holds the two equal), without its per-call overhead:
    a sweep's check pass evaluates it thousands of times.
    """
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    z1 = np.exp(-2j * np.pi * freqs / SAMPLE_RATE)
    h = np.ones(freqs.shape, dtype=np.complex128)
    for b0, b1, b2, _, a1, a2 in _SOS[filter_name]:
        h *= (b0 + z1 * (b1 + z1 * b2)) / (1.0 + z1 * (a1 + z1 * a2))
    return h


def _draw_freq(role: str, rng: np.random.Generator) -> float:
    if role == "far":
        lo, hi = FAR[int(rng.integers(len(FAR)))]
    else:
        lo, hi = {"uplink": UPLINK, "downlink": DOWNLINK, "band40": BAND40}[role]
        pad = EDGE_MARGIN * (hi - lo)
        lo, hi = lo + pad, hi - pad
    return float(rng.uniform(lo, hi)) * 1e6


def _trigger_bounds(tones, filter_name: str, main: int | None) -> tuple[float, float]:
    """(worst-case low, worst-case high) settled envelope at one trigger.

    The trailing-max envelope sees a sample within half a sample step of
    every peak of the main tone, so it reads at least A|H|cos(pi f / fs),
    less the sum of every other tone's filtered amplitude.
    """
    freqs = np.array([t.freq_hz for t in tones])
    amps = np.array([t.amplitude_v for t in tones]) * np.abs(response(filter_name, freqs))
    high = float(amps.sum())
    if main is None:
        return 0.0, high
    low = amps[main] * math.cos(math.pi * freqs[main] / SAMPLE_RATE) - (high - amps[main])
    return float(low), high


def _cell_ok(tones, roles) -> bool:
    for filter_name, role in (("uplink", "uplink"), ("band40", "band40")):
        main = roles.index(role) if role in roles else None
        low, high = _trigger_bounds(tones, filter_name, main)
        if main is None and high > OFF_MARGIN * THRESHOLD_V:
            return False
        if main is not None and low < ON_MARGIN * THRESHOLD_V:
            return False
    return True


def generate(seed: int, cell: str, index: int) -> GenScenario:
    """Scenario `index` of `cell`, a pure function of (seed, cell, index)."""
    roles = CELLS[cell]
    rng = np.random.default_rng([seed, CELL_ORDER.index(cell), index])
    for _ in range(1000):
        tones = tuple(
            Tone(_draw_freq(role, rng), float(rng.uniform(*_AMPLITUDE[role])),
                 float(rng.uniform(0.0, 2.0 * math.pi)))
            for role in roles
        )
        if _cell_ok(tones, roles):
            return GenScenario(name=f"{cell}-{index}", cell=cell, tones=tones,
                               band3="uplink" in roles, band40="band40" in roles)
    raise RuntimeError(f"no tone set met the oracle margins for {cell} (seed {seed})")


def generate_pool(seed: int, per_cell: int) -> list[GenScenario]:
    """`per_cell` scenarios of each cell, interleaved none/band3/band40/both."""
    return [generate(seed, cell, i) for i in range(per_cell) for cell in CELL_ORDER]


def noise_seed(seed: int) -> int:
    """jamsim noise seed for a workload seed (Band 40 takes this + 1)."""
    return int(np.random.default_rng([seed, 99]).integers(1, 2**31))


def render(scen: GenScenario, seed: int) -> str:
    """The scenario as a jamsim scenario file, every setting spelled out."""
    lines = ["[scenario]", f"name = {scen.name}", "", "[tones]"]
    for t in scen.tones:
        lines += [f"freq_mhz = {t.freq_hz / 1e6!r}", f"amplitude_v = {t.amplitude_v!r}",
                  f"phase_rad = {t.phase_rad!r}"]
    lines += ["", "[sim]", f"sample_rate_hz = {SAMPLE_RATE!r}", f"seed = {seed}",
              f"filter_order = {FILTER_ORDER}", "", "[jammer]", f"gain = {GAIN!r}",
              f"gaussian_sigma_v = {GAUSSIAN_SIGMA!r}", f"rayleigh_sigma_v = {RAYLEIGH_SIGMA!r}",
              "", "[trigger]", f"threshold_v = {THRESHOLD_V!r}", f"high_v = {HIGH_V!r}", ""]
    return "\n".join(lines)


def input_samples(scen: GenScenario, n: int) -> np.ndarray:
    """The input the program should have rendered, recomputed with numpy."""
    phase_step = 2.0 * np.pi / SAMPLE_RATE * np.arange(n)
    x = np.zeros(n)
    for t in scen.tones:
        x += t.amplitude_v * np.sin(t.freq_hz * phase_step + t.phase_rad)
    return x


def steady_state(scen: GenScenario, filter_name: str, n: int) -> np.ndarray:
    """Oracle steady-state output of one band filter for the scenario's tones."""
    freqs = np.array([t.freq_hz for t in scen.tones])
    h = response(filter_name, freqs)
    phase_step = 2.0 * np.pi / SAMPLE_RATE * np.arange(n)
    y = np.zeros(n)
    for t, hk in zip(scen.tones, h):
        y += t.amplitude_v * abs(hk) * np.sin(t.freq_hz * phase_step + t.phase_rad
                                              + np.angle(hk))
    return y


def write_cells(directory: str, seed: int) -> list[tuple[str, GenScenario]]:
    """Write scenario 0 of each cell as a file; returns (path, scenario) pairs."""
    out = []
    for cell in CELL_ORDER:
        scen = generate(seed, cell, 0)
        path = os.path.join(directory, f"{scen.name}.scn")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render(scen, noise_seed(seed)))
        out.append((path, scen))
    return out
