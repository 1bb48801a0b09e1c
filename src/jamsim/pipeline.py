"""End-to-end wiring: input -> band filters 2-4 -> triggers -> gated jammers.

A `Pipeline` is its `PipelineConfig` plus the four filters designed from
it in `BAND_FILTER_SPECS` order (``filters[k - 1]`` is filter k), with filters
2-4 planned together once, read-only; `run_scenario` runs them from that plan
and reads the trigger and jammer settings from the config.
`BRANCHES` numbers the circuit's two branches: in branch k, trigger k gates
jammer k, and a `ScenarioReport` holds one `BranchReport` per branch.
Band 3 (branch 1) is FDD, so detection and jamming use different filters: the
uplink filter (2) feeds trigger 1 and the downlink filter (3) feeds
jammer 1.  Band 40 (branch 2) is TDD and shares one allocation, so filter 4 feeds
both trigger 2 and jammer 2.  Filter 1 (the full Band 3 span) drives no branch, so
it is designed but not run: ``apply_filter(pipeline.filters[0], report.input)`` gives it.
Stages run whole-buffer, one at a time; every stage is causal and
feed-forward, so this matches sample-interleaved execution exactly.  A branch
whose detector row's `peak` (which the row's finite check found) stays at or below
the threshold costs no pass of its own; its report holds the pipeline's shared read-only
zeros as its gate and jammer, as the paper's circuit generates no output when no band is detected.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from .analysis import rms
from .errors import InvalidParameter
from .filterbank import (
    BAND_FILTER_SPECS,
    DEFAULT_FILTER_ORDER,
    FilterStages,
    _BankPlan,
    _plan_bank,
    _run_bank,
    check_filter_order,
    design_bandpass,
)
from .jammer import DEFAULT_GAIN, DEFAULT_NOISE_SIGMA, JammerConfig, jam
from .signal_core import (
    DEFAULT_N_SAMPLES,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SEED,
    DEFAULT_TONE_AMPLITUDE,
    MAX_N_SAMPLES,
    MAX_SEED,
    MAX_TOTAL_AMPLITUDE,
    NoiseSpec,
    SignalBuffer,
    ToneSpec,
    _check_kind,
    _check_tones,
    _Owned,
    check_below_nyquist,
    check_field,
    multi_tone,
)
from .trigger import GateLine, TriggerConfig, trigger_chain


#: Leading fraction of each gate and jammer output left out of the settled
#: measurements, so the filters' start-up transient does not count.
MEASURE_SKIP_FRACTION = 0.25
#: Each branch and its number k: trigger k gates jammer k.
BRANCHES = {"band3": 1, "band40": 2}


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of a run: rates, filter order, trigger and jammer settings.

    Both jammers share one gain and noise level; their noise seeds are
    seed (`jammer3`, Band 3) and seed+1 (`jammer40`, Band 40).
    """

    sample_rate: float = DEFAULT_SAMPLE_RATE
    n_samples: int = DEFAULT_N_SAMPLES
    filter_order: int = DEFAULT_FILTER_ORDER
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    seed: int = DEFAULT_SEED
    gain: float = DEFAULT_GAIN
    gaussian_sigma: float = DEFAULT_NOISE_SIGMA
    rayleigh_sigma: float = DEFAULT_NOISE_SIGMA

    def __post_init__(self):
        check_field(self, "sample_rate", 0.0, above=True)
        edge = max(spec.band_high for spec in BAND_FILTER_SPECS)
        check_below_nyquist(edge * 1e6, self.sample_rate, f"band edge {edge} MHz", "sample_rate")
        _check_kind(self.trigger, "trigger", TriggerConfig)
        check_field(self, "n_samples", 2, MAX_N_SAMPLES, integer=True)
        object.__setattr__(self, "filter_order", check_filter_order(self.filter_order))
        for name, value in {"gain": self.jammer3.gain, **asdict(self.jammer3.noise)}.items():
            object.__setattr__(self, name, value)  # as jammer3 checked and stored it
        check_field(self, "seed", 0, MAX_SEED - 1, integer=True)  # the Band 40 seed is seed+1

    @property
    def measure_skip_fraction(self) -> float:
        """`MEASURE_SKIP_FRACTION`; kept only for the perfbench harness."""
        return MEASURE_SKIP_FRACTION

    def _jammer(self, seed: int) -> JammerConfig:
        return JammerConfig(self.gain, NoiseSpec(self.gaussian_sigma, self.rayleigh_sigma, seed))

    @cached_property
    def jammer3(self) -> JammerConfig:
        """The Band 3 jammer: the shared settings, noise seed `seed`."""
        return self._jammer(self.seed)

    @cached_property
    def jammer40(self) -> JammerConfig:
        """The Band 40 jammer: the shared settings, the next noise seed."""
        return self._jammer(self.seed + 1)


def default_pipeline_config(seed: int = DEFAULT_SEED, **overrides: Any) -> PipelineConfig:
    """`PipelineConfig(seed=seed, **overrides)`; kept only for the perfbench harness."""
    return PipelineConfig(seed=seed, **overrides)


@dataclass(frozen=True)
class Scenario:
    """A named input description: which tones to render."""

    name: str
    tones: tuple[ToneSpec, ...]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise InvalidParameter(f"name must be a non-empty str, got {self.name!r}", "name")
        object.__setattr__(self, "tones", _check_tones(self.tones))
        total = sum(tone.amplitude for tone in self.tones)
        if not total <= MAX_TOTAL_AMPLITUDE:
            raise InvalidParameter(f"tone amplitudes sum to {total!r} V, above the "
                                   f"{MAX_TOTAL_AMPLITUDE:g} V limit", "amplitude")


@dataclass(frozen=True)
class BranchReport:
    """One branch's outcome: its gate, its jammer's output, and after the skip region the
    gate's modal level, whether the gate held it throughout, and the jammer's RMS.  An idle
    branch's gate and jammer are its pipeline's shared read-only zeros, one array."""

    gate: GateLine
    jammer: SignalBuffer
    level: float
    stable: bool
    rms: float


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """One scenario run: its input, filters 2-4 (`rows`, its only filter buffers) by name,
    and each branch's `BranchReport` under its `BRANCHES` name."""

    input: SignalBuffer
    rows: Mapping[str, SignalBuffer]
    branches: Mapping[str, BranchReport]

    @property
    def verdicts(self) -> dict[str, bool]:
        """Whether each branch jams: its settled gate level is its trigger's high level."""
        return {name: b.level == b.gate.high_level for name, b in self.branches.items()}

    @property
    def gates(self) -> dict[str, GateLine]:
        """Branch k's gate as ``trigger{k}``; kept only for the perfbench harness."""
        return {f"trigger{k}": self.branches[name].gate for name, k in BRANCHES.items()}

    @property
    def branch_buffers(self) -> dict[str, SignalBuffer]:
        """The input, rows and branch k's jammer as ``jammer{k}``; kept only for the
        perfbench harness."""
        return {"input": self.input, **self.rows,
                **{f"jammer{k}": self.branches[name].jammer for name, k in BRANCHES.items()}}

    @property
    def jammer1_rms(self) -> float:
        """Branch 1's settled jammer RMS; kept only for the perfbench harness."""
        return self.branches["band3"].rms

    @property
    def jammer2_rms(self) -> float:
        """Branch 2's settled jammer RMS; kept only for the perfbench harness."""
        return self.branches["band40"].rms


@dataclass(frozen=True, eq=False)
class Pipeline:
    """A `PipelineConfig` plus the four filters designed from it, in `BAND_FILTER_SPECS` order."""

    config: PipelineConfig
    filters: tuple[FilterStages, ...] = field(init=False)
    #: Filters 2-4, the wired ones, planned once as one bank; `run_scenario` runs them from it.
    _bank: _BankPlan = field(init=False, repr=False)
    #: An idle branch's gate and jammer, one read-only zero array.
    _idle: tuple[GateLine, SignalBuffer] = field(init=False, repr=False)

    def __post_init__(self):
        cfg = _check_kind(self.config, "config", PipelineConfig)
        object.__setattr__(self, "filters", tuple(
            design_bandpass(spec, cfg.sample_rate, cfg.filter_order) for spec in BAND_FILTER_SPECS))
        object.__setattr__(self, "_bank", _plan_bank(self.filters[1:]))
        silent = SignalBuffer(_Owned(np.zeros(cfg.n_samples)), cfg.sample_rate)
        low = GateLine(_Owned(silent.samples), silent.sample_rate, cfg.trigger.high_level)
        object.__setattr__(self, "_idle", (low, silent))


def build_pipeline(config: PipelineConfig) -> Pipeline:
    """`Pipeline(config)`; kept only for the perfbench harness."""
    return Pipeline(config)


def _settle(gate: GateLine, jammed: SignalBuffer, skip: float) -> tuple[float, bool, float]:
    """Modal gate level after the skip region, whether it was constant, and the jammer's RMS
    there."""
    tail = gate.samples[int(skip * len(gate)):]
    n_high = int(np.count_nonzero(tail))
    level = gate.high_level if n_high > tail.size - n_high else 0.0
    stable = n_high == 0 or n_high == tail.size
    return level, stable, rms(jammed, skip)


def _branch(pipeline: Pipeline, detected: SignalBuffer, jammed: SignalBuffer,
            jammer: JammerConfig) -> BranchReport:
    """Trigger on `detected`, jam `jammed` through its gate, settle both.  The envelope's
    largest sample is `detected.peak`, so a peak at or below the threshold keeps the gate low
    and the jammer silent: that branch reports the pipeline's idle zeros and runs neither."""
    cfg = pipeline.config
    if detected.peak <= cfg.trigger.threshold:
        return BranchReport(*pipeline._idle, 0.0, True, 0.0)
    gate = trigger_chain(detected, cfg.trigger)
    out = jam(jammed, gate, jammer)
    return BranchReport(gate, out, *_settle(gate, out, MEASURE_SKIP_FRACTION))


def run_scenario(pipeline: Pipeline, scenario: Scenario) -> ScenarioReport:
    """Render the input, run every branch, measure the settled outcome."""
    cfg = pipeline.config
    source = multi_tone(scenario.tones, cfg.sample_rate, cfg.n_samples)
    uplink, downlink, tdd = rows = _run_bank(pipeline._bank, source)
    # Branch k's detected row, jammed row and jammer, at index k - 1.
    wiring = ((uplink, downlink, cfg.jammer3), (tdd, tdd, cfg.jammer40))
    branches = {name: _branch(pipeline, *wiring[k - 1]) for name, k in BRANCHES.items()}
    return ScenarioReport(source, {f"filter{k}": row for k, row in enumerate(rows, 2)}, branches)


def builtin_scenarios() -> list[Scenario]:
    """The four canonical input tone sets (all tones 2 V, zero phase)."""
    tone_sets_mhz = (
        ("input1", (1200.0, 1500.0, 1600.0, 3000.0)),
        ("input2", (1200.0, 1740.0, 1850.0, 3000.0)),
        ("input3", (1200.0, 1300.0, 2340.0, 3000.0)),
        ("input4", (1740.0, 1850.0, 2340.0, 3000.0)),
    )
    return [
        Scenario(name=name, tones=tuple(
            ToneSpec(frequency=f * 1e6, amplitude=DEFAULT_TONE_AMPLITUDE) for f in freqs))
        for name, freqs in tone_sets_mhz
    ]
