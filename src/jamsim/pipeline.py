"""End-to-end wiring: input -> band filters 2-4 -> triggers -> gated jammers.

A `Pipeline` is its `PipelineConfig` plus the four filters designed from
it in `BAND_FILTER_SPECS` order (``filters[k - 1]`` is filter k), with filters
2-4 planned once as one read-only bank; `run_scenario` runs the bank from that
plan and reads the trigger and jammer settings from the config.
Band 3 is FDD, so detection and jamming use different filters: the
uplink filter (2) feeds trigger 1 and the downlink filter (3) feeds
jammer 1.  Band 40 is TDD and shares one allocation, so filter 4 feeds
both trigger 2 and jammer 2.  Filter 1 (the full Band 3 span) drives no branch, so
it is designed but not run: ``apply_filter(pipeline.filters[0], input)`` gives it.
Stages run whole-buffer, one at a time; every stage is causal and
feed-forward, so this matches sample-interleaved execution exactly.  A
branch whose detector peak |x| stays at or below the threshold costs one
peak pass and returns the pipeline's shared read-only zeros as its gate and
jammer, as the paper's circuit generates no output when no band is detected;
a fired jammer's RMS is 0.0 without a pass where its settled gate is never high.
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
        self.jammer40  # checks seed+1

    @property
    def measure_skip_fraction(self) -> float:
        """`MEASURE_SKIP_FRACTION`, the same for every config."""
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
    """Default config with noise seed `seed` (the Band 40 jammer takes seed+1)."""
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


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Measured per-branch outcome of one scenario run; filters 2-4 are its only filter buffers.

    An idle branch's gate and jammer are its pipeline's shared read-only zeros, one array.
    """

    trigger1_level: float
    trigger2_level: float
    trigger1_stable: bool
    trigger2_stable: bool
    jammer1_rms: float
    jammer2_rms: float
    branch_buffers: Mapping[str, SignalBuffer]
    gates: Mapping[str, GateLine]
    verdicts: Mapping[str, bool]


@dataclass(frozen=True, eq=False)
class Pipeline:
    """A `PipelineConfig` plus the four filters designed from it, in `BAND_FILTER_SPECS` order."""

    config: PipelineConfig
    filters: tuple[FilterStages, ...] = field(init=False)
    #: Filters 2-4, the wired ones, planned once as one bank; `run_scenario` runs them from it.
    _bank: _BankPlan = field(init=False, repr=False)
    #: An idle branch's gate, jammer buffer and settle: one read-only zero array serves both.
    _idle: tuple = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        object.__setattr__(self, "filters", tuple(
            design_bandpass(spec, cfg.sample_rate, cfg.filter_order) for spec in BAND_FILTER_SPECS))
        object.__setattr__(self, "_bank", _plan_bank(self.filters[1:]))
        silent = SignalBuffer(_Owned(np.zeros(cfg.n_samples)), cfg.sample_rate)
        low = GateLine(_Owned(silent.samples), silent.sample_rate, cfg.trigger.high_level)
        idle = (low, silent, *_settle(low, silent, MEASURE_SKIP_FRACTION))
        object.__setattr__(self, "_idle", idle)


def build_pipeline(config: PipelineConfig) -> Pipeline:
    """Design the four band filters for `config`."""
    return Pipeline(config)


def _settle(gate: GateLine, jammed: SignalBuffer, skip: float) -> tuple[float, bool, float]:
    """Modal gate level after the skip region, whether it was constant, and the jammer's RMS
    there: 0.0 unread if no gate sample there is high, as `jam` then left exact zeros."""
    tail = gate.levels[int(skip * len(gate)):]
    n_high = int(np.count_nonzero(tail))
    level = gate.high_level if n_high > tail.size - n_high else 0.0
    stable = n_high == 0 or n_high == tail.size
    return level, stable, rms(jammed, skip) if n_high else 0.0


def _branch(pipeline: Pipeline, detected: SignalBuffer, jammed: SignalBuffer,
            jammer: JammerConfig) -> tuple[GateLine, SignalBuffer, float, bool, float]:
    """Trigger on `detected`, jam `jammed` through its gate, settle both.  The envelope's
    largest sample is the peak |x|, so a peak at or below the threshold keeps the gate low
    and the jammer silent: that branch returns the pipeline's idle outcome and runs neither."""
    cfg, x = pipeline.config, detected.samples
    if max(x.max(), -x.min()) <= cfg.trigger.threshold:
        return pipeline._idle
    gate = trigger_chain(detected, cfg.trigger)
    out = jam(jammed, gate, jammer)
    return (gate, out, *_settle(gate, out, MEASURE_SKIP_FRACTION))


def run_scenario(pipeline: Pipeline, scenario: Scenario) -> ScenarioReport:
    """Render the input, run every branch, measure the settled outcome."""
    cfg = pipeline.config

    source = multi_tone(scenario.tones, cfg.sample_rate, cfg.n_samples)
    band3_uplink, band3_downlink, band40 = _run_bank(pipeline._bank, source)

    gate1, jam1, level1, stable1, rms1 = _branch(pipeline, band3_uplink, band3_downlink,
                                                 cfg.jammer3)
    gate2, jam2, level2, stable2, rms2 = _branch(pipeline, band40, band40, cfg.jammer40)

    return ScenarioReport(
        trigger1_level=level1,
        trigger2_level=level2,
        trigger1_stable=stable1,
        trigger2_stable=stable2,
        jammer1_rms=rms1,
        jammer2_rms=rms2,
        branch_buffers={
            "input": source,
            "filter2": band3_uplink,
            "filter3": band3_downlink,
            "filter4": band40,
            "jammer1": jam1,
            "jammer2": jam2,
        },
        gates={"trigger1": gate1, "trigger2": gate2},
        verdicts={
            "band3": level1 == cfg.trigger.high_level,
            "band40": level2 == cfg.trigger.high_level,
        },
    )


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
