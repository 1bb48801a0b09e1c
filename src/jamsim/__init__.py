"""Discrete-time simulator of a trigger-gated dual-band noise jammer.

Detection bandpass filters isolate the LTE Band 3 uplink/downlink and
Band 40 allocations; a rectifier + comparator trigger turns detection
into a 0V/5V gate; gated jammers re-emit the downlink signal amplified
and buried in Gaussian + Rayleigh noise.
"""

from .analysis import Spectrum, power_spectrum, rms
from .errors import InvalidParameter, JamSimError, ParseError
from .filterbank import (
    BAND_FILTER_SPECS,
    FilterSpec,
    FilterStages,
    apply_filter,
    design_bandpass,
    frequency_response,
)
from .jammer import JammerConfig, jam
from .pipeline import (
    BranchReport,
    Pipeline,
    PipelineConfig,
    Scenario,
    ScenarioReport,
    build_pipeline,
    builtin_scenarios,
    default_pipeline_config,
    run_scenario,
)
from .signal_core import NoiseSpec, SignalBuffer, ToneSpec, multi_tone
from .trigger import (
    GateLine,
    TriggerConfig,
    default_envelope_window,
    envelope,
    trigger_chain,
)

__version__ = "0.1.0"
