from dataclasses import replace

import numpy as np
import pytest

from jamsim.errors import InvalidParameter
from jamsim.filterbank import BAND_FILTER_SPECS, FilterStages, frequency_response
from jamsim.jammer import JammerConfig
from jamsim.pipeline import (
    MEASURE_SKIP_FRACTION,
    PipelineConfig,
    Scenario,
    build_pipeline,
    builtin_scenarios,
    default_pipeline_config,
    run_scenario,
)
from jamsim.signal_core import NoiseSpec, ToneSpec
from jamsim.trigger import TriggerConfig


@pytest.fixture(scope="module")
def pipeline():
    return build_pipeline(default_pipeline_config())


def single_tone_scenario(freq_mhz, name="probe"):
    return Scenario(name=name, tones=(ToneSpec(frequency=freq_mhz * 1e6, amplitude=2.0),))


class TestBuild:
    def test_structure(self, pipeline):
        assert len(pipeline.filters) == 4
        for stages, spec in zip(pipeline.filters, BAND_FILTER_SPECS):
            assert isinstance(stages, FilterStages)
            assert stages.spec == spec
            assert stages.sample_rate == pipeline.config.sample_rate
            assert 2 * len(stages.sos) == pipeline.config.filter_order
        assert pipeline.config.jammer3.noise.seed == 42
        assert pipeline.config.jammer40.noise.seed == 43

    def test_holds_exactly_the_four_bands(self, pipeline):
        assert tuple(f.spec.id for f in pipeline.filters) == (1, 2, 3, 4)
        assert tuple((f.spec.band_low, f.spec.band_high) for f in pipeline.filters) == (
            (1710.0, 1880.0), (1710.0, 1785.0), (1805.0, 1880.0), (2305.0, 2405.0))

    def test_sample_rate_too_low_for_the_bands(self):
        with pytest.raises(InvalidParameter, match="Nyquist"):
            build_pipeline(default_pipeline_config(sample_rate=4.0e9))

    def test_low_order_still_rejects_the_other_band(self):
        loose = build_pipeline(default_pipeline_config(filter_order=2))
        uplink, band40 = loose.filters[2 - 1], loose.filters[4 - 1]
        assert frequency_response(uplink, [2355e6])[0][0] <= -15.0
        assert frequency_response(band40, [1842.5e6])[0][0] <= -15.0

    def test_replacing_the_seed_rekeys_both_jammers(self):
        config = replace(default_pipeline_config(gain=2.0, gaussian_sigma=0.5), seed=100)
        assert config.jammer3 == JammerConfig(gain=2.0, noise=NoiseSpec(0.5, 1.0, 100))
        assert config.jammer40 == JammerConfig(gain=2.0, noise=NoiseSpec(0.5, 1.0, 101))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_samples=0)

    def test_measure_skip_fraction_is_a_fixed_read_only_property(self, pipeline):
        assert pipeline.config.measure_skip_fraction == MEASURE_SKIP_FRACTION == 0.25
        with pytest.raises(TypeError):
            PipelineConfig(measure_skip_fraction=0.5)


class TestPipelineFollowsItsConfig:
    """A pipeline runs exactly as its config says."""

    @pytest.mark.parametrize("change,verdict", [
        ({"seed": 7, "gain": 2.0}, True),
        ({"seed": 7, "gain": 2.0, "trigger": TriggerConfig(threshold=4.0)}, False),
        ({"filter_order": 4}, True),
        ({"sample_rate": 9e9}, True),
    ], ids=["seed-gain", "seed-gain-threshold", "filter_order", "sample_rate"])
    def test_replaced_config_runs_like_a_fresh_build(self, pipeline, change, verdict):
        config = replace(pipeline.config, **change)
        scenario = builtin_scenarios()[3]
        got = run_scenario(replace(pipeline, config=config), scenario)
        want = run_scenario(build_pipeline(config), scenario)
        assert got.verdicts == want.verdicts == {"band3": verdict, "band40": verdict}
        assert (got.jammer1_rms, got.jammer2_rms) == (want.jammer1_rms, want.jammer2_rms)
        assert got.branch_buffers == want.branch_buffers


class TestBuiltinScenarios:
    def test_exactly_four(self):
        assert len(builtin_scenarios()) == 4

    def test_tone_sets(self):
        sets = [tuple(t.frequency / 1e6 for t in s.tones) for s in builtin_scenarios()]
        assert sets == [
            (1200.0, 1500.0, 1600.0, 3000.0),
            (1200.0, 1740.0, 1850.0, 3000.0),
            (1200.0, 1300.0, 2340.0, 3000.0),
            (1740.0, 1850.0, 2340.0, 3000.0),
        ]
        for scenario in builtin_scenarios():
            assert all(t.amplitude == 2.0 for t in scenario.tones)

    def test_first_set_avoids_every_passband(self):
        for tone in builtin_scenarios()[0].tones:
            f_mhz = tone.frequency / 1e6
            for spec in BAND_FILTER_SPECS:
                assert not spec.band_low < f_mhz < spec.band_high

    def test_third_set_hits_the_tdd_band(self):
        freqs = [t.frequency / 1e6 for t in builtin_scenarios()[2].tones]
        spec = BAND_FILTER_SPECS[3]
        assert any(spec.band_low < f < spec.band_high for f in freqs)


class TestRunScenario:
    def test_out_of_band_input_stays_idle(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[0])
        assert report.trigger1_level == 0.0
        assert report.trigger2_level == 0.0
        assert report.jammer1_rms < 0.05
        assert report.jammer2_rms < 0.05
        assert report.verdicts == {"band3": False, "band40": False}

    def test_band3_input_fires_only_jammer1(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[1])
        assert report.trigger1_level == 5.0
        assert report.trigger2_level == 0.0
        assert report.jammer1_rms > 1.0
        assert report.jammer2_rms < 0.05
        assert report.verdicts == {"band3": True, "band40": False}

    def test_both_bands_fire_both_jammers(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[3])
        assert report.trigger1_level == 5.0
        assert report.trigger2_level == 5.0
        assert report.jammer1_rms > 1.0
        assert report.jammer2_rms > 1.0
        assert report.verdicts == {"band3": True, "band40": True}

    def test_silence_keeps_everything_at_zero(self, pipeline):
        report = run_scenario(pipeline, Scenario(name="silence", tones=()))
        assert report.trigger1_level == 0.0
        assert report.trigger2_level == 0.0
        assert np.all(report.branch_buffers["jammer1"].samples == 0.0)
        assert np.all(report.branch_buffers["jammer2"].samples == 0.0)

    def test_silence_gives_positive_zeros_in_every_branch(self, pipeline):
        report = run_scenario(pipeline, Scenario(name="silence", tones=()))
        for name, buffer in report.branch_buffers.items():
            assert buffer.samples.tobytes() == bytes(buffer.samples.nbytes), name  # +0.0 only

    def test_jamming_happens_exactly_when_its_trigger_fires(self, pipeline):
        for seed in (1, 2, 3):
            cfg = default_pipeline_config(seed=seed)
            p = build_pipeline(cfg)
            for scenario in builtin_scenarios():
                report = run_scenario(p, scenario)
                assert (report.jammer1_rms > 0.5) == (report.trigger1_level == 5.0)
                assert (report.jammer2_rms > 0.5) == (report.trigger2_level == 5.0)

    def test_full_band_filter_output_is_exported_but_unwired(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[1])
        full_band = report.branch_buffers["filter1"]
        # Both Band 3 tones pass the full-band filter.
        assert np.abs(full_band.samples[1024:]).max() > 1.0
        assert set(report.branch_buffers) == {
            "input", "filter1", "filter2", "filter3", "filter4", "jammer1", "jammer2"}
        assert set(report.gates) == {"trigger1", "trigger2"}

    def test_marginal_tone_is_reported_unstable_not_resolved_silently(self, pipeline):
        # Just outside the TDD band edge the envelope straddles the
        # threshold, so the gate chatters: the report must say so.
        report = run_scenario(pipeline, single_tone_scenario(2415.0))
        assert not report.trigger2_stable
        assert report.trigger2_level in (0.0, 5.0)

    def test_settled_gates_are_flagged_stable(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[1])
        assert report.trigger1_stable and report.trigger2_stable

    def test_tone_above_nyquist_is_rejected_at_run_time(self, pipeline):
        with pytest.raises(InvalidParameter, match="Nyquist"):
            run_scenario(pipeline, single_tone_scenario(6000.0))


class TestSweepSpotChecks:
    @pytest.mark.parametrize("freq_mhz,fires", [
        (1700.0, False), (1715.0, True), (1780.0, True), (1795.0, False)])
    def test_band3_uplink_edges(self, pipeline, freq_mhz, fires):
        report = run_scenario(pipeline, single_tone_scenario(freq_mhz))
        assert (report.trigger1_level == 5.0) == fires

    @pytest.mark.parametrize("freq_mhz,fires", [
        (2295.0, False), (2310.0, True), (2400.0, True), (2415.0, False)])
    def test_band40_edges(self, pipeline, freq_mhz, fires):
        report = run_scenario(pipeline, single_tone_scenario(freq_mhz))
        assert (report.trigger2_level == 5.0) == fires
