import runpy
import sys
import threading
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from jamsim.analysis import rms
from jamsim.errors import InvalidParameter
from jamsim.filterbank import (
    BAND_FILTER_SPECS,
    FilterStages,
    _plan_bank,
    _run_bank,
    apply_filter,
    frequency_response,
)
from jamsim.jammer import JammerConfig, jam
from jamsim.pipeline import (
    BRANCHES,
    MEASURE_SKIP_FRACTION,
    BranchReport,
    PipelineConfig,
    Scenario,
    _branch,
    _settle,
    build_pipeline,
    builtin_scenarios,
    default_pipeline_config,
    run_scenario,
)
from jamsim.signal_core import NoiseSpec, SignalBuffer, ToneSpec
from jamsim.trigger import GateLine, TriggerConfig, trigger_chain

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios.py"


@pytest.fixture(scope="module")
def pipeline():
    return build_pipeline(default_pipeline_config())


def single_tone_scenario(freq_mhz, name="probe"):
    return Scenario(name=name, tones=(ToneSpec(frequency=freq_mhz * 1e6, amplitude=2.0),))


def generated_scenarios(seed, per_cell):
    """perfbench's generated pool: `per_cell` scenarios of each none/band3/band40/both cell."""
    generate = runpy.run_path(str(SCENARIOS), run_name="perfbench_scenarios")["generate_pool"]
    return [Scenario(gen.name, tuple(ToneSpec(t.freq_hz, t.amplitude_v, t.phase_rad)
                                     for t in gen.tones))
            for gen in generate(seed, per_cell)]


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
        assert got.branches == want.branches
        assert (got.input, got.rows) == (want.input, want.rows)


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
    @staticmethod
    def assert_fires(report, fires):
        """Each branch settles high and jams exactly when `fires` says so."""
        for name, branch in report.branches.items():
            assert branch.level == (5.0 if fires[name] else 0.0), name
            assert (branch.rms > 1.0) if fires[name] else (branch.rms < 0.05), name
        assert report.verdicts == fires

    def test_out_of_band_input_stays_idle(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[0])
        self.assert_fires(report, {"band3": False, "band40": False})

    def test_band3_input_fires_only_jammer1(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[1])
        self.assert_fires(report, {"band3": True, "band40": False})

    def test_both_bands_fire_both_jammers(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[3])
        self.assert_fires(report, {"band3": True, "band40": True})

    def test_silence_keeps_everything_at_zero(self, pipeline):
        report = run_scenario(pipeline, Scenario(name="silence", tones=()))
        for branch in report.branches.values():
            assert branch.level == 0.0
            assert np.all(branch.jammer.samples == 0.0)

    def test_silence_gives_positive_zeros_in_every_branch(self, pipeline):
        report = run_scenario(pipeline, Scenario(name="silence", tones=()))
        buffers = [report.input, *report.rows.values(),
                   *(branch.jammer for branch in report.branches.values())]
        for buffer in buffers:
            assert buffer.samples.tobytes() == bytes(buffer.samples.nbytes)  # +0.0 only

    def test_jamming_happens_exactly_when_its_trigger_fires(self, pipeline):
        for seed in (1, 2, 3):
            cfg = default_pipeline_config(seed=seed)
            p = build_pipeline(cfg)
            for scenario in builtin_scenarios():
                for branch in run_scenario(p, scenario).branches.values():
                    assert (branch.rms > 0.5) == (branch.level == 5.0)

    @pytest.mark.parametrize("n", [4096, 2**17 + 1])
    def test_full_band_filter_is_not_run_but_given_on_demand(self, n):
        pipeline = build_pipeline(default_pipeline_config(n_samples=n))
        report = run_scenario(pipeline, builtin_scenarios()[1])
        assert set(report.rows) == {"filter2", "filter3", "filter4"}
        assert set(report.branches) == set(BRANCHES) == {"band3", "band40"}
        assert np.array_equal(pipeline._bank.state_in, _plan_bank(pipeline.filters[1:]).state_in)
        source = report.input
        full_band = apply_filter(pipeline.filters[0], source)
        # Both Band 3 tones pass the full-band filter.
        assert np.abs(full_band.samples[1024:]).max() > 1.0
        # A bank row's bytes do not depend on the other filters run with it.
        whole_bank = _run_bank(_plan_bank(pipeline.filters), source)
        assert full_band.samples.tobytes() == whole_bank[0].samples.tobytes()

    def test_marginal_tone_is_reported_unstable_not_resolved_silently(self, pipeline):
        # Just outside the TDD band edge the envelope straddles the
        # threshold, so the gate chatters: the report must say so.
        band40 = run_scenario(pipeline, single_tone_scenario(2415.0)).branches["band40"]
        assert not band40.stable
        assert band40.level in (0.0, 5.0)

    def test_settled_gates_are_flagged_stable(self, pipeline):
        report = run_scenario(pipeline, builtin_scenarios()[1])
        assert all(branch.stable for branch in report.branches.values())

    def test_tone_above_nyquist_is_rejected_at_run_time(self, pipeline):
        with pytest.raises(InvalidParameter, match="Nyquist"):
            run_scenario(pipeline, single_tone_scenario(6000.0))


class TestSettledJammerRms:
    """The settle pass gives each jammer's RMS, 0.0 when its settled gate is low."""

    @pytest.mark.parametrize("n", [4096, 1001])
    @pytest.mark.parametrize("high", ["skip-region-only", "last-sample-only", "none", "all"])
    def test_equals_rms_of_the_jammer_bit_for_bit(self, n, high):
        start = int(MEASURE_SKIP_FRACTION * n)
        levels = np.zeros(n)
        levels[{"skip-region-only": slice(0, start), "last-sample-only": slice(n - 1, n),
                "none": slice(0, 0), "all": slice(0, n)}[high]] = 5.0
        gate = GateLine(levels, 10e9)
        signal = SignalBuffer(np.random.default_rng(n).standard_normal(n), 10e9)
        jammed = jam(signal, gate, JammerConfig())
        want = rms(jammed, MEASURE_SKIP_FRACTION)
        assert _settle(gate, jammed, MEASURE_SKIP_FRACTION)[2].hex() == want.hex()
        if high == "skip-region-only":
            assert np.count_nonzero(jammed.samples[:start]) and want == 0.0

    @pytest.mark.parametrize("n", [4096, 2**17 + 1])
    def test_reports_equal_rms_of_their_jammer_buffers(self, n):
        # Each branch, idle or fired, gives the bytes of the full chain on its own filter rows.
        pipeline = build_pipeline(default_pipeline_config(n_samples=n))
        cfg, idle_branches = pipeline.config, 0
        scenarios = builtin_scenarios() + generated_scenarios(3, 2)  # two of each cell
        for scenario in scenarios:
            report = run_scenario(pipeline, scenario)
            rows = report.rows
            for name, detected, jammed, jammer in (("band3", "filter2", "filter3", cfg.jammer3),
                                                  ("band40", "filter4", "filter4", cfg.jammer40)):
                gate = trigger_chain(rows[detected], cfg.trigger)
                out = jam(rows[jammed], gate, jammer)
                level, stable, settled_rms = _settle(gate, out, MEASURE_SKIP_FRACTION)
                got, where = report.branches[name], (scenario.name, name)
                assert got.gate.samples.tobytes() == gate.samples.tobytes(), where
                assert (got.gate.sample_rate, got.gate.high_level) == (
                    gate.sample_rate, gate.high_level), where
                assert got.jammer.samples.tobytes() == out.samples.tobytes(), where
                assert got.jammer.sample_rate == out.sample_rate, where
                assert (got.level.hex(), got.stable, got.rms.hex()) == (
                    level.hex(), stable, settled_rms.hex()), where
                assert got.rms.hex() == rms(got.jammer, MEASURE_SKIP_FRACTION).hex(), where
                idle_branches += got.gate is pipeline._idle[0]
        assert 0 < idle_branches < 2 * len(scenarios)  # both paths ran


class TestIdleBranch:
    """A branch whose detector row's `peak` stays at or below the threshold costs no pass of
    its own: the row's finite check found that peak."""

    def test_the_decision_reads_the_rows_peak(self, pipeline):
        cfg = pipeline.config
        quiet = SignalBuffer(np.zeros(cfg.n_samples), cfg.sample_rate)
        object.__setattr__(quiet, "peak", 2.0 * cfg.trigger.threshold)  # says it is loud
        branch = _branch(pipeline, quiet, quiet, cfg.jammer3)
        assert branch.gate is not pipeline._idle[0]
        assert branch.gate == trigger_chain(quiet, cfg.trigger)

    def test_idle_reports_of_gates_with_other_high_levels_differ(self):
        scenario = builtin_scenarios()[0]  # input1: both branches idle
        low = run_scenario(build_pipeline(PipelineConfig(trigger=TriggerConfig(high_level=3.0))),
                           scenario)
        default = run_scenario(build_pipeline(PipelineConfig()), scenario)
        assert low.verdicts == default.verdicts == {"band3": False, "band40": False}
        assert low.branches != default.branches

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("above", [False, True])
    def test_the_peak_decides_at_the_threshold(self, pipeline, sign, above):
        cfg = pipeline.config
        n, threshold = cfg.n_samples, cfg.trigger.threshold
        samples = 0.5 * np.sin(np.arange(n) * 0.3)
        samples[2000] = sign * (np.nextafter(threshold, np.inf) if above else threshold)
        detected = SignalBuffer(samples, cfg.sample_rate)
        jammed = SignalBuffer(np.random.default_rng(5).standard_normal(n), cfg.sample_rate)
        branch = _branch(pipeline, detected, jammed, cfg.jammer3)
        want_gate = trigger_chain(detected, cfg.trigger)
        want_out = jam(jammed, want_gate, cfg.jammer3)
        want_level, want_stable, want_rms = _settle(want_gate, want_out, MEASURE_SKIP_FRACTION)
        assert branch.gate.samples.tobytes() == want_gate.samples.tobytes()
        assert branch.jammer.samples.tobytes() == want_out.samples.tobytes()
        assert (branch.level, branch.stable, branch.rms.hex()) == (
            want_level, want_stable, want_rms.hex())
        # Only a peak past the threshold opens the gate (for a few samples after it, so the
        # gate is unstable); a peak at the threshold is the idle outcome.
        assert (branch.gate is pipeline._idle[0]) is not above
        assert bool(np.count_nonzero(branch.gate.samples)) is above
        assert (branch.level, branch.stable) == (0.0, not above)

    def test_an_idle_run_calls_no_trigger_and_no_jammer(self, monkeypatch):
        pipeline = build_pipeline(default_pipeline_config())
        scenarios = [builtin_scenarios()[0], generated_scenarios(3, 1)[0]]  # input1, none-0
        want = [run_scenario(pipeline, s) for s in scenarios]

        def refuse(*args):  # stands in for trigger_chain and jam
            raise AssertionError("an idle branch ran a trigger or a jammer")
        monkeypatch.setattr("jamsim.pipeline.trigger_chain", refuse)
        monkeypatch.setattr("jamsim.pipeline.jam", refuse)
        for scenario, before in zip(scenarios, want):
            report = run_scenario(pipeline, scenario)
            assert report.verdicts == {"band3": False, "band40": False}, scenario.name
            assert all(report.branches[name].gate is before.branches[name].gate
                       is pipeline._idle[0] for name in BRANCHES), scenario.name

    def test_idle_objects_are_read_only_and_shared(self, pipeline):
        first, second = (run_scenario(pipeline, builtin_scenarios()[0]) for _ in range(2))
        gate, silent = pipeline._idle
        records = [*first.branches.values(), *second.branches.values()]
        assert len({id(branch) for branch in records}) == len(records) == 4
        for branch in records:
            assert isinstance(branch, BranchReport)
            assert branch.gate is gate and branch.jammer is silent
            assert (branch.level, branch.stable, branch.rms) == (0.0, True, 0.0)
            with pytest.raises(FrozenInstanceError):
                branch.level = 5.0
        assert gate.samples is silent.samples  # one zero array for the gate and the jammer
        assert not gate.samples.flags.writeable
        with pytest.raises(ValueError):
            silent.samples[0] = 1.0
        assert silent.samples.tobytes() == bytes(8 * pipeline.config.n_samples)
        # A band 3 run leaves only the band 40 branch idle.
        band3 = run_scenario(pipeline, builtin_scenarios()[1]).branches
        assert band3["band40"].gate is gate and band3["band3"].gate is not gate

    def test_a_replaced_config_gets_its_own_idle_objects(self, pipeline):
        longer = replace(pipeline, config=replace(pipeline.config, n_samples=5000))
        band3, band40 = run_scenario(longer, builtin_scenarios()[0]).branches.values()
        assert band3 is not band40
        assert band3.gate is band40.gate is longer._idle[0] and band3.gate is not pipeline._idle[0]
        assert band3.gate.samples is band40.jammer.samples
        assert len(band3.gate) == len(band40.jammer) == 5000
        assert len(pipeline._idle[0]) == pipeline.config.n_samples

    def test_two_threads_get_the_bytes_of_serial_runs(self, pipeline):
        scenarios = [builtin_scenarios()[0], builtin_scenarios()[3]]  # none and both

        def fingerprint(report):
            return ([buf.samples.tobytes() for buf in (report.input, *report.rows.values())]
                    + [(b.gate.samples.tobytes(), b.jammer.samples.tobytes(), b.level, b.stable,
                        b.rms) for b in report.branches.values()])

        serial = [fingerprint(run_scenario(pipeline, s)) for s in scenarios]
        results, errors = [[] for _ in range(4)], []  # more callers than CPUs

        def call(k):
            try:
                for _ in range(20):
                    results[k].append(fingerprint(run_scenario(pipeline, scenarios[k % 2])))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(len(results))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert errors == []
        assert results == [[serial[k % 2]] * 20 for k in range(len(results))]


class TestSweepSpotChecks:
    @pytest.mark.parametrize("freq_mhz,fires", [
        (1700.0, False), (1715.0, True), (1780.0, True), (1795.0, False)])
    def test_band3_uplink_edges(self, pipeline, freq_mhz, fires):
        report = run_scenario(pipeline, single_tone_scenario(freq_mhz))
        assert (report.branches["band3"].level == 5.0) == fires

    @pytest.mark.parametrize("freq_mhz,fires", [
        (2295.0, False), (2310.0, True), (2400.0, True), (2415.0, False)])
    def test_band40_edges(self, pipeline, freq_mhz, fires):
        report = run_scenario(pipeline, single_tone_scenario(freq_mhz))
        assert (report.branches["band40"].level == 5.0) == fires
