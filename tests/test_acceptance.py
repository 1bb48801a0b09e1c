"""Acceptance gate: every release-blocking criterion at its pinned tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one [PASS]/[FAIL]
line per criterion.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from jamsim.analysis import power_spectrum, rms
from jamsim.cli import run_cli
from jamsim.filterbank import BAND_FILTER_SPECS, apply_filter, frequency_response
from jamsim.pipeline import (BRANCHES, Scenario, build_pipeline, builtin_scenarios,
                             default_pipeline_config, run_scenario)
from jamsim.rng import gaussian_stream, rayleigh_stream
from jamsim.signal_core import SignalBuffer, ToneSpec, multi_tone
from jamsim.trigger import TriggerConfig, default_envelope_window, trigger_chain

FS = 10e9
N = 4096


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_scenario_truth_table():
    with criterion("1 scenario truth table"):
        started = time.perf_counter()
        pipeline = build_pipeline(default_pipeline_config(seed=42))
        reports = [run_scenario(pipeline, s) for s in builtin_scenarios()]
        elapsed = time.perf_counter() - started

        expected = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
        got = [tuple(b.level for b in r.branches.values()) for r in reports]
        assert got == expected
        for report, (lvl1, lvl2) in zip(reports, expected):
            assert report.verdicts == {"band3": lvl1 == 5.0, "band40": lvl2 == 5.0}
            for branch in report.branches.values():
                if branch.level == 5.0:
                    assert branch.rms > 1.0
                else:
                    assert branch.rms < 0.05
        assert elapsed < 5.0


def test_criterion_2_band_edge_conformance():
    with criterion("2 band-plan conformance"):
        started = time.perf_counter()
        target = -3.0102999566398120

        def edge(stages, inside, outside):
            lo, hi = outside, inside
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if frequency_response(stages, [mid])[0][0] >= target:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        filters = build_pipeline(default_pipeline_config()).filters
        for spec in BAND_FILTER_SPECS:
            stages = filters[spec.id - 1]
            centre_db = frequency_response(stages, [spec.center * 1e6])[0][0]
            assert abs(centre_db) <= 1.0
            low = edge(stages, spec.center * 1e6, spec.band_low * 1e6 - 200e6)
            high = edge(stages, spec.center * 1e6, spec.band_high * 1e6 + 200e6)
            assert low == pytest.approx(spec.band_low * 1e6, rel=0.015)
            assert high == pytest.approx(spec.band_high * 1e6, rel=0.015)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_cross_band_rejection():
    with criterion("3 cross-band rejection >= 40 dB"):
        filters = build_pipeline(default_pipeline_config()).filters
        assert frequency_response(filters[1], [2355e6])[0][0] <= -40.0
        assert frequency_response(filters[2], [2355e6])[0][0] <= -40.0
        assert frequency_response(filters[3], [1747.5e6])[0][0] <= -40.0
        assert frequency_response(filters[3], [1842.5e6])[0][0] <= -40.0


def test_criterion_4_trigger_contract():
    with criterion("4 trigger contract"):
        cfg, no_envelope = TriggerConfig(), TriggerConfig(envelope_window=1)
        for level, expected in ((1.2, 5.0), (0.5, 0.0), (1.0, 0.0)):
            gate = trigger_chain(SignalBuffer(np.full(256, level), FS), no_envelope)
            assert np.all(gate.samples == expected)

        # A detected 2 V in-band tone holds the gate at 5 V with zero
        # dropouts once the envelope window has filled.
        window = default_envelope_window(FS)
        filters = build_pipeline(default_pipeline_config()).filters
        tone = multi_tone([ToneSpec(1747.5e6, 2.0)], FS, N)
        gate = trigger_chain(apply_filter(filters[1], tone), cfg)
        first_high = int(np.argmax(gate.samples > 0.0))
        assert gate.samples[first_high] == 5.0
        assert first_high < N // 4
        settle = max(first_high, window)
        assert np.all(gate.samples[settle:] == 5.0)

        # Same contract on the raw (unfiltered) tone: high from the
        # moment the window fills.
        raw_gate = trigger_chain(tone, cfg)
        assert np.all(raw_gate.samples[window:] == 5.0)


def test_criterion_5_gating_exactness():
    with criterion("5 gating exactness on out-of-band scenarios"):
        # Tones drawn at least 80 MHz away from every passband edge so
        # no trigger can fire; outputs must then be identically zero.
        regions = ((100.0, 1630.0), (1960.0, 2225.0), (2485.0, 4500.0))
        rnd = random.Random(20240817)
        pipeline = build_pipeline(default_pipeline_config(seed=42))
        for case in range(100):
            tones = tuple(
                ToneSpec(frequency=rnd.uniform(*rnd.choice(regions)) * 1e6, amplitude=2.0)
                for _ in range(rnd.randint(1, 4))
            )
            report = run_scenario(pipeline, Scenario(name=f"oob{case}", tones=tones))
            for branch in report.branches.values():
                assert np.all(branch.jammer.samples == 0.0)


def _check_rectifier_properties():
    # The rectifier seen through a one-sample envelope: idempotent, sign-blind, scale-covariant.
    def gate(xs):
        return trigger_chain(SignalBuffer(xs, FS), TriggerConfig(50.0, 100.0, 1)).samples

    rnd = np.random.default_rng(5)
    for _ in range(20):
        xs = rnd.uniform(-100.0, 100.0, 512)
        once = gate(xs)
        assert np.array_equal(gate(np.abs(xs)), once)
        assert np.array_equal(gate(-xs), once)
        c = float(rnd.uniform(-10.0, 10.0))
        assert np.array_equal(gate(c * xs), gate(abs(c) * xs))


def _check_filter_linearity_and_stability(filters):
    rnd = np.random.default_rng(6)
    stages = filters[2]
    for _ in range(10):
        a, b = rnd.uniform(-10.0, 10.0, 2)
        x = rnd.uniform(-10.0, 10.0, 1024)
        y = rnd.uniform(-10.0, 10.0, 1024)
        combined = apply_filter(stages, SignalBuffer(a * x + b * y, FS)).samples
        separate = (a * apply_filter(stages, SignalBuffer(x, FS)).samples
                    + b * apply_filter(stages, SignalBuffer(y, FS)).samples)
        assert np.max(np.abs(combined - separate)) < 1e-9
    impulse = np.zeros(4097)
    impulse[0] = 1.0
    for spec in BAND_FILTER_SPECS:
        h = apply_filter(filters[spec.id - 1], SignalBuffer(impulse, FS)).samples
        assert abs(h[4096]) < 1e-6 * np.abs(h).max()


def _check_parseval():
    rnd = np.random.default_rng(7)
    for _ in range(1000):
        x = rnd.uniform(-5.0, 5.0, 1024)
        spec = power_spectrum(SignalBuffer(x, FS))
        total = float(np.sum(10.0 ** (spec.power_db / 10.0)))
        mean_square = float(np.mean(x * x))
        assert abs(total - mean_square) <= 1e-6 * mean_square


def _check_noise_moments():
    p_at_sigma = 1.0 - np.exp(-0.5)
    for seed in range(20):
        g = gaussian_stream(1.0, seed, 10**6)
        assert float(np.var(g)) == pytest.approx(1.0, rel=0.02)
        r = rayleigh_stream(1.0, seed, 10**6)
        cdf_at_sigma = float(np.mean(r <= 1.0))
        assert cdf_at_sigma == pytest.approx(p_at_sigma, rel=0.01)


def _check_sweep_selectivity():
    pipeline = build_pipeline(default_pipeline_config(seed=42))
    step = 5.0
    bands = {1: (1710.0, 1785.0), 2: (2305.0, 2405.0)}
    for f_mhz in np.arange(1600.0, 2500.0 + step, step):
        scenario = Scenario(name="sweep", tones=(ToneSpec(f_mhz * 1e6, 2.0),))
        report = run_scenario(pipeline, scenario)
        fired = {k: report.branches[name].level == 5.0 for name, k in BRANCHES.items()}
        for which, (low, high) in bands.items():
            if low + step <= f_mhz <= high - step:
                assert fired[which], f"{f_mhz} MHz must fire trigger{which}"
            elif f_mhz <= low - 2 * step or f_mhz >= high + 2 * step:
                assert not fired[which], f"{f_mhz} MHz must not fire trigger{which}"
            # within one step of an edge either outcome is acceptable


def test_criterion_6_property_suites():
    with criterion("6 property suites"):
        filters = build_pipeline(default_pipeline_config()).filters
        _check_rectifier_properties()
        _check_filter_linearity_and_stability(filters)
        _check_parseval()
        _check_noise_moments()
        _check_sweep_selectivity()


def test_criterion_7_reproducibility(tmp_path):
    with criterion("7 byte-identical reproducible runs"):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            code = run_cli(["run", "--builtin", "2", "--out", str(out),
                            "--seed", "7", "--reproducible"])
            assert code == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
