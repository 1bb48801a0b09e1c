"""In-process jamsim work for one benchmark run, in its own interpreter.

Started by run.py as ``python3 perfbench/worker.py SPEC_JSON`` with
``src`` on PYTHONPATH.  It prints one JSON object as its last line.

Modes:
  sweep  - closed loop of `run_scenario` calls over a generated pool,
           timed per call, every report checked;
  cli    - in-process `run_cli` over generated scenario files, every
           output checked (the traced run of the CLI workload).
Each run first checks every input once (the check pass), then times
whole rounds until the given seconds have passed.
With "trace": true, untraced and traced rounds alternate, so the tracing
overhead is measured in the same process, and the per-layer spans of the
traced rounds are reported.  A sweep's traced run ends with an in-process
CLI probe (one file per truth-table cell at 4096 samples) so that layers
a sweep never calls still get measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

import jamsim
import jamsim.cli
import jamsim.pipeline

import checks
import scenarios
from tracing import Tracer, layer_metrics

class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _to_scenario(gen: scenarios.GenScenario) -> jamsim.Scenario:
    return jamsim.Scenario(name=gen.name, tones=tuple(
        jamsim.ToneSpec(frequency=t.freq_hz, amplitude=t.amplitude_v, phase=t.phase_rad)
        for t in gen.tones))


def _pipeline_config(seed: int, n: int):
    config = jamsim.default_pipeline_config(seed=scenarios.noise_seed(seed), n_samples=n)
    expected = (scenarios.SAMPLE_RATE, scenarios.FILTER_ORDER, scenarios.THRESHOLD_V,
                scenarios.HIGH_V, scenarios.GAIN, scenarios.GAUSSIAN_SIGMA,
                scenarios.RAYLEIGH_SIGMA, scenarios.SKIP_FRACTION)
    actual = (config.sample_rate, config.filter_order, config.trigger.threshold,
              config.trigger.high_level, config.jammer3.gain, config.jammer3.noise.gaussian_sigma,
              config.jammer3.noise.rayleigh_sigma, config.measure_skip_fraction)
    if actual != expected:
        raise SystemExit(f"default jamsim config {actual} is not the one the oracle models "
                         f"{expected}")
    return config


class Sweep:
    """Round-robin `run_scenario` over a pool.

    `check_pass` runs and fully checks every pool scenario once, before
    any timed round: the checks evict the caches, so timing them together
    with the calls would make the rate depend on how much of a run the
    first pass takes.  Timed rounds then only compare each report with
    that scenario's checked one.
    """

    def __init__(self, spec: dict, counter: Counter):
        self.n = spec["n"]
        self.round = spec["round"]
        self.gens = scenarios.generate_pool(spec["seed"], spec["per_cell"])
        self.scens = [_to_scenario(g) for g in self.gens]
        self.fingerprints: list = [None] * len(self.gens)
        self.pipeline = jamsim.pipeline.build_pipeline(_pipeline_config(spec["seed"], self.n))
        self.next = 0
        self.counter = counter

    def check_pass(self) -> None:
        for _ in range(len(self.scens) // self.round):
            self.run_round()

    def run_round(self) -> list[float]:
        """One round; returns the wall time of each `run_scenario` call."""
        times = []
        for _ in range(self.round):
            k = self.next
            self.next = (k + 1) % len(self.scens)
            self.counter.attempted += 1
            t0 = time.perf_counter()
            try:
                report = jamsim.pipeline.run_scenario(self.pipeline, self.scens[k])
            except Exception as exc:  # a failed operation is counted, the sweep goes on
                times.append(time.perf_counter() - t0)
                self.counter.fail(f"{self.gens[k].name}: run_scenario raised {exc!r}")
                continue
            times.append(time.perf_counter() - t0)
            try:
                if self.fingerprints[k] is None:
                    self.fingerprints[k] = checks.check_report(self.gens[k], self.n, report)
                elif self.fingerprints[k] != checks.fingerprint(report):
                    raise checks.CheckError(f"{self.gens[k].name}: report differs from the "
                                            f"same scenario's earlier run")
            except checks.CheckError as exc:
                self.counter.fail(str(exc))
            report = None
        return times


class CliRounds:
    """In-process `run_cli` over generated files; every output checked."""

    def __init__(self, spec: dict, counter: Counter):
        self.work = spec["work"]
        self.n = scenarios.DEFAULT_SAMPLES
        self.files = scenarios.write_cells(self.work, spec["seed"])
        self.checker = checks.RunDirChecker()
        self.counter = counter
        self.k = 0

    def check_pass(self) -> None:
        self.run_round()  # the first output of each file gets every check

    def run_round(self) -> list[float]:
        times = []
        for path, gen in self.files:
            out = os.path.join(self.work, f"inproc-{self.k}")
            self.k += 1
            self.counter.attempted += 1
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = jamsim.cli.run_cli(["run", path, "--out", out, "--reproducible"])
            except Exception as exc:  # a failed operation is counted, the run goes on
                code = repr(exc)
            times.append(time.perf_counter() - t0)
            try:
                if code != 0:
                    raise checks.CheckError(f"{gen.name}: run_cli ended with {code}")
                self.checker.check(out, gen, self.n, buf.getvalue())
            except checks.CheckError as exc:
                self.counter.fail(str(exc))
            shutil.rmtree(out, ignore_errors=True)
        return times


def _rounds(spec: dict, counter: Counter):
    if spec["mode"] == "sweep":
        return Sweep(spec, counter)
    return CliRounds(spec, counter)


def _untraced(spec: dict) -> dict:
    counter = Counter()
    rounds = _rounds(spec, counter)
    rounds.check_pass()
    best = float("inf")
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        best = min(best, *rounds.run_round())
        if time.perf_counter() >= deadline:
            break
    return {
        "attempted": counter.attempted, "failed": counter.failed, "errors": counter.errors,
        "call_s": best,
        "msamples_per_s": rounds.n / best / 1e6,
    }


def _traced(spec: dict) -> dict:
    counter = Counter()
    tracer = Tracer()
    tracer.install()  # a sweep's set-up calls build_pipeline once
    rounds = _rounds(spec, counter)
    tracer.uninstall()
    rounds.check_pass()
    plain, traced = [], []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        plain.append(sum(rounds.run_round()))
        tracer.install()
        traced.append(sum(rounds.run_round()))
        tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    fallback = None
    if spec["mode"] == "sweep":
        fallback = tracer.tag = "probe"
        tracer.install()
        CliRounds(spec, counter).run_round()
        tracer.uninstall()
    return {
        "attempted": counter.attempted, "failed": counter.failed, "errors": counter.errors,
        "layers": layer_metrics(tracer.spans, fallback),
        "spans": len(tracer.spans),
        "overhead_pct": (min(traced) / min(plain) - 1.0) * 100.0,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(jamsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported jamsim from {jamsim.__file__}, not from {src}")
    result = _traced(spec) if spec["trace"] else _untraced(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
