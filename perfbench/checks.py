"""Output checks that depend only on the band plan, the scipy oracle and numpy.

Nothing here compares against a stored copy of jamsim's output.  Each
check raises `CheckError` with a message naming what was wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from scenarios import (
    GAIN,
    GAUSSIAN_SIGMA,
    HIGH_V,
    RAYLEIGH_SIGMA,
    SAMPLE_RATE,
    SKIP_FRACTION,
    GenScenario,
    input_samples,
    steady_state,
)

#: How many standard deviations of the mean-square estimate a jammer's
#: settled power may stray from the prediction, plus a relative allowance
#: for the filter design differing from scipy's (< 1e-3 dB at order 6).
RMS_SIGMAS = 7.0
RMS_MODEL_REL = 1e-3
#: Parseval: summed spectrum power against the input's mean square.
PARSEVAL_REL = 1e-6
#: Per bin, against numpy's own DFT of the recomputed input.
BIN_REL = 1e-6
BIN_ABS_OF_TOTAL = 1e-12

#: Which oracle filter feeds each jammer, and which verdict gates it.
JAMMERS = (("jammer1", "trigger1", "downlink", "band3"),
           ("jammer2", "trigger2", "band40", "band40"))
TIMESERIES = ("jammer1", "jammer2", "trigger1", "trigger2")


class CheckError(Exception):
    """A program output disagreed with the independent expectation."""


def expected_mean_square(scen: GenScenario, filter_name: str, n: int) -> tuple[float, float]:
    """(prediction, tolerance) for a gated-on jammer's settled mean square.

    The output is G*s + g + r with s the oracle's steady-state filter
    output, g ~ N(0, sg^2) and r ~ Rayleigh(sr), i.i.d. per sample.  Its
    expected mean square is G^2 <s^2> + 2G <s> E[n] + sg^2 + 2 sr^2; the
    tolerance is RMS_SIGMAS standard deviations of the M-sample estimate.
    """
    tail = steady_state(scen, filter_name, n)[int(SKIP_FRACTION * n):]
    m = tail.size
    ms_s, mean_s = float(np.mean(tail * tail)), float(np.mean(tail))
    sg, sr = GAUSSIAN_SIGMA, RAYLEIGH_SIGMA
    root = math.sqrt(math.pi / 2.0)
    e1 = sr * root
    e2 = sg**2 + 2.0 * sr**2
    e3 = 3.0 * root * sr**3 + 3.0 * sg**2 * sr * root
    e4 = 3.0 * sg**4 + 12.0 * sg**2 * sr**2 + 8.0 * sr**4
    prediction = GAIN**2 * ms_s + 2.0 * GAIN * mean_s * e1 + e2
    variance = (4.0 * GAIN**2 * ms_s * (e2 - e1**2) + (e4 - e2**2)
                + 4.0 * GAIN * mean_s * (e3 - e1 * e2)) / m
    return prediction, RMS_SIGMAS * math.sqrt(variance) + RMS_MODEL_REL * prediction


def check_verdicts(scen: GenScenario, band3: bool, band40: bool) -> None:
    if (band3, band40) != (scen.band3, scen.band40):
        raise CheckError(f"{scen.name}: verdicts band3={band3} band40={band40}, band plan "
                         f"says band3={scen.band3} band40={scen.band40}")


def check_signals(scen: GenScenario, n: int, gates: dict, jammers: dict) -> dict:
    """Gate levels, zero-when-idle and settled jammer power; returns jammer RMS."""
    start = int(SKIP_FRACTION * n)
    measured = {}
    for jammer, trigger, filter_name, band in JAMMERS:
        on = getattr(scen, band)
        gate = np.asarray(gates[trigger], dtype=np.float64)
        out = np.asarray(jammers[jammer], dtype=np.float64)
        if gate.size != n or out.size != n:
            raise CheckError(f"{scen.name}: {trigger}/{jammer} hold {gate.size}/{out.size} "
                             f"samples, expected {n}")
        if not np.all((gate == 0.0) | (gate == HIGH_V)):
            raise CheckError(f"{scen.name}: {trigger} holds a level other than 0 or {HIGH_V} V")
        settled = gate[start:]
        if not np.all(settled == (HIGH_V if on else 0.0)):
            raise CheckError(f"{scen.name}: {trigger} is not settled "
                             f"{'high' if on else 'low'} after the skip region")
        idle = gate == 0.0
        if np.any(out[idle] != 0.0):
            k = int(np.flatnonzero(idle & (out != 0.0))[0])
            raise CheckError(f"{scen.name}: {jammer} emits {out[k]!r} V at sample {k} "
                             f"where its gate is low")
        tail = out[start:]
        mean_square = float(np.mean(tail * tail))
        if on:
            prediction, tol = expected_mean_square(scen, filter_name, n)
            if abs(mean_square - prediction) > tol:
                raise CheckError(f"{scen.name}: {jammer} settled mean square {mean_square:.6g} "
                                 f"V^2, oracle predicts {prediction:.6g} +- {tol:.3g}")
        measured[jammer] = math.sqrt(mean_square)
    return measured


def check_spectrum(scen: GenScenario, n: int, freqs: np.ndarray, power_db: np.ndarray) -> None:
    """Bin frequencies, per-bin power and Parseval against numpy's DFT."""
    bins = n // 2 + 1
    if freqs.size != bins or power_db.size != bins:
        raise CheckError(f"{scen.name}: spectrum has {freqs.size} rows, expected {bins}")
    if not np.allclose(freqs, np.arange(bins) * (SAMPLE_RATE / n), rtol=1e-8, atol=0.0):
        raise CheckError(f"{scen.name}: spectrum bin frequencies are not k*fs/n")
    x = input_samples(scen, n)
    mean_square = float(np.mean(x * x))
    power = 10.0 ** (power_db / 10.0)
    if abs(float(power.sum()) - mean_square) > PARSEVAL_REL * mean_square:
        raise CheckError(f"{scen.name}: spectrum sums to {power.sum():.9g} V^2 but the input's "
                         f"mean square is {mean_square:.9g} V^2 (Parseval)")
    ref = np.abs(np.fft.rfft(x)) ** 2 / float(n) ** 2
    ref[1:] *= 2.0
    if n % 2 == 0:
        ref[-1] /= 2.0
    err = np.abs(power - ref)
    bad = err > BIN_REL * ref + BIN_ABS_OF_TOTAL * mean_square
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise CheckError(f"{scen.name}: spectrum bin {k} reads {power_db[k]!r} dB, "
                         f"numpy gives {10.0 * math.log10(max(ref[k], 1e-300))!r} dB")


def check_report(scen: GenScenario, n: int, report) -> tuple:
    """Check one in-process `ScenarioReport`; returns a fingerprint of it."""
    check_verdicts(scen, bool(report.verdicts["band3"]), bool(report.verdicts["band40"]))
    gates = {name: report.gates[name].levels for name in ("trigger1", "trigger2")}
    jammers = {name: report.branch_buffers[name].samples for name in ("jammer1", "jammer2")}
    measured = check_signals(scen, n, gates, jammers)
    for name, field in (("jammer1", report.jammer1_rms), ("jammer2", report.jammer2_rms)):
        if not math.isclose(field, measured[name], rel_tol=1e-9, abs_tol=1e-12):
            raise CheckError(f"{scen.name}: report {name} RMS {field!r} V, samples give "
                             f"{measured[name]!r} V")
    return fingerprint(report)


def fingerprint(report) -> tuple:
    """What two runs of one scenario with one seed must agree on exactly."""
    return (report.verdicts["band3"], report.verdicts["band40"],
            report.jammer1_rms, report.jammer2_rms)


def _read_csv(path: str, header: str, n_rows: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise CheckError(f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckError(f"{os.path.basename(path)}: unreadable row: {exc}") from None
    if data.shape != (n_rows, 2):
        raise CheckError(f"{os.path.basename(path)}: {data.shape[0]} rows of {data.shape[1]} "
                         f"columns, expected {n_rows} of 2")
    return data


def verdict_line(band3: bool, band40: bool) -> str:
    return (f"band3: {'JAMMING' if band3 else 'idle'}, "
            f"band40: {'JAMMING' if band40 else 'idle'}")


def check_run_dir(out_dir: str, scen: GenScenario, n: int, stdout: str) -> None:
    """Check everything one `jamsim run` wrote and printed."""
    if stdout.strip().splitlines()[-1:] != [verdict_line(scen.band3, scen.band40)]:
        raise CheckError(f"{scen.name}: printed {stdout.strip()!r}, band plan expects "
                         f"{verdict_line(scen.band3, scen.band40)!r}")
    series = {}
    for name in TIMESERIES:
        data = _read_csv(os.path.join(out_dir, f"{name}.csv"), "time_s,value_v", n)
        if not np.allclose(data[:, 0], np.arange(n) / SAMPLE_RATE, rtol=1e-8, atol=0.0):
            raise CheckError(f"{scen.name}: {name}.csv time column is not i/fs")
        series[name] = data[:, 1]
    measured = check_signals(scen, n, series, series)
    spectrum = _read_csv(os.path.join(out_dir, "input_spectrum.csv"), "freq_hz,power_db",
                         n // 2 + 1)
    check_spectrum(scen, n, spectrum[:, 0], spectrum[:, 1])
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    verdicts = manifest.get("verdicts", {})
    check_verdicts(scen, verdicts.get("band3"), verdicts.get("band40"))
    if manifest.get("config", {}).get("n_samples") != n:
        raise CheckError(f"{scen.name}: manifest n_samples is not {n}")
    results = manifest.get("results", {})
    for name in ("jammer1", "jammer2"):
        field = results.get(f"{name}_rms_v")
        if not isinstance(field, float) or not math.isclose(field, measured[name],
                                                            rel_tol=1e-6, abs_tol=1e-9):
            raise CheckError(f"{scen.name}: manifest {name} RMS {field!r} V, CSV gives "
                             f"{measured[name]!r} V")


def digest_dir(out_dir: str) -> dict:
    """sha256 of every file in a run directory, by name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class RunDirChecker:
    """Checks every `jamsim run --reproducible` output of one benchmark run.

    The first output of each scenario gets every check; a later one must
    print the same verdict line and match the first byte for byte.
    """

    def __init__(self):
        self._digests: dict[str, dict] = {}

    def check(self, out_dir: str, scen: GenScenario, n: int, stdout: str) -> None:
        digest = digest_dir(out_dir)
        first = self._digests.get(scen.name)
        if first is None:
            check_run_dir(out_dir, scen, n, stdout)
            self._digests[scen.name] = digest
            return
        if stdout.strip().splitlines()[-1:] != [verdict_line(scen.band3, scen.band40)]:
            raise CheckError(f"{scen.name}: printed {stdout.strip()!r} on a repeated run")
        if digest != first:
            changed = sorted(k for k in set(first) | set(digest) if first.get(k) != digest.get(k))
            raise CheckError(f"{scen.name}: --reproducible output differs between "
                             f"invocations in {changed}")
