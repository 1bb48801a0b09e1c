"""Long buffers: the stages split in halves give the bytes of a run on one thread.

From 2**17 samples up, each per-sample stage runs the second half of its
samples on one helper thread.  The references here are single-threaded
versions of each stage: whole-buffer, single-pass ones for the per-sample
stages, and for the filters a serial run cut on the bank's fixed product
grid.  The grid does not depend on the split, so these tests hold on any
BLAS kernel; the one-product filter reference is checked within a tolerance.
"""

import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d

import jamsim
from jamsim import filterbank, rng
from jamsim.analysis import rms
from jamsim.filterbank import _GROUP_LEN, _PRODUCT_MULADDS, _run_bank
from jamsim.pipeline import MEASURE_SKIP_FRACTION
from jamsim.trigger import TriggerConfig, default_envelope_window

SPLIT = 2**17


def reference_tones(tones, fs, n):
    """multi_tone as one ufunc sequence over the whole buffer."""
    t = np.arange(n) / fs
    acc, tmp = np.zeros(n), np.empty(n)
    for tone in tones:
        np.multiply(2.0 * np.pi * tone.frequency, t, out=tmp)
        tmp += tone.phase
        np.sin(tmp, out=tmp)
        tmp *= tone.amplitude
        acc += tmp
    return acc


def reference_filter(stages, x):
    """apply_filter, serially, with one product per piece of the run's fixed grid.

    The buffer is zero-padded to whole groups of 64 blocks.  End-state and state-out
    products cover `span` blocks from block 0, each scan step's products `cols`
    columns from its shift, right to left, and each Toeplitz product one group.
    """
    n_states = len(stages._state_in)
    n_blocks = -(-x.size // _GROUP_LEN) * 64
    blocks = np.zeros((n_blocks, 64))
    blocks.reshape(-1)[:x.size] = x
    span = max(1, _PRODUCT_MULADDS // (_GROUP_LEN * n_states)) * 64
    cols = max(1, _PRODUCT_MULADDS // n_states**2)
    starts = np.zeros((n_states, n_blocks + 1))
    ends = starts[:, 1:]
    pieces = [(a, min(a + span, n_blocks)) for a in range(0, n_blocks, span)]
    for a, b in pieces:
        ends[:, a:b] = stages._state_in @ blocks[a:b].T
    shift = 1
    for step in stages._scan_steps:
        if shift >= n_blocks:
            break
        for a in reversed(range(shift, n_blocks, cols)):
            b = min(a + cols, n_blocks)
            ends[:, a:b] += step @ ends[:, a - shift:b - shift]
        shift *= 2
    y = np.empty((n_blocks, 64))
    toeplitz_t = np.ascontiguousarray(stages._toeplitz.T)
    for a in range(0, n_blocks, 64):
        y[a:a + 64] = blocks[a:a + 64] @ toeplitz_t
    for a, b in pieces:
        y[a:b] += starts[:, a:b].T @ stages._state_out.T
    return y.reshape(-1)[:x.size]


def uncut_reference(stages, x):
    """apply_filter with one product per step over every block at once, and a tail product."""
    n_blocks, tail = divmod(x.size, 64)
    blocks = x[:x.size - tail].reshape(n_blocks, 64)
    starts = np.zeros((len(stages._state_in), n_blocks + 1))
    ends = starts[:, 1:]
    np.matmul(stages._state_in, blocks.T, out=ends)
    shift = 1
    for step in stages._scan_steps:
        if shift >= n_blocks:
            break
        ends[:, shift:] += step @ ends[:, :-shift]
        shift *= 2
    y = np.empty(x.size)
    y[:x.size - tail] = (blocks @ stages._toeplitz.T
                         + starts[:, :n_blocks].T @ stages._state_out.T).reshape(-1)
    if tail:
        y[-tail:] = (stages._toeplitz[:tail, :tail] @ x[-tail:]
                     + stages._state_out[:tail] @ starts[:, n_blocks])
    return y


def reference_trigger(x, config, fs):
    """Rectify, trailing max over the window (scipy's maximum_filter1d), np.where."""
    window = min(config.envelope_window or default_envelope_window(fs), x.size)
    env = maximum_filter1d(np.abs(x), size=window, origin=(window - 1) - window // 2,
                           mode="constant", cval=-np.inf)
    return np.where(env > config.threshold, config.high_level, 0.0)


def reference_jam(x, levels, config):
    """gain * signal + Gaussian + Rayleigh over the whole span the gate is ever high."""
    out = np.zeros(x.size)
    high = np.flatnonzero(levels)
    if high.size:
        lo, hi = high[0], high[-1] + 1
        noise = config.noise
        active = (config.gain * x[lo:hi]
                  + rng.gaussian_stream(noise.gaussian_sigma, noise.seed, hi - lo, lo)
                  + rng.rayleigh_stream(noise.rayleigh_sigma, noise.seed, hi - lo, lo))
        np.copyto(out[lo:hi], active, where=levels[lo:hi] > 0.0)
    return out


def reference_run(pipeline, scenario):
    cfg = pipeline.config
    fs = cfg.sample_rate
    source = reference_tones(scenario.tones, fs, cfg.n_samples)
    filtered = [reference_filter(stages, source) for stages in pipeline.filters]
    gate1 = reference_trigger(filtered[1], cfg.trigger, fs)
    gate2 = reference_trigger(filtered[3], cfg.trigger, fs)
    buffers = {"input": source, "filter1": filtered[0], "filter2": filtered[1],
               "filter3": filtered[2], "filter4": filtered[3],
               "jammer1": reference_jam(filtered[2], gate1, cfg.jammer3),
               "jammer2": reference_jam(filtered[3], gate2, cfg.jammer40)}
    return buffers, {"trigger1": gate1, "trigger2": gate2}


def assert_same_run(pipeline, scenario):
    report = jamsim.run_scenario(pipeline, scenario)
    buffers, gates = reference_run(pipeline, scenario)
    for name, samples in buffers.items():
        assert report.branch_buffers[name].samples.tobytes() == samples.tobytes(), name
    for name, levels in gates.items():
        assert report.gates[name].levels.tobytes() == levels.tobytes(), name
    fs = pipeline.config.sample_rate
    for got, name in ((report.jammer1_rms, "jammer1"), (report.jammer2_rms, "jammer2")):
        assert got == rms(jamsim.SignalBuffer(buffers[name], fs), MEASURE_SKIP_FRACTION)


@pytest.mark.parametrize("n", [4096, SPLIT - 1, SPLIT, SPLIT + 1, 2**20 + 3])
@pytest.mark.parametrize("index", range(4))
def test_run_matches_the_whole_buffer_reference(n, index):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(n_samples=n))
    assert_same_run(pipeline, jamsim.builtin_scenarios()[index])


@pytest.mark.parametrize("window", [1, 6, 7, 1000, SPLIT // 2 + 3, 10**12])
@pytest.mark.parametrize("index", [1, 3])
def test_envelope_lead_in_crosses_the_split(window, index):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(
        n_samples=SPLIT + 1, trigger=TriggerConfig(envelope_window=window)))
    assert_same_run(pipeline, jamsim.builtin_scenarios()[index])


class Boom(Exception):
    pass


def test_an_error_in_the_helper_half_surfaces_unchanged(monkeypatch):
    # The jammers split the span their gate is high, which starts after the
    # filters settle: twice the threshold makes that span long enough.
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(n_samples=2 * SPLIT))
    boom, raised_in = Boom("helper half"), []
    draw = rng.gaussian_stream

    def failing_draw(sigma, seed, count, start=0):
        if threading.current_thread() is not threading.main_thread():
            raised_in.append(threading.current_thread().name)
            raise boom
        return draw(sigma, seed, count, start)

    monkeypatch.setattr(rng, "gaussian_stream", failing_draw)
    before = threading.active_count()
    with pytest.raises(Boom) as err:
        jamsim.run_scenario(pipeline, jamsim.builtin_scenarios()[3])
    assert err.value is boom
    assert raised_in
    assert threading.active_count() == before


def test_a_short_buffer_starts_no_thread(monkeypatch):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(n_samples=SPLIT - 1))
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    jamsim.run_scenario(pipeline, jamsim.builtin_scenarios()[3])
    assert started == []


def test_concurrent_runs_give_the_serial_bytes():
    """More callers than CPUs, each with its helper threads, switching often."""
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(n_samples=SPLIT + 1))
    scenarios = jamsim.builtin_scenarios()

    def fingerprint(report):
        return [buf.samples.tobytes() for buf in report.branch_buffers.values()] + [
            gate.levels.tobytes() for gate in report.gates.values()]

    serial = [fingerprint(jamsim.run_scenario(pipeline, s)) for s in scenarios]
    results = [None] * 8
    errors = []

    def call(k):
        try:
            results[k] = fingerprint(jamsim.run_scenario(pipeline, scenarios[k % 4]))
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
    assert results == [serial[k % 4] for k in range(len(results))]


# The four band filters run as one bank: each row must give the bytes of the
# filter run alone and of the grid reference.  Lengths straddle one block (64),
# 18 and 19 blocks (1152, 1216), one group of 64 blocks and the split.
BANK_LENGTHS = [2, 63, 64, 65, 127, 128, 1151, 1152, 1215, 1216, 2048, 4095, 4096, 4097,
                SPLIT - 1, SPLIT + 1, 2**20 + 3]


def design_bank(fs, order=6):
    return tuple(jamsim.design_bandpass(spec, fs, order) for spec in jamsim.BAND_FILTER_SPECS)


def noise_buffer(n, fs):
    return jamsim.SignalBuffer(np.random.default_rng(n).standard_normal(n), fs)


@pytest.mark.parametrize("n", BANK_LENGTHS)
def test_bank_rows_match_each_filter_alone_and_the_reference(n):
    bank, x = design_bank(10e9), noise_buffer(n, 10e9)
    rows = jamsim.apply_filters(bank, x)
    assert len(rows) == len(bank)
    for stages, row in zip(bank, rows):
        assert row.sample_rate == x.sample_rate
        assert row.samples.tobytes() == jamsim.apply_filter(stages, x).samples.tobytes()
        assert row.samples.tobytes() == reference_filter(stages, x.samples).tobytes()
        assert_near_uncut(stages, x, row)


# The grid rounds otherwise than one product per step over the whole buffer: within
# this share of each row's largest value (at most 1.6e-15 on the cases here).
UNCUT_TOLERANCE = 4e-15


def assert_near_uncut(stages, x, row):
    gap = np.abs(row.samples - uncut_reference(stages, x.samples)).max(initial=0.0)
    assert gap <= UNCUT_TOLERANCE * np.abs(row.samples).max(initial=0.0)


@pytest.mark.parametrize("n", [1151, SPLIT + 7])
@pytest.mark.parametrize("fs", [5e9, 10e9])
@pytest.mark.parametrize("order", [2, 12, 24])
def test_bank_rows_match_each_filter_alone_at_other_orders(order, fs, n):
    bank, x = design_bank(fs, order), noise_buffer(n, fs)
    for stages, row in zip(bank, jamsim.apply_filters(bank, x)):
        assert row.samples.tobytes() == jamsim.apply_filter(stages, x).samples.tobytes()


# A bank runs every filter through the longest filter's scan steps, zero-padded: a
# filter past its own last step adds a zero product, which must change no byte.
ZERO_STEP_N = 2**18 + 2**12 + 7  # 4160 blocks: 13 shifts, past every filter's last step
ZERO_STEP_INPUTS = {
    "gaussian": lambda n: np.random.default_rng(n).standard_normal(n),
    "negative zero": lambda n: np.full(n, -0.0),
    "negative impulse": lambda n: np.r_[-1.0, np.zeros(n - 1)],
}


@pytest.mark.parametrize("kind", ZERO_STEP_INPUTS)
@pytest.mark.parametrize("fs,order,n_steps", [(10e9, 6, [9, 10, 10, 10]),
                                              (100e9, 2, [12, 13, 13, 12])])
def test_a_zero_scan_step_changes_no_byte(fs, order, n_steps, kind):
    bank = design_bank(fs, order)
    assert [len(stages._scan_steps) for stages in bank] == n_steps
    assert (ZERO_STEP_N // 64 - 1).bit_length() >= max(n_steps)
    x = jamsim.SignalBuffer(ZERO_STEP_INPUTS[kind](ZERO_STEP_N), fs)
    for stages, row in zip(bank, jamsim.apply_filters(bank, x)):
        assert row.samples.tobytes() == jamsim.apply_filter(stages, x).samples.tobytes()


# Every product is cut on one grid fixed from block 0, and the halves meet on its lines:
# a run on one thread makes the BLAS calls of the split run, so it gives its bytes.
@pytest.mark.parametrize("n", [SPLIT - 1, SPLIT + 1, ZERO_STEP_N, 2**20 + 3])
@pytest.mark.parametrize("fs", [5e9, 10e9])
@pytest.mark.parametrize("order", [2, 6, 12, 24])
def test_a_serial_run_gives_the_bytes_of_the_split_run(monkeypatch, order, fs, n):
    bank, x = design_bank(fs, order), noise_buffer(n, fs)
    split = jamsim.apply_filters(bank, x)
    monkeypatch.setattr(filterbank, "_in_halves", lambda work, lo, hi, samples: work(0, lo, hi))
    for row, serial in zip(split, jamsim.apply_filters(bank, x)):
        assert row.samples.tobytes() == serial.samples.tobytes()


def test_a_filter_designed_at_another_rate_is_rejected():
    bank = design_bank(10e9)[:3] + (jamsim.design_bandpass(jamsim.BAND_FILTER_SPECS[3], 5e9),)
    with pytest.raises(jamsim.InvalidParameter, match="filter designed for 5000000000.0 Hz"):
        jamsim.apply_filters(bank, noise_buffer(4096, 10e9))


@pytest.mark.parametrize("n", [0, 4096, SPLIT + 1])
def test_an_empty_bank_gives_no_rows(n):
    assert jamsim.apply_filters((), noise_buffer(n, 10e9)) == ()


def test_a_bank_that_mixes_orders_is_rejected():
    bank = design_bank(10e9)[:3] + (jamsim.design_bandpass(jamsim.BAND_FILTER_SPECS[3], 10e9, 12),)
    with pytest.raises(jamsim.InvalidParameter, match="mixes orders 6 and 12"):
        jamsim.apply_filters(bank, noise_buffer(4096, 10e9))


# A Pipeline plans its bank once; the public apply_filters plans on each call.
PLAN_CASES = ([(6, n) for n in (2, 63, 64, 65, 4096, SPLIT + 1)]
              + [(order, n) for order in (2, 12, 24) for n in (1151, SPLIT + 7)])


@pytest.mark.parametrize("order,n", PLAN_CASES)
def test_a_pipelines_plan_gives_the_bytes_of_a_public_call(order, n):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(filter_order=order))
    x = noise_buffer(n, pipeline.config.sample_rate)
    rows, public = _run_bank(pipeline._bank, x), jamsim.apply_filters(pipeline.filters, x)
    assert len(rows) == 4
    for stages, row, want in zip(pipeline.filters, rows, public):
        assert row.samples.tobytes() == want.samples.tobytes()
        assert row.samples.tobytes() == reference_filter(stages, x.samples).tobytes()
        assert_near_uncut(stages, x, row)


@pytest.mark.parametrize("order", [2, 6, 24])
def test_a_plan_is_read_only_and_holds_every_filters_steps(order):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(filter_order=order))
    plan = pipeline._bank
    arrays = [getattr(plan, f.name) for f in fields(plan)
              if isinstance(getattr(plan, f.name), np.ndarray)]
    assert len(arrays) == 3
    assert not any(array.flags.writeable for array in arrays)
    assert plan.filters == pipeline.filters
    for stages, steps in zip(plan.filters, plan.steps):
        n_steps = len(stages._scan_steps)
        assert np.array_equal(steps[:n_steps], stages._scan_steps) and not steps[n_steps:].any()


def test_replacing_the_config_plans_the_new_filters():
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(n_samples=SPLIT + 7))
    twelve = replace(pipeline, config=replace(pipeline.config, filter_order=12))
    assert twelve._bank.state_in.shape[:2] == (4, 12)  # six sections, two states each
    assert set(twelve._bank.filters) == set(twelve.filters)
    report = jamsim.run_scenario(twelve, jamsim.builtin_scenarios()[3])
    for k, stages in enumerate(twelve.filters, 1):
        alone = jamsim.apply_filter(stages, report.branch_buffers["input"])
        assert report.branch_buffers[f"filter{k}"].samples.tobytes() == alone.samples.tobytes()


def test_a_pipelines_plan_rejects_a_buffer_at_another_rate():
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config())
    with pytest.raises(jamsim.InvalidParameter, match="filter designed for 10000000000.0 Hz"):
        _run_bank(pipeline._bank, noise_buffer(4096, 5e9))


@pytest.mark.parametrize("n", [4096, SPLIT + 1])
def test_an_all_zero_input_gives_positive_zero_rows(n):
    for row in jamsim.apply_filters(design_bank(10e9), jamsim.SignalBuffer(np.zeros(n), 10e9)):
        assert not np.signbit(row.samples).any()


@pytest.mark.parametrize("n,size,threads", [
    (SPLIT - 1, 4, 0),  # no pass splits a short buffer
    (SPLIT + 1, 1, 2),  # end states and outputs split; one filter's scan stays here
    (SPLIT + 1, 4, 3),  # the scans split by filter too
])
def test_threads_a_bank_starts(monkeypatch, n, size, threads):
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    jamsim.apply_filters(design_bank(10e9)[:size], noise_buffer(n, 10e9))
    assert len(started) == threads


class NumpyFailingInTheHelperScan:
    """numpy, except that `matmul` raises when a helper thread's scan half calls it."""

    def __init__(self, boom, raised_in):
        self.boom, self.raised_in = boom, raised_in

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        if (threading.current_thread() is not threading.main_thread()
                and sys._getframe(1).f_code.co_name == "scans"):
            self.raised_in.append(threading.current_thread().name)
            raise self.boom
        return np.matmul(*args, **kwargs)


def test_an_error_in_the_helper_scan_half_surfaces_unchanged(monkeypatch):
    boom, raised_in = Boom("helper scan"), []
    monkeypatch.setattr(filterbank, "np", NumpyFailingInTheHelperScan(boom, raised_in))
    before = threading.active_count()
    with pytest.raises(Boom) as err:
        jamsim.apply_filters(design_bank(10e9), noise_buffer(SPLIT + 1, 10e9))
    assert err.value is boom
    assert raised_in
    assert threading.active_count() == before


@pytest.mark.parametrize("order", [2, 6, 24])
def test_the_toeplitz_transpose_is_contiguous_and_read_only(order):
    bank = design_bank(10e9, order)
    t = filterbank._plan_bank(bank).toeplitz_t
    assert t.flags.c_contiguous and not t.flags.writeable
    for stages, stacked in zip(bank, t):
        assert np.array_equal(stacked[0], stages._toeplitz.T)
