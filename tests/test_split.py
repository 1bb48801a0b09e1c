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
from jamsim.filterbank import _GROUP_LEN, _PRODUCT_MULADDS, _plan_bank, _run_bank
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


def matrices(stages):
    """A filter's own plan as (state_in, scan steps, C-contiguous Toeplitz, state_out)."""
    plan = stages._plan
    return (plan.state_in[0], plan.steps[0], np.ascontiguousarray(plan.toeplitz_t[0, 0].T),
            plan.state_out[0])


def reference_filter(stages, x):
    """apply_filter, serially, with one product per piece of the run's fixed grid.

    The buffer is zero-padded to whole groups of 64 blocks.  End-state and state-out
    products cover `span` blocks from block 0, each scan step's products `cols`
    columns from its shift, right to left, and each Toeplitz product one group.
    """
    state_in, scan_steps, toeplitz, state_out = matrices(stages)
    n_states = len(state_in)
    n_blocks = -(-x.size // _GROUP_LEN) * 64
    blocks = np.zeros((n_blocks, 64))
    blocks.reshape(-1)[:x.size] = x
    span = max(1, _PRODUCT_MULADDS // (_GROUP_LEN * n_states)) * 64
    cols = max(1, _PRODUCT_MULADDS // n_states**2)
    starts = np.zeros((n_states, n_blocks + 1))
    ends = starts[:, 1:]
    pieces = [(a, min(a + span, n_blocks)) for a in range(0, n_blocks, span)]
    for a, b in pieces:
        ends[:, a:b] = state_in @ blocks[a:b].T
    shift = 1
    for step in scan_steps:
        if shift >= n_blocks:
            break
        for a in reversed(range(shift, n_blocks, cols)):
            b = min(a + cols, n_blocks)
            ends[:, a:b] += step @ ends[:, a - shift:b - shift]
        shift *= 2
    y = np.empty((n_blocks, 64))
    toeplitz_t = np.ascontiguousarray(toeplitz.T)
    for a in range(0, n_blocks, 64):
        y[a:a + 64] = blocks[a:a + 64] @ toeplitz_t
    for a, b in pieces:
        y[a:b] += starts[:, a:b].T @ state_out.T
    return y.reshape(-1)[:x.size]


def uncut_reference(stages, x):
    """apply_filter with one product per step over every block at once, and a tail product."""
    state_in, scan_steps, toeplitz, state_out = matrices(stages)
    n_blocks, tail = divmod(x.size, 64)
    blocks = x[:x.size - tail].reshape(n_blocks, 64)
    starts = np.zeros((len(state_in), n_blocks + 1))
    ends = starts[:, 1:]
    np.matmul(state_in, blocks.T, out=ends)
    shift = 1
    for step in scan_steps:
        if shift >= n_blocks:
            break
        ends[:, shift:] += step @ ends[:, :-shift]
        shift *= 2
    y = np.empty(x.size)
    y[:x.size - tail] = (blocks @ toeplitz.T
                         + starts[:, :n_blocks].T @ state_out.T).reshape(-1)
    if tail:
        y[-tail:] = (toeplitz[:tail, :tail] @ x[-tail:]
                     + state_out[:tail] @ starts[:, n_blocks])
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
    uplink, downlink, band40 = (reference_filter(stages, source) for stages in pipeline.filters[1:])
    gate1 = reference_trigger(uplink, cfg.trigger, fs)
    gate2 = reference_trigger(band40, cfg.trigger, fs)
    rows = {"filter2": uplink, "filter3": downlink, "filter4": band40}
    return source, rows, {"band3": (gate1, reference_jam(downlink, gate1, cfg.jammer3)),
                          "band40": (gate2, reference_jam(band40, gate2, cfg.jammer40))}


def assert_same_run(pipeline, scenario):
    report = jamsim.run_scenario(pipeline, scenario)
    source, rows, branches = reference_run(pipeline, scenario)
    assert report.input.samples.tobytes() == source.tobytes()
    for name, samples in rows.items():
        assert report.rows[name].samples.tobytes() == samples.tobytes(), name
    fs = pipeline.config.sample_rate
    for name, (gate, jammed) in branches.items():
        got = report.branches[name]
        assert got.gate.samples.tobytes() == gate.tobytes(), name
        assert got.jammer.samples.tobytes() == jammed.tobytes(), name
        assert got.rms == rms(jamsim.SignalBuffer(jammed, fs), MEASURE_SKIP_FRACTION), name


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
        return [buf.samples.tobytes() for buf in (report.input, *report.rows.values())] + [
            buf.samples.tobytes() for branch in report.branches.values()
            for buf in (branch.gate, branch.jammer)]

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


def run_bank(bank, x):
    """The bank's rows from one plan of its filters, as `run_scenario` runs filters 2-4."""
    return _run_bank(_plan_bank(bank), x)


@pytest.mark.parametrize("n", BANK_LENGTHS)
def test_bank_rows_match_each_filter_alone_and_the_reference(n):
    bank, x = design_bank(10e9), noise_buffer(n, 10e9)
    rows = run_bank(bank, x)
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
    for stages, row in zip(bank, run_bank(bank, x)):
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
    assert [stages._plan.steps.shape[1] for stages in bank] == n_steps
    assert (ZERO_STEP_N // 64 - 1).bit_length() >= max(n_steps)
    x = jamsim.SignalBuffer(ZERO_STEP_INPUTS[kind](ZERO_STEP_N), fs)
    for stages, row in zip(bank, run_bank(bank, x)):
        assert row.samples.tobytes() == jamsim.apply_filter(stages, x).samples.tobytes()


# Every product is cut on one grid fixed from block 0, and the halves meet on its lines:
# a run on one thread makes the BLAS calls of the split run, so it gives its bytes.
@pytest.mark.parametrize("n", [SPLIT - 1, SPLIT + 1, ZERO_STEP_N, 2**20 + 3])
@pytest.mark.parametrize("fs", [5e9, 10e9])
@pytest.mark.parametrize("order", [2, 6, 12, 24])
def test_a_serial_run_gives_the_bytes_of_the_split_run(monkeypatch, order, fs, n):
    bank, x = design_bank(fs, order), noise_buffer(n, fs)
    split = run_bank(bank, x)
    monkeypatch.setattr(filterbank, "_in_halves", lambda work, lo, hi, samples: work(0, lo, hi))
    for row, serial in zip(split, run_bank(bank, x)):
        assert row.samples.tobytes() == serial.samples.tobytes()


# A Pipeline plans filters 2-4 once; apply_filter runs a filter's own plan and plans nothing.
PLAN_CASES = ([(6, n) for n in (2, 63, 64, 65, 4096, SPLIT + 1)]
              + [(order, n) for order in (2, 12, 24) for n in (1151, SPLIT + 7)])


@pytest.mark.parametrize("order,n", PLAN_CASES)
def test_a_pipelines_plan_gives_the_bytes_of_each_filters_own_plan(order, n):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(filter_order=order))
    x = noise_buffer(n, pipeline.config.sample_rate)
    wired = pipeline.filters[1:]
    rows, fresh = _run_bank(pipeline._bank, x), run_bank(wired, x)
    assert len(rows) == 3
    for stages, row, want in zip(wired, rows, fresh):
        assert row.samples.tobytes() == want.samples.tobytes()
        assert row.samples.tobytes() == jamsim.apply_filter(stages, x).samples.tobytes()
        assert row.samples.tobytes() == reference_filter(stages, x.samples).tobytes()
        assert_near_uncut(stages, x, row)


def test_apply_filter_plans_no_bank(monkeypatch):
    bank, x = design_bank(10e9), noise_buffer(SPLIT + 7, 10e9)
    want = [reference_filter(stages, x.samples).tobytes() for stages in bank]

    def refuse(bank):
        raise AssertionError("apply_filter planned a bank")

    monkeypatch.setattr(filterbank, "_plan_bank", refuse)
    assert [jamsim.apply_filter(stages, x).samples.tobytes() for stages in bank] == want


PLAN_ARRAYS = ("state_in", "toeplitz_t", "state_out", "steps")


@pytest.mark.parametrize("order", [2, 6, 24])
def test_a_pipelines_plan_rows_are_each_filters_own_plan(order):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(filter_order=order))
    plan, wired = pipeline._bank, pipeline.filters[1:]
    assert [f.name for f in fields(plan)] == ["sample_rate", *PLAN_ARRAYS]
    assert plan.sample_rate == pipeline.config.sample_rate
    for f, stages in enumerate(wired):
        own = stages._plan
        assert own.sample_rate == plan.sample_rate
        for name in PLAN_ARRAYS[:3]:
            assert np.array_equal(getattr(plan, name)[f], getattr(own, name)[0]), name
        n_steps = own.steps.shape[1]
        assert np.array_equal(plan.steps[f, :n_steps], own.steps[0])
        assert not plan.steps[f, n_steps:].any()
    assert plan.steps.shape[1] == max(stages._plan.steps.shape[1] for stages in wired)


@pytest.mark.parametrize("order", [2, 6, 24])
def test_every_plan_array_is_read_only(order):
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(filter_order=order))
    for plan in (pipeline._bank, *(stages._plan for stages in pipeline.filters)):
        for name in PLAN_ARRAYS:
            array = getattr(plan, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


def test_replacing_the_config_plans_the_new_filters():
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config(n_samples=SPLIT + 7))
    twelve = replace(pipeline, config=replace(pipeline.config, filter_order=12))
    assert twelve._bank.state_in.shape[:2] == (3, 12)  # six sections, two states each
    assert np.array_equal(twelve._bank.state_in,
                          np.concatenate([stages._plan.state_in for stages in twelve.filters[1:]]))
    report = jamsim.run_scenario(twelve, jamsim.builtin_scenarios()[3])
    for k, stages in enumerate(twelve.filters[1:], 2):
        alone = jamsim.apply_filter(stages, report.input)
        assert report.rows[f"filter{k}"].samples.tobytes() == alone.samples.tobytes()


def test_a_pipelines_plan_rejects_a_buffer_at_another_rate():
    pipeline = jamsim.build_pipeline(jamsim.default_pipeline_config())
    with pytest.raises(jamsim.InvalidParameter, match="filter designed for 10000000000.0 Hz"):
        _run_bank(pipeline._bank, noise_buffer(4096, 5e9))


@pytest.mark.parametrize("n", [4096, SPLIT + 1])
def test_an_all_zero_input_gives_positive_zero_rows(n):
    for row in run_bank(design_bank(10e9), jamsim.SignalBuffer(np.zeros(n), 10e9)):
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
    run_bank(design_bank(10e9)[:size], noise_buffer(n, 10e9))
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
        run_bank(design_bank(10e9), noise_buffer(SPLIT + 1, 10e9))
    assert err.value is boom
    assert raised_in
    assert threading.active_count() == before


@pytest.mark.parametrize("order", [2, 6, 24])
def test_the_toeplitz_transpose_is_contiguous_and_holds_the_impulse_response(order):
    bank = design_bank(10e9, order)
    t = _plan_bank(bank).toeplitz_t
    assert t.flags.c_contiguous
    lag = np.arange(64) - np.arange(64)[:, None]
    for stages, stacked in zip(bank, t):
        assert stages._plan.toeplitz_t.flags.c_contiguous
        assert np.array_equal(stacked, stages._plan.toeplitz_t[0])
        h = jamsim.apply_filter(stages, jamsim.SignalBuffer(np.r_[1.0, np.zeros(63)], 10e9)).samples
        assert np.array_equal(stacked[0], np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0))
