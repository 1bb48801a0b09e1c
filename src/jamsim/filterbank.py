"""The four detection bandpass filters and their biquad realizations.

Each band is realized as a Butterworth bandpass: an analog lowpass
prototype of order ``order/2`` is frequency-transformed to a bandpass
between the pre-warped band edges, mapped to z via the bilinear
transform, and factored into second-order recursive sections.  The
pre-warping makes the digital -3 dB points land exactly on the
requested edges.  Each section is normalized to unit magnitude at the
digital image of the analog geometric centre ``sqrt(w_low * w_high)``,
so the cascade has 0 dB gain there and matches scipy's ``butter``.
`FilterStages` holds the cascade as one read-only ``sos`` array.

The cascade runs blocked, in numpy alone.  Its sections' direct-form II
transposed delays, stacked, make one linear system ``s' = A s + B x``,
``y = C s + D x``.  Over a block of `BLOCK_LEN` samples the output is the
block's input times a lower-triangular Toeplitz of the impulse response,
plus ``C A^t`` times the state the block starts in.  Each block's start
state follows from ``s_k = A^L s_(k-1) + e_k``, where ``e_k`` is what
block k alone leaves in the state; a doubling scan (Blelloch 1990,
"Prefix sums and their applications"; Martin & Cundy 2018,
"Parallelizing linear recurrent neural nets over sequence length")
solves it in log2(blocks) matrix products.  `FilterStages` builds these
matrices once, at design time.  `apply_filters` runs a bank of one order in
three passes, one stacked product per piece and scan step for the whole bank,
each small enough for its calling thread alone and cut on one grid fixed from
block 0: the buffer is zero-padded to whole groups of `BLOCK_LEN` blocks.  Long
buffers split the end states and outputs on grid lines, and the scans by filter,
over two threads, so on any BLAS kernel a split run makes the calls, and gives
the bytes, of a run on one thread (a fixed reduction order, as in Demmel &
Nguyen 2015, "Parallel reproducible summation").  The passes run from a
read-only plan of the bank: its filters in the order given, their matrices
stacked and their scan steps zero-padded to the longest filter's.  A `Pipeline`
plans its filters once; `apply_filters` plans on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, JamSimError
from .signal_core import (SignalBuffer, _as_readonly_f64, _in_halves, _Owned,
                          check_below_nyquist, check_field, check_number)

DEFAULT_FILTER_ORDER = 6
#: Samples per block of the blocked run (a power of two).
BLOCK_LEN = 64
#: Most multiply-adds in one matrix product: OpenBLAS runs up to 65536 *
#: GEMM_MULTITHREAD_THRESHOLD (4 by default) on the calling thread; a larger
#: product wakes its worker threads, which then spin on the CPUs the halves need.
_PRODUCT_MULADDS = 65536 * 4
#: Samples per group of the product grid: `BLOCK_LEN` blocks, one Toeplitz product.
_GROUP_LEN = BLOCK_LEN * BLOCK_LEN


@dataclass(frozen=True)
class FilterSpec:
    """One passband: edges in MHz."""

    id: int
    band_low: float
    band_high: float

    def __post_init__(self):
        check_field(self, "id", integer=True)
        check_field(self, "band_low", 0.0, above=True)
        check_field(self, "band_high", self.band_low, above=True)

    @property
    def center(self) -> float:
        """The arithmetic midpoint of the band, in MHz."""
        return (self.band_low + self.band_high) / 2.0


#: The four detection bands.  Rows 2/3 are the Band 3 FDD uplink and
#: downlink halves, row 4 is the shared Band 40 TDD allocation, and
#: row 1 spans all of Band 3.
BAND_FILTER_SPECS = (
    FilterSpec(id=1, band_low=1710.0, band_high=1880.0),
    FilterSpec(id=2, band_low=1710.0, band_high=1785.0),
    FilterSpec(id=3, band_low=1805.0, band_high=1880.0),
    FilterSpec(id=4, band_low=2305.0, band_high=2405.0),
)

#: Lowest passband edge over all bands, in Hz (sets the default
#: envelope window: one period of the slowest in-band oscillation).
LOWEST_PASSBAND_HZ = min(s.band_low for s in BAND_FILTER_SPECS) * 1e6


@dataclass(frozen=True, eq=False)
class FilterStages:
    """A realized biquad cascade for one `FilterSpec`.

    `sos` is a read-only (n_sections, 6) array, one row
    ``[b0, b1, b2, 1, a1, a2]`` per section (scipy's sosfilt layout).
    The private fields are the blocked run's matrices, built from `sos`.
    """

    sos: np.ndarray
    sample_rate: float
    spec: FilterSpec
    #: (BLOCK_LEN, BLOCK_LEN) lower-triangular Toeplitz of the impulse response.
    _toeplitz: np.ndarray = field(init=False, repr=False)
    #: (BLOCK_LEN, n_states) rows ``C A^t``: a block's start state to its output.
    _state_out: np.ndarray = field(init=False, repr=False)
    #: (n_states, BLOCK_LEN) columns ``A^(L-1-j) B``: a block's input to its end state.
    _state_in: np.ndarray = field(init=False, repr=False)
    #: (n_steps, n_states, n_states) ``A^L``, ``A^2L``, ``A^4L``, ...: the scan's steps.
    _scan_steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_field(self, "sample_rate", 0.0, above=True)
        sos = np.array(self.sos, dtype=np.float64)
        if sos.ndim != 2 or sos.shape[1] != 6 or not len(sos) or np.any(sos[:, 3] != 1.0):
            raise InvalidParameter("sos must be an array of one or more rows "
                                   "[b0, b1, b2, 1, a1, a2]")
        if not np.isfinite(sos).all():
            raise JamSimError("non-finite section coefficient")
        a1, a2 = sos[:, 4], sos[:, 5]
        # Poles strictly inside the unit circle (stability triangle).
        unstable = np.flatnonzero(~((np.abs(a2) < 1.0) & (np.abs(a1) < 1.0 + a2)))
        if unstable.size:
            i = unstable[0]
            raise JamSimError(f"section {i} has poles on or outside the unit circle "
                                 f"(a1={a1[i]:.17g}, a2={a2[i]:.17g})")
        sos.setflags(write=False)
        object.__setattr__(self, "sos", sos)
        for name, value in _block_matrices(sos).items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def _state_space(sos: np.ndarray):
    """The cascade as one system ``s' = A s + B x``, ``y = C s + D x``.

    The state stacks each section's two delays, so A is block
    lower-triangular: every section is driven by the output of all
    earlier ones.  Returns (A, B, C, D).
    """
    n = 2 * len(sos)
    a, b = np.zeros((n, n)), np.zeros(n)
    # The running section input (finally the output) as C s + D x.
    c, d = np.zeros(n), 1.0
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos.tolist()):
        k = 2 * i
        drive = np.array([b1 - a1 * b0, b2 - a2 * b0])
        a[k:k + 2] = np.outer(drive, c)
        a[k:k + 2, k:k + 2] = [[-a1, 1.0], [-a2, 0.0]]
        b[k:k + 2] = drive * d
        c *= b0
        c[k] = 1.0
        d *= b0
    return a, b, c, d


def _block_matrices(sos: np.ndarray) -> dict:
    """The blocked run's matrices for `FilterStages`, by repeated products.

    The squares A^(2^i) are formed in long double and rounded once:
    squared in float64, A^(2^i) carries a relative error near
    2^i * 1.1e-16, which made the run at 100 GS/s up to 100 times less
    accurate than a per-sample loop.
    """
    a, b, c, d = _state_space(sos)
    log_len = BLOCK_LEN.bit_length() - 1
    tiny = np.finfo(np.float64).tiny
    squares = [a.astype(np.longdouble)]  # A^(2^i)
    while len(squares) <= log_len:
        squares.append(squares[-1] @ squares[-1])
    # The scan's steps A^L, A^2L, ...: on until every entry is below the
    # smallest normal float64; 64 steps cover 2**64 blocks, more than any
    # buffer holds.
    while len(squares) < log_len + 64 and np.abs(squares[-1]).max(initial=0.0) >= tiny:
        squares.append(squares[-1] @ squares[-1])
    squares = np.array(squares).astype(np.float64).reshape(-1, len(b), len(b))
    # Entries below the smallest normal add less than 2.2e-308 of a state:
    # dropping them keeps subnormal arithmetic out of the scan.
    squares[np.abs(squares) < tiny] = 0.0
    out_rows = np.empty((BLOCK_LEN, len(b)))  # rows C A^t
    in_cols = np.empty((len(b), BLOCK_LEN))   # columns A^t B
    out_rows[0], in_cols[:, 0] = c, b
    for i in range(log_len):
        k = 1 << i
        out_rows[k:2 * k] = out_rows[:k] @ squares[i]
        in_cols[:, k:2 * k] = squares[i] @ in_cols[:, :k]
    impulse = np.concatenate([[d], out_rows[:-1] @ in_cols[:, 0]])
    lag = np.arange(BLOCK_LEN)[:, None] - np.arange(BLOCK_LEN)
    steps = squares[log_len:]
    if not steps[-1].any():  # the square that underflowed is no step
        steps = steps[:-1]
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    return {
        "_toeplitz": toeplitz,
        "_state_out": out_rows,
        "_state_in": np.ascontiguousarray(in_cols[:, ::-1]),
        "_scan_steps": steps,
    }


def _pair_into_sections(z_poles: np.ndarray) -> np.ndarray:
    """Group z-plane poles into conjugate pairs; returns an (n, 2) array of (a1, a2)."""
    upper = z_poles[np.imag(z_poles) > 1e-12]
    reals = np.sort(np.real(z_poles[np.abs(np.imag(z_poles)) <= 1e-12]))
    pairs = [(-2.0 * float(np.real(p)), float(np.abs(p)) ** 2) for p in upper]
    pairs += [(-(r1 + r2), r1 * r2) for r1, r2 in zip(reals[0::2], reals[1::2])]
    if 2 * len(pairs) != z_poles.size:
        raise JamSimError("pole set did not split into conjugate pairs")
    return np.array(pairs, dtype=np.float64)


def _section_responses(sos: np.ndarray, z) -> np.ndarray:
    """Each section's response at z = exp(-j*omega), shape (n_sections, z.size)."""
    b0, b1, b2, _, a1, a2 = sos.T[:, :, None]
    return (b0 + b1 * z + b2 * z * z) / (1.0 + a1 * z + a2 * z * z)


def check_filter_order(order: int) -> int:
    """`order` as an int; InvalidParameter unless it is an even integer >= 2."""
    order = check_number(order, "filter_order", integer=True)
    if order < 2 or order % 2 != 0:
        raise InvalidParameter(f"filter order must be even and >= 2, got {order!r}", "filter_order")
    return order


# At extreme sample rates the design overflows or loses all precision;
# every such design ends in JamSimError, so numpy's warnings add nothing.
@np.errstate(all="ignore")
def design_bandpass(spec: FilterSpec, sample_rate: float,
                    order: int = DEFAULT_FILTER_ORDER) -> FilterStages:
    """Synthesize one band-plan bandpass as `order/2` biquads.

    `order` counts the poles of the realized bandpass (an order-6
    filter is three sections from a 3rd-order prototype), so it must
    be even.
    """
    order = check_filter_order(order)
    sample_rate = check_number(sample_rate, "sample_rate", 0.0, above=True)
    f_low, f_high, n = spec.band_low * 1e6, spec.band_high * 1e6, order // 2
    check_below_nyquist(f_high, sample_rate, f"band edge {spec.band_high} MHz", "sample_rate")

    # Pre-warp the band edges so the bilinear transform lands the
    # analog -3 dB points exactly on the requested digital edges.
    w_low = 2.0 * sample_rate * math.tan(math.pi * f_low / sample_rate)
    w_high = 2.0 * sample_rate * math.tan(math.pi * f_high / sample_rate)
    w0_sq = w_low * w_high
    bw = w_high - w_low

    # Butterworth lowpass prototype poles, unit cutoff, left half-plane.
    k = np.arange(n)
    proto = np.exp(1j * np.pi * (2.0 * k + n + 1.0) / (2.0 * n))

    # Lowpass -> bandpass: each prototype pole p becomes the two roots
    # of s^2 - (bw p) s + w0^2.
    pb = proto * bw
    disc = np.sqrt(pb * pb - 4.0 * w0_sq)
    s_poles = np.concatenate([(pb + disc) / 2.0, (pb - disc) / 2.0])

    # Bilinear transform.  The transformed zeros are n at z=+1 (the
    # prototype's s=0 zeros) and n at z=-1 (the zeros at infinity), so
    # every section takes numerator (1 - z^-2) before scaling.
    z_poles = (2.0 * sample_rate + s_poles) / (2.0 * sample_rate - s_poles)
    sos = np.hstack([np.tile([1.0, 0.0, -1.0, 1.0], (n, 1)), _pair_into_sections(z_poles)])

    # Unit gain per section at the digital image of the analog
    # geometric centre w0: f_c = fs/pi * atan(w0 / (2 fs)).
    zc = np.exp(-2j * math.atan(math.sqrt(w0_sq) / (2.0 * sample_rate)))
    gain = np.abs(_section_responses(sos, zc))[:, 0]
    if not np.all((gain > 0.0) & np.isfinite(gain)):
        raise JamSimError("section response degenerate at band centre")
    sos[:, :3] /= gain[:, None]

    stages = FilterStages(sos=sos, sample_rate=sample_rate, spec=spec)
    centre_db = frequency_response(stages, [spec.center * 1e6])[0][0]
    if not -1.0 <= centre_db <= 0.5:
        raise JamSimError(f"cascade gain at centre is {centre_db:.3f} dB, expected ~0 dB")
    return stages


def frequency_response(stages: FilterStages, freqs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the cascade on the unit circle at `freqs` (Hz).

    Returns (magnitude_db, phase_rad) arrays.  Magnitude is floored at
    -300 dB so exact transfer-function zeros stay representable.
    """
    f = _as_readonly_f64(freqs, "freqs")
    if not ((f >= 0.0) & (f <= stages.sample_rate / 2.0)).all():  # NaN fails both
        raise InvalidParameter("response frequencies must lie in [0, fs/2]")
    z = np.exp(-2j * np.pi * f / stages.sample_rate)
    h = np.prod(_section_responses(stages.sos, z), axis=0)
    mag_db = 20.0 * np.log10(np.maximum(np.abs(h), 1e-15))
    return mag_db, np.angle(h)


def apply_filter(stages: FilterStages, signal: SignalBuffer) -> SignalBuffer:
    """Run one cascade over a buffer: `apply_filters` with a bank of one."""
    return apply_filters((stages,), signal)[0]


def apply_filters(bank, signal: SignalBuffer) -> tuple[SignalBuffer, ...]:
    """Run every cascade in `bank`, a tuple of `FilterStages`, over one buffer (zero state).

    A bank shares one order.  Its buffers are rows of one array: one kept alone keeps it alive.
    The bank is planned on each call; a `Pipeline` plans its filters once.
    """
    return _run_bank(_plan_bank(bank), signal) if bank else ()


@dataclass(frozen=True, eq=False)
class _BankPlan:
    """A bank's filters in the order given, and their matrices stacked read-only: ``steps[f]``
    is filter f's scan steps, then zeros up to the longest filter's."""

    filters: tuple[FilterStages, ...]
    state_in: np.ndarray
    toeplitz_t: np.ndarray
    steps: np.ndarray


def _plan_bank(bank) -> _BankPlan:
    """Stack a non-empty bank's matrices for `_run_bank`; InvalidParameter if it mixes orders."""
    n_states = 2 * len(bank[0].sos)
    for stages in bank:
        if 2 * len(stages.sos) != n_states:
            raise InvalidParameter(f"a bank mixes orders {n_states} and {2 * len(stages.sos)}")
    steps = np.zeros((len(bank), max(len(s._scan_steps) for s in bank), n_states, n_states))
    for f, stages in enumerate(bank):
        steps[f, :len(stages._scan_steps)] = stages._scan_steps
    plan = _BankPlan(tuple(bank), np.array([s._state_in for s in bank]),
                     np.array([s._toeplitz.T for s in bank])[:, None], steps)
    for array in (plan.state_in, plan.toeplitz_t, plan.steps):
        array.setflags(write=False)
    return plan


def _run_bank(plan: _BankPlan, signal: SignalBuffer) -> tuple[SignalBuffer, ...]:
    """`apply_filters` of a planned bank: three passes, halved on grid lines from 2**17 samples."""
    x, n, (n_bank, n_states) = signal.samples, signal.samples.size, plan.state_in.shape[:2]
    for stages in plan.filters:
        if signal.sample_rate != stages.sample_rate:
            raise InvalidParameter(f"buffer at {signal.sample_rate} Hz vs filter designed for "
                                   f"{stages.sample_rate} Hz")
    # Zero-padded to whole groups: zeros after the end change no earlier output of a causal filter.
    n_blocks = -(-n // _GROUP_LEN) * BLOCK_LEN
    if n_blocks * BLOCK_LEN > n:
        x = np.concatenate([x, np.zeros(n_blocks * BLOCK_LEN - n)])
    blocks = x.reshape(n_blocks, BLOCK_LEN)
    span = max(1, _PRODUCT_MULADDS // (_GROUP_LEN * n_states)) * BLOCK_LEN  # blocks per piece
    cols = max(1, min(_PRODUCT_MULADDS // n_states**2, n_blocks))  # columns per scan product
    shifts = [1 << i for i in range(min((n_blocks - 1).bit_length(), plan.steps.shape[1]))]
    # starts[f, :, k] is the state filter f's block k starts in; block 0 starts at zero.
    starts = np.zeros((n_bank, n_states, n_blocks + 1))
    out = np.empty((n_bank, n_blocks, BLOCK_LEN))
    scratch = np.empty((2, max(min(span, n_blocks) * BLOCK_LEN, cols * n_states)))  # per half

    def end_states(half, lo, hi):  # the state each block alone leaves, pieces lo .. hi-1
        for a in range(lo * span, min(hi * span, n_blocks), span):
            b = min(a + span, n_blocks)
            np.matmul(plan.state_in, blocks[a:b].T, out=starts[:, :, a + 1:b + 1])

    def scans(half, lo, hi):
        # Hillis-Steele scan: after the step with shift, ends[f, :, k] is the state blocks
        # k-2*shift+1 .. k leave at block k's end; right to left, pieces read unchanged states.
        size = scratch.shape[1] // (n_states * cols)  # filters whose pieces fit together
        for first in range(lo, hi, size):
            k = min(size, hi - first)
            ends, steps = starts[first:first + k, :, 1:], plan.steps[first:first + k]
            for i, shift in enumerate(shifts):
                for a in range(shift, n_blocks, cols)[::-1]:
                    b = min(a + cols, n_blocks)
                    term = scratch[half, :k * n_states * (b - a)].reshape(k, n_states, b - a)
                    ends[:, :, a:b] += np.matmul(steps[:, i], ends[:, :, a - shift:b - shift],
                                                 out=term)

    def outputs(half, lo, hi):  # per piece, a Toeplitz product per group, then the start states
        for a in range(lo * span, min(hi * span, n_blocks), span):
            b = min(a + span, n_blocks)
            groups = ((b - a) // BLOCK_LEN, BLOCK_LEN, BLOCK_LEN)
            np.matmul(blocks[a:b].reshape(groups), plan.toeplitz_t,
                      out=out[:, a:b].reshape((n_bank,) + groups))
            for stages, st, o in zip(plan.filters, starts, out):
                term = scratch[half, :(b - a) * BLOCK_LEN].reshape(b - a, BLOCK_LEN)
                o[a:b] += np.matmul(st[:, a:b].T, stages._state_out.T, out=term)

    n_pieces = -(-n_blocks // span)
    _in_halves(end_states, 0, n_pieces, n)  # the thread threshold reads the unpadded length
    _in_halves(scans, 0, n_bank, n if n_bank > 1 else 0)
    _in_halves(outputs, 0, n_pieces, n)
    rows = out.reshape(n_bank, -1)[:, :n]
    return tuple(SignalBuffer(_Owned(row), signal.sample_rate) for row in rows)
