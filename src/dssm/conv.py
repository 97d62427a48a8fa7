"""Applying kernels to signals: FFT causal convolution and the recurrence.

The recurrence doubles as the ground-truth oracle for the Vandermonde kernel
and as the autoregressive mode (it returns its final state so scans can be
chunked).  It runs in blocks of 64 steps: the diagonal recurrence turns a
block into two small matmuls with tables built from one power table
a^0..a^64 (the chunked form of state-space duality, Dao & Gu, arXiv
2405.21060, §6).  A call that starts a scan builds the tables; the returned
state carries them, with the current block, to the next call.  Blocks sit at
fixed positions of the stream, so a scan continued from a returned state
reproduces one long call bit for bit.  Every call computes at least one
whole block, so it pays off on calls of more than a few samples.
The per-sample loop stays as the private reference `_sequential_scan`; the
scan builds its own tables, so the kernel-vs-scan oracles stay independent.

The FFT is a local power-of-two four-step transform (matmuls with cached DFT
matrices of at most 32 points and twiddle tables), run forward only; it can
skip a zero upper half of its input and form only the lower half of its
output.  The convolution packs its real rows and kernel two samples per
point into half-length transforms, filters each row's packed spectrum by a
pair filter built from the kernel's, and inverts through the conjugate with
one half-length head-only transform, each row prescaled by a power of two and
checked against direct sums of its last two outputs.
Both the convolution and the scan reject a non-finite input sample.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .discretize import DiscreteParams
from .kernel import PAIR_OUTPUT_WEIGHT, Kernel

__all__ = [
    "Signal",
    "RecurrentState",
    "fft_causal_conv",
    "recurrent_scan",
]


@dataclass
class Signal:
    """Real sequence, shape (L,) for one channel or (channels, L)."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim not in (1, 2):
            raise ValueError("samples must be 1-D or (channels, L)")

    @property
    def length(self) -> int:
        return self.samples.shape[-1]

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[0]


@dataclass
class RecurrentState:
    """State carried between recurrent_scan calls.

    `x` is the half-spectrum state after the last sample, shape (N/2,) for
    one channel or (channels, N/2).  recurrent_scan returns it read-only with
    a private `_carry` (see _ScanCarry): the call's block tables, the state at
    the start of the current 64-step block and that block's inputs so far.
    The carry is used only while `x` is the very object it was returned with
    and (A_bar, B_bar, C, w) are unchanged; a state built from `x` alone, one
    whose `x` was replaced, or one passed to another system starts a new
    block grid at x.
    """

    x: np.ndarray
    _carry: "_ScanCarry | None" = field(default=None, repr=False, compare=False)


class _ScanCarry(NamedTuple):
    """What a continuing recurrent_scan needs beyond x."""

    x: np.ndarray  # the x object this carry was returned with
    key: tuple  # the bytes of (a, b, C) and w that `tables` were built from
    tables: tuple  # _block_tables(a, b, C, w)
    start: np.ndarray  # (channels, N/2) state at the start of the current block
    pending: np.ndarray  # (channels, r) its inputs so far, 0 <= r < 64


_SCAN_BLOCK = 64  # steps per recurrent_scan block


_TINY = float(np.finfo(float).tiny)  # the least normal double
_LEVEL_BITS = 5  # a transform of at most 2^5 = 32 points is one matmul


def _split(n: int) -> int:
    """n1 of an n-point transform's first level, n itself at the base: the
    log2 n bits spread as evenly as possible over ceil(log2 n / 5) levels,
    smaller shares first (8192 = 16·16·32, 4096 = 16·16·16)."""
    p = n.bit_length() - 1
    return n if p <= _LEVEL_BITS else 1 << (p // -(-p // _LEVEL_BITS))


@functools.cache
def _dft_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (W, T) of an n-point level: the DFT matrix of n1 = _split(n)
    points and the (n1, n/n1) twiddles exp(-2πi k j / n), with angles from
    k·j mod n."""
    n1 = _split(n)
    k = np.arange(n1)
    W = np.exp(-2j * np.pi * ((k[:, None] * k) % n1) / n1)
    T = np.exp(-2j * np.pi * ((k[:, None] * np.arange(n // n1)) % n) / n)
    W.flags.writeable = T.flags.writeable = False
    return W, T


def _fft_pow2(x: np.ndarray, n: int | None = None, head: bool = False) -> np.ndarray:
    """DFT along the last axis of power-of-two length n (Bailey's four-step).

    x holds the first n or n/2 samples of the n-point input, the rest being
    zero (n defaults to x's length); head=True forms outputs 0..n/2-1 only.
    A level views the last axis as (n1, n/n1) with n1 = _split(n),
    transforms the n1-axis through the columns of W that meet data, twiddles
    and hands the last axis to the next level; the base level is one 2-D
    matmul, for the head only forming its lower half (output
    k1 + n1·k2 + ... < n/2 needs the last digit below half its level).  The
    digits then sit one axis each, first digit first, and one transpose puts
    output k1 + n1·k2 + ... in place (Markel 1971 prunes the same zeros and
    unread outputs).  It runs forward only; the unscaled inverse is
    conj(_fft_pow2(conj(x)))."""
    n = x.shape[-1] if n is None else n
    batch = x.ndim - 1
    W, T = _dft_tables(n)
    while T.shape[1] > 1:
        n = T.shape[1]
        rows = x.shape[-1] // n
        x = W[:, :rows] @ x.reshape(*x.shape[:-1], rows, n)
        x *= T
        W, T = _dft_tables(n)
    x = (x.reshape(-1, x.shape[-1]) @ W[: x.shape[-1], : n // 2 if head else n]).reshape(*x.shape[:-1], -1)
    return x.transpose(*range(batch), *range(x.ndim - 1, batch - 1, -1)).reshape(*x.shape[:batch], -1)


@functools.cache
def _filter_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (P, R) of the pair filter of an m-point convolution (see
    fft_causal_conv): P_k = ½ − (i/2)·sin θ_k·e^{iθ_k} and
    R_k = ½·cos θ_k·e^{iθ_k} for k < m/2, θ_k = 2πk/m."""
    theta = 2 * np.pi * np.arange(m // 2) / m
    turn = np.exp(1j * theta)
    P = 0.5 - 0.5j * np.sin(theta) * turn
    R = 0.5 * np.cos(theta) * turn
    P.flags.writeable = R.flags.writeable = False
    return P, R


def _packed_spectrum(x: np.ndarray, h: int) -> np.ndarray:
    """The h-point DFT of the real x (len(x) <= h) packed in pairs,
    z_j = x_2j + i·x_2j+1; for h > 1 the upper half of z is zero."""
    z = np.zeros(max(h // 2, 1), dtype=complex)
    z.view(float)[: len(x)] = x
    return _fft_pow2(z, h)


def _mirror(Z: np.ndarray) -> np.ndarray:
    """Z_{(h-k) mod h} for k < h = len(Z)."""
    return np.concatenate([Z[:1], Z[:0:-1]])


def fft_causal_conv(u: Signal, K: Kernel) -> Signal:
    """Causal convolution y_l = sum_{j<=l} K_j u_{l-j} via zero-padded FFTs.

    The padded length is the next power of two m >= 2L, so linear (not
    circular) convolution is recovered on the first L outputs.  Every
    transform has h = m/2 points: real data enter packed in pairs,
    z_j = x_2j + i·x_2j+1 (Cooley, Lewis & Welch 1970), and the product with
    the kernel is a pair filter in that packed domain.  With Z a row's packed
    spectrum, G the m-point DFT of K over h and θ_k = 2πk/m, the packed
    output's spectrum is V_k = α_k·Z_k + β_k·conj Z_{h−k} for k < h (Z's
    indices mod h), where
        α_k = ½(1 − sin θ_k)·G_k + ½(1 + sin θ_k)·conj G_{h−k},
        β_k = (i/2)·cos θ_k·(G_k − conj G_{h−k}).
    Both come once per call from the kernel's packed spectrum ZK over h: with
    D_k = conj ZK_k − ZK_{h−k}, conj α_k = ZK_{h−k} + P_k·D_k and
    conj β_k = R_k·D_k (_filter_tables).  One head-only transform of conj V
    is the packed output conjugated, so the odd samples flip sign on
    unpacking.

    Its sums reach m·max|u|·Σ|K| while |y_l| <= max|u|·Σ|K|, so the row is
    scaled by 2^-k (k > 0 only near overflow) and its output by 2^k,
    exactly: only an output beyond the largest double becomes inf.  The last
    two outputs are checked against their direct sums over the scaled row
    (y_{L-1} = K[::-1] · row), to 1e-9 times max|row| * sum|K|, the bound on
    any |y_l|.  Every tap and every sample enter y_{L-1}, so a fault
    anywhere in the chain, unpacking included, moves it, and the two outputs
    are one real and one imaginary part of the inverse's output; a bound
    from the outputs would reject exact outputs that cancel to zero.  A
    non-finite input sample is an error: it would turn every output of its
    row into NaN.
    """
    L = K.L
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    if u.length != L:
        raise ValueError(f"signal length {u.length} != kernel length {L}")
    m = 1 << (2 * L - 1).bit_length()
    h = m // 2
    P, R = _filter_tables(m)
    ZK = _packed_spectrum(K.values, h)
    ZK /= h  # the inverse's scaling, exact for a power of two
    alpha = _mirror(ZK)
    D = np.conj(ZK)
    D -= alpha
    beta = R * D  # conj β
    D *= P
    alpha += D  # conj α
    gain = float(np.abs(K.values).sum())
    headroom = math.frexp(max(gain, 1.0))[1] + m.bit_length() - 1022  # k keeps every sum < 2^1021

    rows = _finite_rows(u)
    peaks = np.abs(rows).max(axis=1)
    shifts = [max(0, math.frexp(float(peak))[1] + headroom) for peak in peaks]
    scaled = np.ldexp(rows, -np.array(shifts)[:, None]) if any(shifts) else rows
    reverse = K.values[::-1].copy()  # contiguous, so the dots run in BLAS
    direct = [scaled @ reverse, scaled[:, :-1] @ reverse[1:]][: min(L, 2)]  # y_{L-1}, y_{L-2}
    out = np.empty_like(rows)
    for i, k in enumerate(shifts):
        Z = _packed_spectrum(scaled[i], h)
        mirror = _mirror(Z)
        mirror *= beta
        V = np.conjugate(Z, out=Z)
        V *= alpha
        V += mirror  # conj V
        y = _fft_pow2(V, head=h > 1).view(float)[:L]
        y[1::2] *= -1.0  # conj(y) packed: the odd samples flip sign
        bound = 1e-9 * max(math.ldexp(peaks[i], -k) * gain, _TINY)
        if any(abs(y[L - 1 - j] - d[i]) > bound for j, d in enumerate(direct)):
            raise ValueError("convolution output differs from its direct check")
        out[i] = np.ldexp(y, k) if k else y
    return Signal(samples=out if u.samples.ndim == 2 else out[0])


def _finite_rows(u: Signal) -> np.ndarray:
    """The samples as (channels, L) rows; a non-finite sample is an error."""
    rows = np.atleast_2d(u.samples)
    if not np.isfinite(rows).all():
        raise ValueError("input signal has a non-finite sample")
    return rows


def _scan_operands(disc, C, u, conj_pairs):
    """Checked (a, b, C, w, rows) of a scan call, shared by both scan engines."""
    if not disc.is_diagonal:
        raise ValueError("recurrent_scan needs a diagonal discretization")
    C = np.asarray(C, dtype=complex)
    if len(C) != len(disc.A_bar):
        raise ValueError("C length must match the discretized spectrum")
    weight = PAIR_OUTPUT_WEIGHT if conj_pairs else 1.0
    return disc.A_bar, disc.B_bar, C, weight, _finite_rows(u)


def _state_rows(x: np.ndarray, channels: int, n: int) -> np.ndarray:
    """A carried state as a fresh contiguous (channels, n) complex array."""
    x = np.array(np.atleast_2d(x), dtype=complex, order="C")
    if x.shape != (channels, n):
        raise ValueError("carried state has the wrong shape")
    return x


# the Toeplitz factor's gather: entry (i, j) reads index T-1+j-i of _block_tables' lagged
_TOEPLITZ = np.arange(_SCAN_BLOCK - 1, 2 * _SCAN_BLOCK - 1) - np.arange(_SCAN_BLOCK)[:, None]


def _block_tables(a, b, C, weight):
    """The three tables of one T-step block, all from the powers a^0..a^T.

    powers, (T + 1, n): a^l in row l, a transposed view of one cumprod along
    the contiguous axis.
    readout, (T + 2n, T): a block row [u_0..u_{T-1}, Re s_0, Im s_0, ...]
    times readout is the block's output: the upper-triangular Toeplitz factor
    K_{j-i} on top of the free response w Re(C_n a_n^(j+1) s_n) in real form.
    inject, (T, 2n): u_i's share a_n^(T-1-i) b_n of the state at the block's
    end, as interleaved re/im columns.
    """
    T = _SCAN_BLOCK
    n = len(a)
    grid = np.empty((n, T + 1), dtype=complex)
    grid[:, 0] = 1.0
    grid[:, 1:] = a[:, None]
    np.cumprod(grid, axis=1, out=grid)
    readout = np.empty((T + 2 * n, T))
    lagged = np.zeros(2 * T - 1)  # K_{j-i} at index T-1+j-i, zero for j < i
    lagged[T - 1 :] = weight * ((C * b) @ grid[:, :T]).real
    readout[:T] = lagged[_TOEPLITZ]
    free = (weight * C)[:, None] * grid[:, 1:]
    readout[T::2] = free.real
    np.negative(free.imag, out=readout[T + 1 :: 2])
    inject = np.empty((T, 2 * n))
    np.multiply(grid[:, T - 1 :: -1].T, b, out=inject.view(complex))
    return grid.T, readout, inject


def recurrent_scan(
    disc: DiscreteParams,
    C: np.ndarray,
    u: Signal,
    state: RecurrentState | None = None,
    conj_pairs: bool = True,
) -> tuple[Signal, RecurrentState]:
    """Stateful scan x_k = A_bar x_{k-1} + B_bar u_k, y_k = w Re(C x_k).

    The output weight w is the shared conjugate-pair constant (2) or 1 in
    real mode, matching the kernel convention, so the scan's impulse response
    equals the Vandermonde kernel entry by entry.  Passing the returned state
    back in continues the scan exactly where it stopped: the concatenated
    outputs and the final state equal one call over the whole input, bit for
    bit.  A non-finite input sample is an error.

    The scan runs in blocks of T = 64 steps anchored at the stream start.  A
    block with start state s and inputs u (zero-padded to T) gives its outputs
    as [u, s] @ readout and the next start state as s a^T + u @ inject (see
    _block_tables).  A call that continues a partial block recomputes that
    block from the carried inputs and emits only the new samples.  Every
    block runs the same full-width matmuls whether it is padded or not, and
    the Toeplitz factor is zero below the diagonal, so padding only adds
    exact zeros: that is what makes continuation bit-exact.  A call computes
    at least one whole block, and a call that starts a grid also builds the
    tables, so a call of one sample costs more than one step of
    _sequential_scan; continued calls of a few samples or more cost less.
    """
    a, b, C, weight, rows = _scan_operands(disc, C, u, conj_pairs)
    channels, L = rows.shape
    n = len(a)
    T = _SCAN_BLOCK
    key = (a.tobytes(), b.tobytes(), C.tobytes(), weight)
    carry = None if state is None else state._carry
    if carry is not None and carry.x is state.x and carry.key == key:
        if carry.start.shape != (channels, n):
            raise ValueError("carried state has the wrong shape")
        tables, s, pending = carry.tables, carry.start, carry.pending
    else:  # a new block grid at x
        tables = _block_tables(a, b, C, weight)
        s = np.zeros((channels, n), dtype=complex) if state is None else _state_rows(state.x, channels, n)
        pending = np.zeros((channels, 0))
    powers, readout, inject = tables
    done = pending.shape[1]
    end = done + L
    rest = end % T
    blocks = -(-end // T)
    if done or rest:
        stream = np.zeros((channels, blocks * T))  # whole blocks, the last one zero-padded
        stream[:, :done] = pending
        stream[:, done:end] = rows
    else:
        stream = rows  # whole blocks already

    out = np.empty((channels, blocks * T))
    work = np.empty((channels, T + 2 * n))  # one block row: inputs, then Re/Im of its start state
    for k in range(0, blocks * T, T):
        work[:, :T] = stream[:, k : k + T]
        work[:, T:] = s.view(float)
        np.matmul(work, readout, out=out[:, k : k + T])
        if k + T <= end:
            s = s * powers[T] + (work[:, :T] @ inject).view(complex)
    x = s
    if rest:  # the state after `rest` steps: inputs right-aligned against a^(T-1-i) b
        aligned = np.zeros((channels, T))
        aligned[:, T - rest :] = stream[:, end - rest : end]
        x = s * powers[rest] + (aligned @ inject).view(complex)
    x.flags.writeable = False  # an edit in place would bypass the carry, so it raises
    x = x if u.samples.ndim == 2 else x[0]
    y = out[:, done:end]
    final = RecurrentState(x, _ScanCarry(x, key, tables, s, stream[:, end - rest : end].copy()))
    return Signal(samples=y if u.samples.ndim == 2 else y[0]), final


def _sequential_scan(
    disc: DiscreteParams,
    C: np.ndarray,
    u: Signal,
    state: RecurrentState | None = None,
    conj_pairs: bool = True,
) -> tuple[Signal, RecurrentState]:
    """Reference for recurrent_scan: one step x = a x + b u_k per sample,
    starting from state.x.  The returned state carries x alone."""
    a, b, C, weight, rows = _scan_operands(disc, C, u, conj_pairs)
    channels, L = rows.shape
    if state is None:
        x = np.zeros((channels, len(a)), dtype=complex)
    else:
        x = _state_rows(state.x, channels, len(a))
    out = np.empty((channels, L), dtype=float)
    for l in range(L):
        x = a * x + b * rows[:, l][:, None]
        out[:, l] = weight * (x @ C).real
    final = RecurrentState(x=x if u.samples.ndim == 2 else x[0])
    return Signal(samples=out if u.samples.ndim == 2 else out[0]), final
