"""Applying kernels to signals: FFT causal convolution and the recurrence.

The recurrence doubles as the ground-truth oracle for the Vandermonde kernel
and as the autoregressive mode (it returns its final state so scans can be
chunked).  The FFT is a local power-of-two four-step transform (matmuls with
a cached 32-point DFT matrix and twiddle tables) with a Bluestein fallback for
arbitrary lengths.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteParams
from .kernel import PAIR_OUTPUT_WEIGHT, Kernel

__all__ = [
    "Signal",
    "RecurrentState",
    "radix_fft",
    "radix_ifft",
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
    """Half-spectrum state vector(s) carried between scan chunks."""

    x: np.ndarray


_RADIX = 32  # four-step split; a transform of at most this length is one matmul


@functools.cache
def _dft_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (W, T): the DFT matrix of n1 = min(n, 32) points and the
    (n1, n/n1) twiddles exp(-2πi k j / n), with angles from k·j mod n."""
    n1 = min(n, _RADIX)
    k = np.arange(n1)
    W = np.exp(-2j * np.pi * ((k[:, None] * k) % n1) / n1)
    T = np.exp(-2j * np.pi * ((k[:, None] * np.arange(n // n1)) % n) / n)
    W.flags.writeable = T.flags.writeable = False
    return W, T


def _fft_pow2(x: np.ndarray) -> np.ndarray:
    """DFT along the last axis of power-of-two length n (Bailey's four-step):
    view x as (…, 32, n/32), transform the 32-axis, twiddle, recurse on the
    last axis, and transpose so output k1 + 32·k2 lands in place."""
    n = x.shape[-1]
    W, T = _dft_tables(n)
    if n <= _RADIX:
        return x @ W
    y = W @ x.reshape(*x.shape[:-1], _RADIX, n // _RADIX)
    y *= T
    return _fft_pow2(y).swapaxes(-1, -2).reshape(x.shape)


def _bluestein(x: np.ndarray) -> np.ndarray:
    n = len(x)
    k = np.arange(n, dtype=np.int64)
    # k^2 mod 2n keeps the chirp angles small and exactly representable.
    half_squares = (k * k) % (2 * n)
    chirp = np.exp(-1j * np.pi * half_squares / n)
    m = 1 << (2 * n - 1).bit_length()
    a = np.zeros(m, dtype=complex)
    a[:n] = x * chirp
    b = np.zeros(m, dtype=complex)
    b[:n] = np.conj(chirp)
    b[m - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    return radix_ifft(_fft_pow2(a) * _fft_pow2(b))[:n] * chirp


def radix_fft(x: np.ndarray) -> np.ndarray:
    """Forward DFT of a 1-D sequence of any length."""
    x = np.asarray(x)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("input must be a non-empty 1-D array")
    n = len(x)
    if n & (n - 1) == 0:
        return _fft_pow2(x)
    return _bluestein(x)


def radix_ifft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT; radix_ifft(radix_fft(x)) recovers x to round-off."""
    x = np.asarray(x)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("input must be a non-empty 1-D array")
    return np.conj(radix_fft(np.conj(x))) / len(x)


def fft_causal_conv(u: Signal, K: Kernel) -> Signal:
    """Causal convolution y_l = sum_{j<=l} K_j u_{l-j} via zero-padded FFTs.

    Transforms use the next power of two >= 2L, so linear (not circular)
    convolution is recovered on the first L outputs.  The imaginary residue
    is checked against 1e-9 times the output magnitude before discarding.
    """
    L = K.L
    if u.length != L:
        raise ValueError(f"signal length {u.length} != kernel length {L}")
    m = 1 << (2 * L - 1).bit_length()
    kernel_padded = np.zeros(m)
    kernel_padded[:L] = K.values
    K_f = radix_fft(kernel_padded)

    rows = np.atleast_2d(u.samples)
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        padded = np.zeros(m)
        padded[:L] = row
        y = radix_ifft(radix_fft(padded) * K_f)[:L]
        bound = 1e-9 * max(float(np.abs(y.real).max()), np.finfo(float).tiny)
        if float(np.abs(y.imag).max()) > bound:
            raise ValueError("unexpected imaginary residue in convolution output")
        out[i] = y.real
    return Signal(samples=out if u.samples.ndim == 2 else out[0])


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
    back in continues the scan exactly where it stopped.
    """
    if not disc.is_diagonal:
        raise ValueError("recurrent_scan needs a diagonal discretization")
    a = disc.A_bar
    b = disc.B_bar
    C = np.asarray(C, dtype=complex)
    if len(C) != len(a):
        raise ValueError("C length must match the discretized spectrum")
    weight = PAIR_OUTPUT_WEIGHT if conj_pairs else 1.0

    rows = np.atleast_2d(u.samples)
    channels, L = rows.shape
    if state is None:
        x = np.zeros((channels, len(a)), dtype=complex)
    else:
        x = np.atleast_2d(np.asarray(state.x, dtype=complex)).copy()
        if x.shape != (channels, len(a)):
            raise ValueError("carried state has the wrong shape")
    out = np.empty((channels, L), dtype=float)
    for l in range(L):
        x = a * x + b * rows[:, l][:, None]
        out[:, l] = weight * (x @ C).real
    final = RecurrentState(x=x if u.samples.ndim == 2 else x[0])
    return Signal(samples=out if u.samples.ndim == 2 else out[0]), final
