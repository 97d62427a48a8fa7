"""Discrete convolution kernels for diagonal SSMs.

The kernel is K_l = 2 Re( sum_n C_n B_bar_n A_bar_n^l ) over the
half-spectrum (factor 1 instead of 2 for purely real specs).  One engine
computes it for both the Vandermonde and the DSS softmax kernel, as the
paper's Vandermonde product taken one batch of 64-sample blocks per matmul
(see _kernel_values).  Its output does not depend on the batch size, bit for
bit, and its auxiliary memory depends on neither N nor L; `dssm bench`
measures that memory with tracemalloc (acceptance criterion 07).
Kernels come as `Kernel` (the values; L is len(values)); what built one is
the caller's to record.  `sample_basis` returns a plain (n, points) array.
"""

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteParams, _divide, _orbit, dense_matrix_exp
from .hippo import DenseSpec
from .inits import DiagonalSpec

__all__ = [
    "PAIR_OUTPUT_WEIGHT",
    "STREAM_CHUNK",
    "Kernel",
    "vandermonde_kernel",
    "dss_softmax_kernel",
    "sample_basis",
]

# Output weight for implicit conjugate pairs; the recurrence in the conv
# module must use the same constant so both routes agree exactly.
PAIR_OUTPUT_WEIGHT = 2.0

# Samples per batch of block rows (buffers are sized by it, never by N or L).
STREAM_CHUNK = 4096

_BLOCK = 64  # samples per kernel block row
_GROUP = 32  # modes per block-Vandermonde table


@dataclass
class Kernel:
    """Real convolution kernel; L is its length."""

    values: np.ndarray

    @property
    def L(self) -> int:
        return len(self.values)


def _weights(spec: DiagonalSpec, disc: DiscreteParams) -> np.ndarray:
    if len(disc.A_bar) != spec.n_half:
        raise ValueError(
            f"spec has {spec.n_half} modes but discretization has {len(disc.A_bar)}"
        )
    if spec.C_half is None:
        raise ValueError("spec has no C_half; initialize it first")
    if len(spec.C_half) != spec.n_half:
        raise ValueError(f"spec has {spec.n_half} modes but C_half has {len(spec.C_half)}")
    return spec.C_half * disc.B_bar


def _output_weight(spec: DiagonalSpec) -> float:
    return PAIR_OUTPUT_WEIGHT if spec.conj_pairs else 1.0


def _kernel_values(
    w: np.ndarray, a: np.ndarray, L: int, out_weight: float, chunk: int = STREAM_CHUNK
) -> np.ndarray:
    """out_weight * Re(sum_n w_n a_n^l) for l < L, on a grid of 64-sample blocks.

    Block b is Re((w a^(64b)) @ P) with P[n, j] = a_n^j, j < 64.  The modes go
    in groups of _GROUP, the last one padded with w = a = 0.  Per group, one
    cumprod over a^0..a^64 builds P, and per batch of block rows one cumprod
    of [seed, a^64, a^64, ...] gives the rows' seeds; its last row seeds the
    next batch.  One real matmul per batch gives the batch's samples.  Groups
    are added into the output in index order, and out_weight is applied last.
    Buffers are sized by _GROUP and `chunk` alone: O(chunk) auxiliary memory.

    `chunk` (samples) is taken as whole blocks, and the output does not depend
    on it, bit for bit: every batch runs the same rows, at least 2, whether L
    fills them or not.  numpy rounds a 2-element cumprod and a one-row matmul
    differently from the same rows inside a longer batch.
    """
    rows = max(chunk // _BLOCK, 2)
    out = np.zeros(L)
    for g in range(0, len(a), _GROUP):
        powers = np.zeros((_BLOCK + 1, _GROUP), dtype=complex)
        powers[0] = 1.0
        powers[1:, : len(a) - g] = a[g : g + _GROUP]
        np.multiply.accumulate(powers, axis=0, out=powers)
        table = np.empty((2 * _GROUP, _BLOCK))  # Re(S @ P) = S.view(float) @ table
        table[0::2] = powers[:_BLOCK].real.T
        table[1::2] = -powers[:_BLOCK].imag.T
        step = powers[_BLOCK].copy()
        del powers  # before the batch buffers, so the peak holds one of them
        seeds = np.zeros((rows + 1, _GROUP), dtype=complex)
        seeds[0, : len(a) - g] = w[g : g + _GROUP]
        res = np.empty((rows, _BLOCK))
        for start in range(0, L, rows * _BLOCK):
            seeds[1:] = step
            # not np.cumprod: with out= it keeps ~100 traced bytes per call, up to ~9 kB (numpy 2.4)
            np.multiply.accumulate(seeds, axis=0, out=seeds)
            np.matmul(seeds[:rows].view(float), table, out=res)
            width = min(rows * _BLOCK, L - start)
            out[start : start + width] += res.ravel()[:width]
            seeds[0] = seeds[rows]
        del table, seeds, res  # before the next group's power table, for the same peak
    out *= out_weight
    return out


def _kernel(
    spec: DiagonalSpec, disc: DiscreteParams, L: int, w: np.ndarray, chunk: int = STREAM_CHUNK
) -> Kernel:
    return Kernel(_kernel_values(w, disc.A_bar, L, _output_weight(spec), chunk))


def vandermonde_kernel(spec: DiagonalSpec, disc: DiscreteParams, L: int) -> Kernel:
    """Kernel as the Vandermonde product of the weights C_n B_bar_n with the
    powers A_bar_n^l, in batches of blocks with O(chunk) auxiliary memory.

    Powers are built by running products rather than through the complex
    logarithm, so no branch-cut issues arise; decay for long L relies on
    |A_bar_n| < 1 from the stability constraint.
    """
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    return _kernel(spec, disc, L, _weights(spec, disc))


def _geometric_sums(a: np.ndarray, L: int) -> np.ndarray:
    """sum_{l<L} a^l = (a^L - 1)/(a - 1), or L where a = 1, without cancellation.

    a^L - 1 comes by binary powering on offsets from 1: with q = a^m - 1 for
    the bits of L taken so far and b = a^(2^k) - 1, a set bit makes q + b + q b
    and a squaring b (2 + b).  d = a - 1 is exact near 1 (Sterbenz's lemma),
    so this is the geometric sum of the stored a, down to subnormal d (see
    _divide).
    """
    d = a - 1.0
    q, b, bits = np.zeros_like(d), d, L
    while bits:
        if bits & 1:
            q = q + b + q * b
        bits >>= 1
        if bits:
            b = b * (2.0 + b)
    return _divide(q, d, L)


def _softmax_row_sums(disc: DiscreteParams, L: int) -> np.ndarray:
    """Length-L geometric row sums sum_{l<L} A_bar^l of the DSS softmax.

    Dividing C by them gives the softmax kernel as a Vandermonde kernel, so
    the scan of C / row sums is the softmax convolution of an L-sample input
    (S4D, arXiv 2206.11893).  Row sums are (A_bar^L - 1)/(A_bar - 1), one
    formula for every A_bar (see _geometric_sums).  Requires the zero-order
    hold discretization and L >= 1, and rejects near-zero row sums.
    """
    if disc.rule != "zoh":
        raise ValueError(
            "softmax normalization is only defined for the zoh discretization"
        )
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    row_sums = _geometric_sums(disc.A_bar, L)
    degenerate = np.abs(row_sums) < 1e-14 * L
    if degenerate.any():
        raise ValueError(
            f"degenerate softmax rows (near-zero geometric sums) at modes "
            f"{np.flatnonzero(degenerate).tolist()}"
        )
    return row_sums


def dss_softmax_kernel(spec: DiagonalSpec, disc: DiscreteParams, L: int) -> Kernel:
    """Kernel with each mode normalized by its length-L geometric row sum:
    the Vandermonde kernel of the weights C_n B_bar_n / row_sums_n (see
    _softmax_row_sums).  The normalization makes the kernel depend on L
    globally, so kernels of different lengths are not prefix-consistent.
    """
    return _kernel(spec, disc, L, _weights(spec, disc) / _softmax_row_sums(disc, L))


def _uniform_spacing(t: np.ndarray) -> float:
    """The step of an evenly spaced grid (0.0 for one point); ValueError
    for any other grid.  Steps may differ by the rounding of the points, two
    ulps of the largest |t|, which is all that tells steps apart in a
    subnormal grid such as linspace(0, 5e-324, 4)."""
    steps = np.diff(t)
    h = float(steps[0]) if len(steps) else 0.0
    if not np.allclose(steps, h, rtol=1e-9, atol=2 * np.spacing(np.abs(t).max())):
        raise ValueError("t_grid must be uniformly spaced")
    return h


def sample_basis(spec: DiagonalSpec | DenseSpec, t_grid: np.ndarray) -> np.ndarray:
    """Sample the basis functions K_n(t) = (e^{tA} B)_n on a time grid: an
    (n, len(t_grid)) array, one row per basis function.

    Diagonal specs evaluate exp(t A_n) B_n in closed form on any grid.
    Dense specs need an evenly spaced grid (see _uniform_spacing) and take
    one orbit of the propagator exp(|h| A) of its step h from the end the
    orbit steps forward from: t_0 for h >= 0, the last point for h < 0, whose
    columns are then reversed.  A backward orbit would amplify rounding: a
    stable stiff A makes exp(h A), h < 0, grow the error of its start at each
    step (LegS N = 12 on linspace(1, -0.1, 9): 5.6e-8 of max|value| from
    per-point exp(t_j A) B, against 1e-15 stepping forward from -0.1).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if isinstance(spec, DiagonalSpec):
        return np.exp(np.outer(spec.A_half, t)) * spec.B_half[:, None]
    if not isinstance(spec, DenseSpec):
        raise TypeError("spec must be a DiagonalSpec or DenseSpec")

    A, B = spec.A, spec.B
    h = _uniform_spacing(t)
    start = t[0] if h >= 0 else t[-1]
    x0 = dense_matrix_exp(start * A) @ B if start != 0.0 else B
    values = _orbit(dense_matrix_exp(abs(h) * A), x0, len(t))
    return values if h >= 0 else values[:, ::-1]
