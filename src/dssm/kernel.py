"""Discrete convolution kernels for diagonal SSMs.

The kernel is K_l = 2 Re( sum_n C_n B_bar_n A_bar_n^l ) over the
half-spectrum (factor 1 instead of 2 for purely real specs).  One engine
computes it for both the Vandermonde and the DSS softmax kernel: it streams
over L in fixed-size chunks with O(N + chunk) auxiliary memory, and its
output does not depend on the chunk schedule, bit for bit, under two rules:
chunks are at least 2 samples long, and terms are multiplied out of the
powers buffer, never in place.  `dssm bench` measures that memory with
tracemalloc (acceptance criterion 07).
"""

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteParams, _orbit, dense_matrix_exp
from .hippo import DenseSpec
from .inits import DiagonalSpec

__all__ = [
    "PAIR_OUTPUT_WEIGHT",
    "STREAM_CHUNK",
    "KernelMeta",
    "Kernel",
    "BasisTable",
    "vandermonde_kernel",
    "dss_softmax_kernel",
    "sample_basis",
]

# Output weight for implicit conjugate pairs; the recurrence in the conv
# module must use the same constant so both routes agree exactly.
PAIR_OUTPUT_WEIGHT = 2.0

# Streaming chunk length (build-time constant; buffers are allocated at this
# size plus one regardless of L so auxiliary memory does not scale with the
# problem).
STREAM_CHUNK = 4096


@dataclass
class KernelMeta:
    """Provenance of a kernel: initialization name, rule, state size, dt."""

    init: str
    rule: str
    N: int
    dt: float


@dataclass
class Kernel:
    """Length-L real convolution kernel plus provenance metadata."""

    values: np.ndarray
    L: int
    meta: KernelMeta


@dataclass
class BasisTable:
    """Samples of the basis functions K_n(t) on a time grid, one row per n."""

    t_grid: np.ndarray
    values: np.ndarray


def _weights(spec: DiagonalSpec, disc: DiscreteParams) -> np.ndarray:
    if not disc.is_diagonal:
        raise ValueError("diagonal kernel needs a diagonal discretization")
    if len(disc.A_bar) != spec.n_half:
        raise ValueError(
            f"spec has {spec.n_half} modes but discretization has {len(disc.A_bar)}"
        )
    if spec.C_half is None:
        raise ValueError("spec has no C_half; initialize it first")
    return spec.C_half * disc.B_bar


def _output_weight(spec: DiagonalSpec) -> float:
    return PAIR_OUTPUT_WEIGHT if spec.conj_pairs else 1.0


def _kernel_values(
    w: np.ndarray, a: np.ndarray, L: int, out_weight: float, chunk: int = STREAM_CHUNK
) -> np.ndarray:
    """out_weight * Re(sum_n w_n a_n^l) for l < L, walked over L in chunks.

    Each mode keeps one running power, which seeds a cumprod one sample
    longer than the chunk; its last element seeds the next chunk.  Each term
    is multiplied straight into its level of a binary-counter pairwise merge
    over n, so the summation order depends only on the mode count.  Buffers
    hold chunk + 1 samples whatever L is: O(N + chunk) auxiliary memory.

    The output does not depend on `chunk`, bit for bit.  numpy rounds a
    2-element complex cumprod, and an in-place 1-element complex multiply,
    differently from the same element inside a longer array; so a `chunk`
    below 2 is raised to 2, and terms are multiplied out of the powers
    buffer, never in place.
    """
    n_half = len(a)
    chunk = max(chunk, 2)
    running = np.ones(n_half, dtype=complex)
    powers = np.empty(chunk + 1, dtype=complex)
    levels = np.empty((max(1, n_half.bit_length()), chunk), dtype=complex)
    # the levels left filled after the last mode: the set bits of n_half
    k0, *rest = [k for k in range(len(levels)) if n_half >> k & 1]

    out = np.empty(L, dtype=float)
    for start in range(0, L, chunk):
        width = min(chunk, L - start)
        p, lv = powers[: width + 1], levels[:, :width]
        for i in range(n_half):
            p[0] = running[i]
            p[1:] = a[i]
            np.cumprod(p, out=p)
            running[i] = p[width]
            # mode i lands on the first empty level, past its trailing ones
            k = (i ^ (i + 1)).bit_length() - 1
            np.multiply(p[:width], w[i], out=lv[k])
            for j in range(k):
                lv[k] += lv[j]
        # fold the partial sums from the lowest level up
        for k in rest:
            lv[k0] += lv[k]
        np.multiply(lv[k0].real, out_weight, out=out[start : start + width])
    return out


def _kernel(
    spec: DiagonalSpec, disc: DiscreteParams, L: int, w: np.ndarray, chunk: int = STREAM_CHUNK
) -> Kernel:
    values = _kernel_values(w, disc.A_bar, L, _output_weight(spec), chunk)
    meta = KernelMeta(init=spec.name, rule=disc.rule, N=spec.N, dt=disc.dt)
    return Kernel(values=values, L=L, meta=meta)


def vandermonde_kernel(spec: DiagonalSpec, disc: DiscreteParams, L: int) -> Kernel:
    """Kernel as the Vandermonde product of the weights C_n B_bar_n with the
    powers A_bar_n^l, streamed over L with O(N + chunk) auxiliary memory.

    Powers are built by running products rather than through the complex
    logarithm, so no branch-cut issues arise; decay for long L relies on
    |A_bar_n| < 1 from the stability constraint.
    """
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    return _kernel(spec, disc, L, _weights(spec, disc))


def _int_power(a: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise a**exponent by binary exponentiation (exact integer power)."""
    result = np.ones_like(a)
    base = a.copy()
    e = exponent
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def dss_softmax_kernel(spec: DiagonalSpec, disc: DiscreteParams, L: int) -> Kernel:
    """Kernel with each mode normalized by its length-L geometric row sum.

    Row sums use the closed form (A_bar^L - 1)/(A_bar - 1), switching to a
    binomial series when A_bar is within 1e-8 of 1.  Requires the zero-order
    hold discretization; the normalization makes the kernel depend on L
    globally, so kernels of different lengths are not prefix-consistent.
    """
    if disc.rule != "zoh":
        raise ValueError(
            "softmax normalization is only defined for the zoh discretization"
        )
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    w = _weights(spec, disc)
    a = disc.A_bar

    near_one = np.abs(a - 1.0) < 1e-8
    row_sums = np.empty_like(a)
    far = ~near_one
    row_sums[far] = (_int_power(a[far], L) - 1.0) / (a[far] - 1.0)
    if near_one.any():
        d = a[near_one] - 1.0
        row_sums[near_one] = L * (
            1.0
            + (L - 1.0) / 2.0 * d
            + (L - 1.0) * (L - 2.0) / 6.0 * d**2
            + (L - 1.0) * (L - 2.0) * (L - 3.0) / 24.0 * d**3
        )
    degenerate = np.abs(row_sums) < 1e-14 * L
    if degenerate.any():
        raise ValueError(
            f"degenerate softmax rows (near-zero geometric sums) at modes "
            f"{np.flatnonzero(degenerate).tolist()}"
        )

    return _kernel(spec, disc, L, w / row_sums)


def _uniform_spacing(t: np.ndarray) -> float | None:
    if len(t) < 3:
        return None if len(t) < 2 else float(t[1] - t[0])
    steps = np.diff(t)
    h = float(steps[0])
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        return None
    return h


def sample_basis(spec: DiagonalSpec | DenseSpec, t_grid: np.ndarray) -> BasisTable:
    """Sample the basis functions K_n(t) = (e^{tA} B)_n on a time grid.

    Diagonal specs evaluate exp(t A_n) B_n in closed form.  Dense specs use
    one matrix exponential per grid step when the grid is uniform (the
    propagator is reused), falling back to one exponential per point.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if isinstance(spec, DiagonalSpec):
        values = np.exp(np.outer(spec.A_half, t)) * spec.B_half[:, None]
        return BasisTable(t_grid=t.copy(), values=values)
    if not isinstance(spec, DenseSpec):
        raise TypeError("spec must be a DiagonalSpec or DenseSpec")

    A, B = spec.A, spec.B
    h = _uniform_spacing(t)
    if h is not None:
        x0 = dense_matrix_exp(t[0] * A) @ B if t[0] != 0.0 else B
        values = _orbit(dense_matrix_exp(h * A), x0, len(t))
    else:
        values = np.empty((spec.N, len(t)), dtype=np.result_type(A.dtype, B.dtype, float))
        for j, tj in enumerate(t):
            values[:, j] = dense_matrix_exp(tj * A) @ B
    return BasisTable(t_grid=t.copy(), values=values)
