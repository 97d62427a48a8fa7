"""Independent ground-truth computations used for verification.

Dense-matrix kernels and basis samples, the closed-form Legendre basis, the
large-N convergence probe for the normal LegS basis, the spectrum asymptotics
probe, and the random rank-1 perturbation experiment.  Bases are plain
arrays with one row per basis function and one column per sample.
"""

from dataclasses import dataclass

import numpy as np

from .discretize import _orbit, discretize
from .hippo import DenseSpec, hippo_d_spectrum, make_hippo_legs, make_hippo_normal
from .inits import DiagonalSpec
from .kernel import Kernel, _uniform_spacing, sample_basis

__all__ = [
    "ConvergenceReport",
    "ConjectureReport",
    "dense_kernel",
    "legendre_basis_table",
    "gauss_legendre_nodes",
    "legendre_orthonormality_defect",
    "smoothed_normal_basis",
    "theorem_legsd_convergence",
    "conjecture_probe",
    "perturbation_experiment",
    "random_stable_spec",
    "discrete_basis",
]

ORACLE_MAX_N = 4096

# Trapezoid substeps per grid interval in `smoothed_normal_basis` (stepped as
# A_bar^4, two squarings).
_REFINE = 4

# Below this N the conjecture band (middle half of n * Im_n) is empty or holds n = 0.
CONJECTURE_MIN_N = 8


@dataclass
class ConvergenceReport:
    """Sup-norm errors of the normal-variant basis against the closed form."""

    errors: list[float]
    monotone: bool


@dataclass
class ConjectureReport:
    """Measured asymptotics of the diagonalized normal LegS spectrum.

    ``c_estimate = max_imag - N^2/pi`` keeps its sign: it is negative and
    tends to -pi/6 as N grows.  The conjecture-asymptotics criterion bounds
    the deficit ``N^2/pi - max_imag = -c_estimate``.
    """

    max_imag: float
    c_estimate: float
    band_ratio: float
    max_real_deviation: float
    scaled_imag: np.ndarray


def dense_kernel(spec: DenseSpec, rule: str, dt: float, L: int) -> Kernel:
    """Discrete kernel (C B_bar, C A_bar B_bar, ...) by direct iteration.

    Small-scale reference path: the real part of C times the discrete basis
    (B_bar, A_bar B_bar, ...) of the dense system.
    """
    if spec.N > ORACLE_MAX_N:
        raise ValueError(f"dense oracle is capped at N={ORACLE_MAX_N}")
    if spec.C is None:
        raise ValueError("dense kernel needs C")
    if L < 1:
        raise ValueError("kernel length must be >= 1")
    return Kernel((spec.C.astype(complex) @ discrete_basis(spec, rule, dt, L)).real)


def legendre_basis_table(n_max: int, t: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_max of the closed-form basis L_n(e^-t) e^-t.

    L_n is the Legendre polynomial shifted to [0, 1] and scaled by
    sqrt(2n+1), which makes the family orthonormal on [0, 1].  Evaluation
    uses the three-term recurrence at y = 2 e^-t - 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    t = np.asarray(t, dtype=float)
    x = np.exp(-t)
    y = 2.0 * x - 1.0
    polys = np.empty((n_max + 1, len(t)), dtype=float)
    polys[0] = 1.0
    if n_max >= 1:
        polys[1] = y
    for k in range(1, n_max):
        polys[k + 1] = ((2 * k + 1) * y * polys[k] - k * polys[k - 1]) / (k + 1)
    scale = np.sqrt(2.0 * np.arange(n_max + 1) + 1.0)
    return polys * scale[:, None] * x[None, :]


def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton iteration.

    Exact for polynomials of degree <= 2n-1; used to integrate products of
    the closed-form basis when checking orthonormality.
    """
    if n < 1:
        raise ValueError("need at least one node")

    def value_and_derivative(x):
        p_prev = np.ones_like(x)
        p = x.copy()
        for m in range(1, n):
            p, p_prev = ((2 * m + 1) * x * p - m * p_prev) / (m + 1), p
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        return p, dp

    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = value_and_derivative(x)
        dx = p / dp
        x -= dx
        if np.abs(dx).max() < 1e-15:
            break
    _, dp = value_and_derivative(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def legendre_orthonormality_defect(n_max: int = 10) -> float:
    """Worst deviation of the numerically integrated Gram matrix from identity.

    Integrates <L_n(e^-t), L_m(e^-t)> under the weight e^-t over [0, inf) by
    mapping to the unit interval (x = e^-t) and applying Gauss quadrature;
    the basis values are produced by the recurrence, so this cross-checks it
    against the orthonormality that defines the family.
    """
    nodes, weights = gauss_legendre_nodes(max(2 * n_max + 2, 8))
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    t = -np.log(x)
    polys = legendre_basis_table(n_max, t) / x[None, :]
    gram = (polys * w[None, :]) @ polys.T
    return float(np.abs(gram - np.eye(n_max + 1)).max())


def smoothed_normal_basis(N: int, t_grid: np.ndarray) -> np.ndarray:
    """Basis of the normal LegS variant with input map B/2, numerically
    realized through trapezoid (bilinear) integration: an (N, len(t_grid))
    array, one row per state.

    The grid must be uniform with a positive step.  The integrator takes
    _REFINE = 4 substeps h per grid interval, as one orbit of A_bar^4 =
    (A_bar^2)^2, normalized by h so values are on the continuous scale.
    The bilinear input map weights each mode by ~1/(1 - h*lambda/2), which
    damps the huge imaginary frequencies (up to ~N^2/pi); that damping is
    what makes the limit visible pointwise, since the exact basis only
    converges in the weak sense.  An explicit integrator is not an option here: any stable
    step would need h ~ 1/N^2.
    """
    t = np.asarray(t_grid, dtype=float)
    if len(t) < 2:
        raise ValueError("need at least two grid points")
    spacing = _uniform_spacing(t)
    if spacing <= 0:
        raise ValueError(f"t_grid step must be positive, got {spacing!r}")
    if t[0] != 0.0:
        raise ValueError("grid must start at t=0")
    h = spacing / _REFINE
    normal = make_hippo_normal(N)
    disc = discretize(normal.A, normal.B / 2.0, h, "bilinear")
    squared = disc.A_bar @ disc.A_bar
    return _orbit(squared @ squared, disc.B_bar / h, len(t))


def theorem_legsd_convergence(
    N_list: list[int], t_grid: np.ndarray, n_max: int = 4
) -> ConvergenceReport:
    """Sup-norm gap between the normal-variant basis (input map B/2) and the
    Legendre closed form, for each N in N_list."""
    t = np.asarray(t_grid, dtype=float)
    errors = []
    for N in N_list:
        table = smoothed_normal_basis(N, t)
        rows = min(n_max, N - 1)
        reference = legendre_basis_table(rows, t)
        gap = np.abs(table[: rows + 1] - reference).max()
        errors.append(float(gap))
    monotone = all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))
    return ConvergenceReport(errors=errors, monotone=monotone)


def conjecture_probe(N: int) -> ConjectureReport:
    """Asymptotics of the diagonalized normal LegS spectrum at one N.

    Reports the largest imaginary part minus N^2/pi (the measured additive
    constant), the spread of n * Im_n over the middle half of the sorted
    positive spectrum (inverse-law band), and the worst real-part deviation
    from -1/2.  The constant ``c_estimate = Im_max - N^2/pi`` is negative and
    tends to -pi/6 (Im_max = N^2/pi - pi/6 + O(1/N^2)); the criterion bounds
    the deficit ``-c_estimate``.  N below CONJECTURE_MIN_N raises ValueError.
    """
    if N < CONJECTURE_MIN_N:
        raise ValueError(f"conjecture probe needs N >= {CONJECTURE_MIN_N}, got {N}")
    values = hippo_d_spectrum(N)
    # the conjugate-pair half, as init_legsd takes it (sorted by descending
    # Im); for odd N a sign test would keep the zero mode, whose imaginary
    # part comes out of bisection as a tiny positive or negative number
    positive = values.imag[: N // 2]
    max_imag = float(values.imag.max())
    c_estimate = max_imag - N * N / np.pi
    n_idx = np.arange(len(positive), dtype=float)
    scaled = n_idx * positive
    lo = len(positive) // 4
    hi = 3 * len(positive) // 4
    middle = scaled[lo:hi]
    return ConjectureReport(
        max_imag=max_imag,
        c_estimate=float(c_estimate),
        band_ratio=float(middle.max() / middle.min()),
        max_real_deviation=float(np.abs(values.real + 0.5).max()),
        scaled_imag=scaled,
    )


def perturbation_experiment(
    sigma: float, seed: int, N: int, t_grid: np.ndarray
) -> tuple[np.ndarray, float]:
    """Basis of (A + P P^T, B) for LegS (A, B) and random Gaussian P.

    P has i.i.d. entries of standard deviation sigma.  Returns the sampled
    (N, len(t_grid)) basis and its divergence scalar max |value|; unlike the
    special rank-1 factor of the normal variant, random factors push
    eigenvalues into the right half plane and the basis blows up.
    """
    legs, _ = make_hippo_legs(N)
    rng = np.random.default_rng(seed)
    P = sigma * rng.standard_normal(N)
    perturbed = DenseSpec(A=legs.A + np.outer(P, P), B=legs.B, C=None)
    table = sample_basis(perturbed, t_grid)
    return table, float(np.abs(table).max())


def random_stable_spec(rng: np.random.Generator, n_half: int | None = None) -> tuple[DiagonalSpec, float]:
    """Random left-half-plane diagonal spec plus timescale, for property probes."""
    if n_half is None:
        n_half = int(rng.integers(2, 33))
    re = -np.exp(rng.uniform(np.log(0.05), np.log(5.0), n_half))
    im = rng.uniform(0.0, 60.0, n_half)
    spec = DiagonalSpec(
        A_half=re + 1j * im,
        B_half=np.ones(n_half, dtype=complex),
        C_half=rng.standard_normal(n_half) + 1j * rng.standard_normal(n_half),
    )
    dt = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e-1))))
    return spec, dt


def discrete_basis(spec: DenseSpec, rule: str, dt: float, L: int) -> np.ndarray:
    """The (N, L) array whose columns are B_bar, A_bar B_bar, ...,
    A_bar^{L-1} B_bar: the basis on the step grid.

    Discrete analogue of the continuous basis sample; the grid is l * dt.
    """
    if L < 1:
        raise ValueError("need L >= 1")
    disc = discretize(spec.A, spec.B, dt, rule)
    return _orbit(disc.A_bar, disc.B_bar, L)
