"""Independent ground-truth computations used for verification.

The closed-form Legendre basis, the normal LegS basis integrated by a
bilinear step solved through its tridiagonal pencil, the large-N convergence
probe that compares the two, the spectrum asymptotics probe, and the random
rank-1 perturbation experiment.  Bases are plain arrays with one row per
basis function and one column per sample.
"""

from dataclasses import dataclass

import numpy as np

from .discretize import _bilinear_scale, _orbit
from .hippo import DenseSpec, hippo_d_spectrum, make_hippo_legs, make_hippo_normal
from .inits import DiagonalSpec
from .kernel import _uniform_spacing, sample_basis

__all__ = [
    "ConvergenceReport",
    "ConjectureReport",
    "legendre_basis_table",
    "gauss_legendre_nodes",
    "legendre_orthonormality_defect",
    "smoothed_normal_basis",
    "theorem_legsd_convergence",
    "conjecture_probe",
    "perturbation_experiment",
    "random_stable_spec",
]

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


def _normal_bilinear_step(N: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """A_bar and B_bar / step of the bilinear map of the normal LegS system
    with input map B/2 at `step`, solved through the tridiagonal pencil.

    With s, h from discretize's scaling, c = s + h/2 and g = h/2, the
    resolvent is M = sI - hA = cI - g D E D, where D = diag sqrt(2n+1) and
    E_jk = sign(k - j).  P = I - Z (Z the upper shift) makes P^T E P = Z - Z^T,
    so M = D P^-T K P^-1 D with the tridiagonal K = c P^T D^-2 P - g (Z - Z^T):
    K_jj = c (m_{j-1} + m_j), K_{j,j+1} = -c m_j - g, K_{j+1,j} = -c m_j + g,
    m_j = 1/(2j+1).  All N + 1 right-hand sides [sI + hA, s B/2] take
    one Thomas sweep of K, vectorized over the columns; it needs no pivoting,
    since K's symmetric part c P^T D^-2 P is positive definite.  K is far
    worse conditioned than M (2.1e6 against 245 at N = 1024, the step of a
    512-point grid on [0, 3]), so one step of iterative refinement against M
    follows (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 12), with M X formed in O(N) a column from prefix sums: (E y)_j is the
    sum of y_k over k > j minus the sum over k < j.
    """
    s, h = _bilinear_scale(step)
    c, g = s + h / 2.0, h / 2.0
    root = np.sqrt(2.0 * np.arange(N) + 1.0)[:, None]
    m = 1.0 / (2.0 * np.arange(N) + 1.0)
    diagonal = (c * (m + np.append(0.0, m[:-1]))).tolist()
    upper = (-c * m[:-1] - g).tolist()
    lower = (-c * m[:-1] + g).tolist()
    pivots, multipliers = [diagonal[0]], []
    for j in range(1, N):
        multipliers.append(lower[j - 1] / pivots[-1])
        pivots.append(diagonal[j] - multipliers[-1] * upper[j - 1])

    def transform(R: np.ndarray) -> np.ndarray:  # P^T D^-1 R
        F = R / root
        F[1:] -= F[:-1].copy()
        return F

    def solve(F: np.ndarray) -> np.ndarray:  # D^-1 P K^-1 F, in place of F
        for j in range(1, N):
            F[j] -= multipliers[j - 1] * F[j - 1]
        F[-1] /= pivots[-1]
        for j in range(N - 2, -1, -1):
            F[j] -= upper[j] * F[j + 1]
            F[j] /= pivots[j]
        F[:-1] -= F[1:].copy()
        return F / root

    def apply(X: np.ndarray) -> np.ndarray:  # M X
        Y = root * X
        EY = np.zeros_like(Y)
        EY[:-1] = np.cumsum(Y[:0:-1], axis=0)[::-1]
        EY[1:] -= np.cumsum(Y[:-1], axis=0)
        return c * X - g * (root * EY)

    R = np.empty((N, N + 1))
    R[:, :N] = h * make_hippo_normal(N).A
    R[np.arange(N), np.arange(N)] += s
    # B_bar / step = M^-1 s B/2, whose right-hand side s D 1 / 2 transforms
    # exactly to (s/2) e_0: no factor of the step enters it, so a subnormal
    # step does not make it subnormal
    R[:, N] = (s / 2.0) * root[:, 0]
    F = transform(R)
    F[:, N] = 0.0
    F[0, N] = s / 2.0
    X = solve(F)
    X += solve(transform(R - apply(X)))
    return X[:, :N], X[:, N]


def smoothed_normal_basis(N: int, t_grid: np.ndarray) -> np.ndarray:
    """Basis of the normal LegS variant with input map B/2, numerically
    realized through trapezoid (bilinear) integration: an (N, len(t_grid))
    array, one row per state.

    The grid must be uniform with a positive step.  The integrator takes
    _REFINE = 4 substeps h per grid interval, as one orbit of A_bar^4 =
    (A_bar^2)^2, normalized by h so values are on the continuous scale; the
    step itself is _normal_bilinear_step.  The bilinear input map weights
    each mode by ~1/(1 - h*lambda/2), which damps the huge imaginary
    frequencies (up to ~N^2/pi); that damping is what makes the limit
    visible pointwise, since the exact basis only converges in the weak
    sense.  An explicit integrator is not an option here: any stable step
    would need h ~ 1/N^2.  A step so large that eps max|basis| at t = 0 is
    subnormal is a ValueError.
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
    A_bar, start = _normal_bilinear_step(N, h)
    # near the largest step the basis shrinks as 1/h; once eps max|basis| is
    # subnormal, the table's small entries are rounding noise, not values
    if np.abs(start).max() * np.finfo(float).eps < np.finfo(float).tiny:
        raise ValueError(f"the basis at step {h!r} falls below the normal range")
    squared = A_bar @ A_bar
    return _orbit(squared @ squared, start, len(t))


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

