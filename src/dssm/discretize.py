"""Bilinear and zero-order-hold discretization of (A, B, dt).

Both rules accept a diagonal spectrum (1-D array, elementwise formulas) or a
dense matrix (2-D array).  Dense solves go through a local LU factorization
with partial pivoting and the matrix exponential is scaling-and-squaring with
a Taylor core, so the module has no external linear-algebra dependency.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteParams",
    "discretize",
    "discretize_bilinear",
    "discretize_zoh",
    "dense_matrix_exp",
    "lu_factor",
    "lu_solve",
]

RULES = ("bilinear", "zoh")


@dataclass
class DiscreteParams:
    """One-step discrete pair (A_bar, B_bar) tagged with its rule and dt."""

    A_bar: np.ndarray
    B_bar: np.ndarray
    rule: str
    dt: float

    @property
    def is_diagonal(self) -> bool:
        return self.A_bar.ndim == 1


def lu_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial pivoting; returns (LU, pivot rows).

    Raises ValueError when a pivot is negligible relative to the matrix
    scale, i.e. the matrix is singular to working precision.
    """
    A = np.array(M, dtype=np.result_type(M.dtype, float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("LU factorization needs a square matrix")
    piv = np.arange(n)
    scale = max(float(np.abs(A).max()), np.finfo(float).tiny)
    for k in range(n):
        i = int(np.argmax(np.abs(A[k:, k]))) + k
        if i != k:
            A[[k, i], :] = A[[i, k], :]
            piv[[k, i]] = piv[[i, k]]
        pivot = A[k, k]
        if abs(pivot) <= n * np.finfo(float).eps * scale:
            raise ValueError("matrix is singular to working precision")
        A[k + 1 :, k] /= pivot
        A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])
    return A, piv


def lu_solve(factored: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve M x = b for one or several right-hand sides."""
    LU, piv = factored
    n = LU.shape[0]
    x = np.array(b, dtype=np.result_type(LU.dtype, b.dtype))
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    x = x[piv, :]
    for k in range(1, n):
        x[k, :] -= LU[k, :k] @ x[:k, :]
    for k in range(n - 1, -1, -1):
        x[k, :] -= LU[k, k + 1 :] @ x[k + 1 :, :]
        x[k, :] /= LU[k, k]
    return x[:, 0] if squeeze else x


def dense_matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The input is scaled down to 1-norm <= 0.5, the series is summed to
    machine convergence, and the result squared back up.
    """
    M = np.asarray(M)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix exponential needs a square matrix")
    dtype = np.result_type(M.dtype, float)
    norm = float(np.abs(M).sum(axis=0).max()) if n else 0.0
    if not np.isfinite(norm):
        raise ValueError("matrix exponential of a non-finite matrix")
    # the fewest squarings s with norm / 2^s <= 0.5, from the exponent of norm:
    # log2(norm / 0.5) and 2.0**s overflow for norms above 2^1022
    mantissa, exponent = math.frexp(norm)
    squarings = exponent + (mantissa > 0.5) if norm > 0.5 else 0
    A = M.astype(dtype) * 0.5**squarings
    E = np.eye(n, dtype=dtype)
    term = np.eye(n, dtype=dtype)
    for k in range(1, 60):
        term = term @ A / k
        E += term
        if np.abs(term).max() <= np.finfo(float).eps * max(np.abs(E).max(), 1.0):
            break
    for _ in range(squarings):
        E = E @ E
    return E


def _orbit(M: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """Columns v, M v, M^2 v, ... (`count` of them), one `v = M @ v` per
    column in the dtype result_type(M, v)."""
    values = np.empty((len(v), count), dtype=np.result_type(M, v))
    v = v.astype(values.dtype)
    values[:, 0] = v
    for step in range(1, count):
        v = M @ v
        values[:, step] = v
    return values


def _as_system(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim == 1:
        if B.shape != A.shape:
            raise ValueError("diagonal A and B must have the same length")
        return A, B, True
    if A.ndim == 2 and A.shape[0] == A.shape[1] and B.shape == (A.shape[0],):
        return A, B, False
    raise ValueError("A must be a vector or square matrix with matching B")


def discretize_bilinear(A: np.ndarray, B: np.ndarray, dt: float) -> DiscreteParams:
    """Tustin map: A_bar = (I - dt/2 A)^-1 (I + dt/2 A), B_bar = (I - dt/2 A)^-1 dt B.

    Both representations evaluate it as A_bar = (s I - h A)^-1 (s I + h A)
    and B_bar = (s I - h A)^-1 (s dt) B, with s = 2^-max(0, e) for
    dt/2 = m 2^e (1/2 <= m < 1) and h = s dt/2 < 1.  Scaling by a power of
    two is exact, so the result has the bits of the unscaled formula
    wherever that formula does not overflow (|dt/2 A_n| < 2^1020), and no
    product overflows at any dt: as dt nears the largest double the map
    tends to its limit A_bar = -I, B_bar = -2 A^-1 B.

    A resolvent s I - h A that is singular to working precision is a
    ValueError, and so is a dense A_bar or B_bar that comes out non-finite
    (a B so large that the solve overflows).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, B, diagonal = _as_system(A, B)
    s = 2.0 ** -max(0, math.frexp(dt / 2.0)[1])
    h = s * (dt / 2.0)
    if diagonal:
        denom = s - h * A
        if (np.abs(denom) < 1e-300 * s).any():
            raise ValueError("singular bilinear resolvent: some A_n equals 2/dt")
        A_bar = (s + h * A) / denom
        B_bar = (s * dt) * B / denom
    else:
        eye = np.eye(A.shape[0], dtype=np.result_type(A.dtype, float))
        factored = lu_factor(s * eye - h * A)
        A_bar = lu_solve(factored, s * eye + h * A)
        B_bar = lu_solve(factored, (s * dt) * B)
        if not (np.isfinite(A_bar).all() and np.isfinite(B_bar).all()):
            raise ValueError(f"bilinear discretization of a dense system overflows at dt={dt}")
    return DiscreteParams(A_bar=A_bar, B_bar=B_bar, rule="bilinear", dt=float(dt))


def _divide(num: np.ndarray, den: np.ndarray, at_zero: complex) -> np.ndarray:
    """num / den elementwise as complex arrays, and `at_zero` where den = 0.

    numpy's complex division forms 1 / (c + d (d/c)) for den = c + i d, which
    overflows once max(|c|, |d|) < 2^-1024.  So both are first scaled by 2^k,
    k = max(0, -e) for max(|c|, |d|) = m 2^e, through np.ldexp on the parts
    (2.0**k overflows above k = 1023).  Scaling by a power of two is exact,
    so a quotient in the normal range keeps its bits.
    """
    num, den = np.array(num, dtype=complex), np.array(den, dtype=complex)
    k = np.maximum(0, -np.frexp(np.maximum(np.abs(den.real), np.abs(den.imag)))[1])
    for part in (num.real, num.imag, den.real, den.imag):
        np.ldexp(part, k, out=part)
    return np.divide(num, den, out=np.full_like(den, at_zero), where=den != 0)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z as expm1(z) / z, and 1 at z = 0.

    The complex expm1 comes from real functions, expm1(x + iy) =
    expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 1.14.1), so nothing cancels
    at small |z|, and the quotient holds down to subnormal z (see _divide).
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    expm1 = np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2 + 1j * np.exp(x) * np.sin(y)
    return _divide(expm1, z, 1.0)


def discretize_zoh(A: np.ndarray, B: np.ndarray, dt: float) -> DiscreteParams:
    """Zero-order hold: A_bar = exp(dt A), B_bar = (dt A)^-1 (exp(dt A) - I) dt B.

    The dense path evaluates both blocks from one exponential of the
    augmented matrix [[dt A, dt B], [0, 0]], which equals the series limit
    and therefore also covers singular A.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, B, diagonal = _as_system(A, B)
    if diagonal:
        z = dt * np.asarray(A, dtype=complex)
        A_bar = np.exp(z)
        # where dt A overflows, phi1(-inf) = 0 would pass for a finite B_bar
        # (the dt -> inf limit is -B/A), so such a mode's B_bar is NaN
        B_bar = np.where(np.isfinite(z), _phi1(z), np.nan) * dt * B
    else:
        n = A.shape[0]
        dtype = np.result_type(A.dtype, B.dtype, float)
        W = np.zeros((n + 1, n + 1), dtype=dtype)
        W[:n, :n] = dt * A
        W[:n, n] = dt * B
        E = dense_matrix_exp(W)
        A_bar = E[:n, :n]
        B_bar = E[:n, n]
    return DiscreteParams(A_bar=A_bar, B_bar=B_bar, rule="zoh", dt=float(dt))


def discretize(A: np.ndarray, B: np.ndarray, dt: float, rule: str) -> DiscreteParams:
    """Dispatch on the rule name ('bilinear' or 'zoh')."""
    if rule == "bilinear":
        return discretize_bilinear(A, B, dt)
    if rule == "zoh":
        return discretize_zoh(A, B, dt)
    raise ValueError(f"unknown discretization rule '{rule}' (choose from {RULES})")
