"""HiPPO-LegS matrices, their normal variant, and the diagonal spectrum.

The LegS family is built entrywise from closed forms.  So is the Lanczos
tridiagonal of the normal variant's skew part, and the spectrum is its
Sturm-count bisection (as LAPACK dstebz): eigenvalues only, since nothing in
S4D or DSS reads an eigenvector, and no N x N matrix is built.  Nothing here
depends on LAPACK-backed routines.  `hippo_d_spectrum` returns a plain
complex array sorted by descending Im.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseSpec",
    "make_hippo_legs",
    "make_hippo_normal",
    "hippo_d_spectrum",
]


@dataclass
class DenseSpec:
    """Dense state-space triple (A, B, C); the state size N is len(B).

    C may be left unset; constructors that only define the dynamics leave it
    to the caller.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None

    def __post_init__(self):
        self.A = np.asarray(self.A)
        self.B = np.asarray(self.B)
        if self.B.ndim != 1 or len(self.B) < 1:
            raise ValueError(f"B must be a non-empty vector, got shape {self.B.shape}")
        if self.A.shape != (self.N, self.N):
            raise ValueError(f"A must be {self.N}x{self.N}, got {self.A.shape}")
        if self.C is not None:
            self.C = np.asarray(self.C)
            if self.C.shape != (self.N,):
                raise ValueError(f"C must have length {self.N}, got {self.C.shape}")

    @property
    def N(self) -> int:
        return len(self.B)


def make_hippo_legs(N: int) -> tuple[DenseSpec, np.ndarray]:
    """Build the HiPPO-LegS system matrices and the rank-1 correction P, so
    that A + P P^T is normal.

    A is lower triangular with A[n, k] = -sqrt((2n+1)(2k+1)) below the
    diagonal and A[n, n] = -(n+1); B[n] = sqrt(2n+1); P[n] = sqrt(n + 1/2).
    C is left unset.
    """
    if N < 1:
        raise ValueError("state size must be >= 1")
    n = np.arange(N, dtype=float)
    root = np.sqrt(2.0 * n + 1.0)
    A = -np.tril(np.outer(root, root), -1) - np.diag(n + 1.0)
    B = root.copy()
    P = np.sqrt(n + 0.5)
    return DenseSpec(A=A, B=B, C=None), P


def make_hippo_normal(N: int) -> DenseSpec:
    """Build the normal variant A + P P^T of the LegS matrix.

    The result has -1/2 on the diagonal and skew-symmetric off-diagonals, so
    that A_normal + A_normal^T = -I and the original LegS matrix is recovered
    entrywise as A_normal - P P^T.
    """
    legs, P = make_hippo_legs(N)
    A_normal = legs.A + np.outer(P, P)
    return DenseSpec(A=A_normal, B=legs.B.copy(), C=None)


def _tridiagonal_eigenvalues(e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal with zero diagonal
    and off-diagonal e, by Sturm-count bisection (LAPACK dstebz).

    e is scaled by a power of two to max|e| in [0.5, 1) first; that is exact
    and keeps the squares in the recurrence finite and normal, and the
    eigenvalues are scaled back.  All n eigenvalues are bisected at once: each
    pass runs the pivot recurrence q_k = -x - e_{k-1}^2 / q_{k-1} over k for
    the n midpoints together, and the number of negative pivots counts the
    eigenvalues below each midpoint.  A pivot smaller than pivmin = sqrt(tiny)
    in magnitude is replaced by -pivmin, so a zero pivot (odd n puts one at
    x = 0) never divides by zero, e^2 / pivmin cannot overflow, and the next
    pivot's e^2 / q does not underflow for e^2 above pivmin.  An interval
    stops once its width is at most 2 eps |x| + eps ||T||, the absolute floor
    letting the eigenvalue at zero of odd n finish with the rest instead of
    bisecting into subnormals.
    """
    n = len(e) + 1
    exponent = int(np.frexp(np.abs(e).max(initial=0.0))[1])
    e = np.ldexp(e, -exponent)
    e2 = e * e
    eps = np.finfo(float).eps
    pivmin = np.sqrt(np.finfo(float).tiny)
    padded = np.concatenate(([0.0], np.abs(e), [0.0]))
    # Gershgorin radius, widened so rounding cannot leave an end eigenvalue out
    bound = float((padded[:-1] + padded[1:]).max()) * (1.0 + 4.0 * eps)
    lo = np.full(n, -bound)
    hi = np.full(n, bound)
    index = np.arange(n)
    pivots = np.empty((n, n))
    ratio = np.empty(n)
    small = np.empty(n, dtype=bool)
    while (hi - lo > 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)) + eps * bound).any():
        mid = 0.5 * (lo + hi)
        pivots[:] = -mid
        for k in range(n):
            q = pivots[k]
            if k:
                np.divide(e2[k - 1], pivots[k - 1], out=ratio)
                np.subtract(q, ratio, out=q)
            np.abs(q, out=ratio)
            np.less(ratio, pivmin, out=small)
            np.copyto(q, -pivmin, where=small)
        below = np.count_nonzero(pivots < 0.0, axis=0) > index
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return np.ldexp(0.5 * (lo + hi), exponent)


_spectrum_cache: dict[int, np.ndarray] = {}


def hippo_d_spectrum(N: int) -> np.ndarray:
    """Eigenvalues of the normal LegS variant: a complex array of length N,
    sorted by descending Im.

    Splits A_normal = -I/2 + S with S = D E D / 2 real skew-symmetric, where
    D = diag sqrt(2n+1) and E_jk = sign(k - j).  Lanczos on S from B/|B| never
    breaks down and ends in a skew tridiagonal with the closed-form
    off-diagonals beta_k = (N^2 - k^2) / (2 sqrt(4k^2 - 1)), k = 1..N-1, so
    the Hermitian iS has the eigenvalues u of the real symmetric tridiagonal
    with zero diagonal and off-diagonal beta.  Bisection gives u; each maps
    back to -1/2 - iu, so all real parts are exactly -1/2.  Results are cached
    per N; each call returns a fresh copy.
    """
    if N < 1:
        raise ValueError("state size must be >= 1")
    cached = _spectrum_cache.get(N)
    if cached is not None:
        return cached.copy()
    k = np.arange(1.0, N)
    beta = (N * N - k * k) / (2.0 * np.sqrt(4.0 * k * k - 1.0))
    # bisection returns u ascending: intervals i < j share midpoints until a
    # Sturm count splits them and stay ordered after, so Im = -u descends
    _spectrum_cache[N] = -0.5 - 1j * _tridiagonal_eigenvalues(beta)
    return _spectrum_cache[N].copy()
