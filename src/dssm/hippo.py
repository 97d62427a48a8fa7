"""HiPPO-LegS matrices, their normal variant, and the diagonal spectrum.

The LegS family is built entrywise from closed forms.  The spectrum comes
from a Hermitian eigenvalue engine after LAPACK zhetrd -> dstebz: a
Householder reduction to a real symmetric tridiagonal, then Sturm-count
bisection.  It returns eigenvalues only; nothing in S4D or DSS reads an
eigenvector.  Nothing here depends on LAPACK-backed routines.
`hippo_d_spectrum` returns a plain complex array sorted by descending Im.
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


def _tridiagonalize(H: np.ndarray):
    """Householder reduction of Hermitian H to a real symmetric tridiagonal.

    Reflectors I - 2 v v^H (unit v) zero H[k+2:, k] one column at a time;
    with p = sub @ v and w = 2 (p - (v^H p) v), each takes the trailing block
    to sub - v w^H - w v^H.  A diagonal unitary of phases would make the
    complex off-diagonal real without changing the eigenvalues, so only its
    moduli are kept.  Returns the tridiagonal's diagonal d and off-diagonal
    e >= 0.
    """
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    off = np.zeros(n - 1, dtype=complex)
    for k in range(n - 1):
        x = A[k + 1 :, k]
        norm = np.sqrt(np.vdot(x, x).real)
        if norm == 0.0:
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v = x.copy()
        v[0] += phase * norm
        v /= np.sqrt(np.vdot(v, v).real)
        off[k] = -phase * norm
        sub = A[k + 1 :, k + 1 :]
        p = sub @ v
        w = 2.0 * (p - np.vdot(v, p).real * v)
        sub -= np.stack((v, w), axis=1) @ np.stack((w.conj(), v.conj()))
    return A.diagonal().real.copy(), np.abs(off)


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal with diagonal d and
    off-diagonal e, by Sturm-count bisection (LAPACK dstebz).

    All n eigenvalues are bisected at once: each pass runs the pivot
    recurrence q_k = d_k - x - e_{k-1}^2 / q_{k-1} over k for the n
    midpoints together, and the number of negative pivots counts the
    eigenvalues below each midpoint.  A pivot smaller than pivmin in magnitude
    is replaced by -pivmin, so a zero pivot never divides by zero and
    e^2 / pivmin cannot overflow.  An interval stops once its width is at most
    2 eps |x| + eps ||T||, the absolute floor letting an eigenvalue at zero
    (odd n skew spectra have one) finish with the rest instead of bisecting
    into subnormals.
    """
    n = len(d)
    e2 = e * e
    eps = np.finfo(float).eps
    padded = np.concatenate(([0.0], e, [0.0]))
    # Gershgorin radius, widened so rounding cannot leave an end eigenvalue out
    bound = float((np.abs(d) + padded[:-1] + padded[1:]).max()) * (1.0 + 4.0 * eps)
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    lo = np.full(n, -bound)
    hi = np.full(n, bound)
    index = np.arange(n)
    pivots = np.empty((n, n))
    ratio = np.empty(n)
    small = np.empty(n, dtype=bool)
    while (hi - lo > 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)) + eps * bound).any():
        mid = 0.5 * (lo + hi)
        np.subtract.outer(d, mid, out=pivots)
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
    return 0.5 * (lo + hi)


def _hermitian_spectrum(H: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix H: symmetrize, reduce
    and bisect.

    H is scaled by a power of two to max|H| in [0.5, 1) first; that is exact
    and keeps squares in the reduction and the Sturm recurrence finite and
    normal.  The eigenvalues of the scaled matrix are scaled back.
    """
    H = np.ascontiguousarray(H, dtype=complex)
    exponent = int(np.frexp(np.abs(H).max())[1])
    H = np.ldexp(H.view(float), -exponent).view(complex)
    d, e = _tridiagonalize(0.5 * (H + H.conj().T))
    return np.ldexp(_tridiagonal_eigenvalues(d, e), exponent)


_spectrum_cache: dict[int, np.ndarray] = {}


def hippo_d_spectrum(N: int) -> np.ndarray:
    """Eigenvalues of the normal LegS variant: a complex array of length N,
    sorted by descending Im.

    Splits A_normal = -I/2 + S with S real skew-symmetric.  Reduction and
    bisection give the real eigenvalues u of the Hermitian iS; each maps back
    to -1/2 - iu, so all real parts are exactly -1/2.  Results are cached per
    N; each call returns a fresh copy.
    """
    if N < 1:
        raise ValueError("state size must be >= 1")
    cached = _spectrum_cache.get(N)
    if cached is not None:
        return cached.copy()
    S = make_hippo_normal(N).A + 0.5 * np.eye(N)
    # bisection returns u ascending: intervals i < j share midpoints until a
    # Sturm count splits them and stay ordered after, so Im = -u descends
    _spectrum_cache[N] = -0.5 - 1j * _hermitian_spectrum(1j * S)
    return _spectrum_cache[N].copy()
