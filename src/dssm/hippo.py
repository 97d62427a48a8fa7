"""HiPPO-LegS matrices, their normal variant, and the diagonal spectrum.

The LegS family is built entrywise from closed forms.  One Hermitian
eigen-engine, after LAPACK zhetrd -> dstebz -> dstein, serves both public
solvers: a Householder reduction to a real symmetric tridiagonal and
Sturm-count bisection give the eigenvalues (all the spectrum of the normal
variant needs), and inverse iteration on the tridiagonal gives eigenvectors
where they are needed.  Nothing here depends on LAPACK-backed routines.
Both return plain arrays: `hippo_d_spectrum` the complex eigenvalues sorted
by descending Im, `hermitian_eigendecompose` the real float64 eigenvalues
sorted descending, with the eigenvector matrix.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseSpec",
    "make_hippo_legs",
    "make_hippo_normal",
    "hermitian_eigendecompose",
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
    to sub - v w^H - w v^H.  A diagonal unitary of phases D then makes the
    off-diagonal real: H = Q D T D^H Q^H, Q the product of the reflectors.
    Returns T's diagonal d and off-diagonal e >= 0, D and the (k, v) pairs.
    """
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    off = np.zeros(n - 1, dtype=complex)
    reflectors = []
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
        reflectors.append((k, v))
    e = np.abs(off)
    unit = np.divide(off, e, out=np.ones_like(off), where=e > 0.0)
    phases = np.cumprod(np.concatenate(([1.0], unit)))
    return A.diagonal().real.copy(), e, phases, reflectors


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


def _tridiagonal_eigenvectors(
    d: np.ndarray, e: np.ndarray, values: np.ndarray, target: float
) -> np.ndarray:
    """Orthonormal eigenvectors of the tridiagonal (d, e) for its ascending
    eigenvalues, by inverse iteration (LAPACK dstein).

    T - lambda_j I is factored for all n shifts at once by Gaussian
    elimination with partial pivoting, and pivots below eps ||T|| in
    magnitude are raised to it (LAPACK dlagtf).  Each pass solves the n
    systems together, reorthogonalizes within clusters of eigenvalues closer
    than 1e-3 ||T||, and normalizes.  Once every residual |T x - lambda x| is
    at most target, two more passes (dstein's EXTRA) take orthogonality below
    what the stopping residual bounds; _MAX_PASSES counts them too.
    """
    n = len(d)
    norm = float(np.abs(values).max())
    # ||T|| >= max|H| >= 1/2 for scaled H; the 0.5 keeps T = 0's floor nonzero
    floor = np.finfo(float).eps * max(norm, 0.5)
    e_next = np.concatenate((e, [0.0]))
    u = np.zeros((3, n, n))  # diagonal and two superdiagonals of U
    lower = np.empty((n, n))
    swapped = np.empty((n, n), dtype=bool)
    pivot, right = d[0] - values, np.full(n, e_next[0])
    for k in range(n - 1):
        below, beyond = d[k + 1] - values, e_next[k + 1]
        swapped[k] = swap = np.abs(pivot) < e[k]
        top = np.where(swap, e[k], pivot)
        lower[k] = np.divide(np.where(swap, pivot, e[k]), top, out=np.zeros(n), where=top != 0.0)
        u[:, k] = top, np.where(swap, below, right), np.where(swap, beyond, 0.0)
        pivot = np.where(swap, right, below) - lower[k] * u[1, k]
        right = np.where(swap, 0.0, beyond) - lower[k] * u[2, k]
    u[0, n - 1] = pivot
    u[0] = np.where(np.abs(u[0]) < floor, np.copysign(floor, u[0]), u[0])

    gap = np.diff(values, prepend=-np.inf) > 1e-3 * norm
    first = np.maximum.accumulate(np.where(gap, np.arange(n), 0))  # cluster start
    X = np.pad(np.random.default_rng(0).uniform(-1.0, 1.0, (n, n)), ((0, 2), (0, 0)))
    extra = 0  # passes since the residual test held; dstein's EXTRA = 2 passes end it
    for _ in range(_MAX_PASSES):
        for k in range(n - 1):
            top = np.where(swapped[k], X[k + 1], X[k])
            X[k + 1] = np.where(swapped[k], X[k], X[k + 1]) - lower[k] * top
            X[k] = top
        for k in range(n - 1, -1, -1):
            X[k] = (X[k] - u[1, k] * X[k + 1] - u[2, k] * X[k + 2]) / u[0, k]
        vectors = X[:n]
        vectors /= np.abs(vectors).max(axis=0)  # so the squares cannot overflow
        vectors /= np.sqrt((vectors * vectors).sum(axis=0))
        for j in np.flatnonzero(first < np.arange(n)):
            previous = vectors[:, first[j] : j]
            for _ in range(2):
                vectors[:, j] -= previous @ (previous.T @ vectors[:, j])
            vectors[:, j] /= np.sqrt(vectors[:, j] @ vectors[:, j])
        residual = (d[:, None] - values) * vectors
        residual[1:] += e[:, None] * vectors[:-1]
        residual[:-1] += e[:, None] * vectors[1:]
        if extra or np.abs(residual).max() <= target:
            if extra == 2:
                return vectors
            extra += 1
    raise RuntimeError(f"inverse iteration did not converge within {_MAX_PASSES} passes")


def _hermitian_spectrum(H: np.ndarray):
    """The symmetrize, reduce and bisect step both public solvers share.

    H is scaled by a power of two to max|H| in [0.5, 1) first; that is exact
    and keeps squares in the reduction and the Sturm recurrence finite and
    normal.  Returns H's ascending eigenvalues, those of the scaled matrix,
    and the reduction (d, e, phases, reflectors) of the scaled matrix.
    """
    H = np.ascontiguousarray(H, dtype=complex)
    exponent = int(np.frexp(np.abs(H).max())[1])
    H = np.ldexp(H.view(float), -exponent).view(complex)
    d, e, phases, reflectors = _tridiagonalize(0.5 * (H + H.conj().T))
    scaled = _tridiagonal_eigenvalues(d, e)
    return np.ldexp(scaled, exponent), scaled, (d, e, phases, reflectors)


_TOL = 1e-12  # hermitian_eigendecompose's Hermitian check and residual target
_MAX_PASSES = 100  # its inverse-iteration passes, dstein's two extra included


def hermitian_eigendecompose(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a complex Hermitian matrix.

    A Householder reduction takes H to a real symmetric tridiagonal T, Sturm
    bisection finds the eigenvalues, and inverse iteration on T finds
    eigenvectors until every residual |T x - lambda x| is at most _TOL
    relative to the largest input entry; they map back through the reduction.
    Returns (eigenvalues, V): the eigenvalues as a real float64 array sorted
    descending, and the matching unitary eigenvector matrix V (columns in the
    same order), with H @ V ~= V @ diag(eigenvalues).

    Raises ValueError for input that is not Hermitian within _TOL, and
    RuntimeError if the residual is still larger after _MAX_PASSES - 2
    inverse-iteration passes.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("input must be a square matrix")
    n = H.shape[0]
    original = np.array(H, dtype=complex)
    scale = float(np.abs(original).max()) if n else 0.0
    defect = float(np.abs(original - original.conj().T).max())
    if defect > _TOL * max(1.0, scale):
        raise ValueError("input is not Hermitian within tolerance")
    values, scaled, (d, e, phases, reflectors) = _hermitian_spectrum(original)
    X = _tridiagonal_eigenvectors(d, e, scaled, _TOL * np.frexp(scale)[0])
    V = phases[:, None] * X
    for k, v in reversed(reflectors):
        V[k + 1 :] -= np.outer(2.0 * v, v.conj() @ V[k + 1 :])
    order = np.argsort(-values, kind="stable")
    return values[order], V[:, order]


_spectrum_cache: dict[int, np.ndarray] = {}


def hippo_d_spectrum(N: int) -> np.ndarray:
    """Eigenvalues of the normal LegS variant: a complex array of length N,
    sorted by descending Im.

    Splits A_normal = -I/2 + S with S real skew-symmetric.  The eigenvalue
    half of the Hermitian engine (reduction and bisection, no eigenvectors)
    gives the real eigenvalues u of the Hermitian iS; each maps back to
    -1/2 - iu, so all real parts are exactly -1/2.  Results are cached per N;
    each call returns a fresh copy.
    """
    if N < 1:
        raise ValueError("state size must be >= 1")
    cached = _spectrum_cache.get(N)
    if cached is not None:
        return cached.copy()
    S = make_hippo_normal(N).A + 0.5 * np.eye(N)
    # bisection returns u ascending: intervals i < j share midpoints until a
    # Sturm count splits them and stay ordered after, so Im = -u descends
    _spectrum_cache[N] = -0.5 - 1j * _hermitian_spectrum(1j * S)[0]
    return _spectrum_cache[N].copy()
