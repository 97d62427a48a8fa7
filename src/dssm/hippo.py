"""HiPPO-LegS matrices, their normal variant, and the diagonal spectrum.

The LegS family is built entrywise from closed forms.  The spectrum of the
normal variant needs eigenvalues only: a Householder reduction of its
skew-symmetric part to skew-tridiagonal form, then Sturm-count bisection.
A self-contained cyclic Jacobi eigensolver for complex Hermitian matrices
supplies eigenvectors where they are needed.  Nothing here depends on
LAPACK-backed routines.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseSpec",
    "LowRankFactor",
    "Spectrum",
    "make_hippo_legs",
    "make_hippo_normal",
    "hermitian_eigendecompose",
    "hippo_d_spectrum",
]


@dataclass
class DenseSpec:
    """Dense state-space triple (A, B, C) of state size N.

    C may be left unset; constructors that only define the dynamics leave it
    to the caller.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None
    N: int

    def __post_init__(self):
        self.A = np.asarray(self.A)
        self.B = np.asarray(self.B)
        if self.N < 1:
            raise ValueError("state size must be a positive integer")
        if self.A.shape != (self.N, self.N):
            raise ValueError(f"A must be {self.N}x{self.N}, got {self.A.shape}")
        if self.B.shape != (self.N,):
            raise ValueError(f"B must have length {self.N}, got {self.B.shape}")
        if self.C is not None:
            self.C = np.asarray(self.C)
            if self.C.shape != (self.N,):
                raise ValueError(f"C must have length {self.N}, got {self.C.shape}")


@dataclass
class LowRankFactor:
    """Rank-1 correction vector P, so that A + P P^T is normal for LegS."""

    P: np.ndarray


@dataclass
class Spectrum:
    """Eigenvalue list, flagged when sorted by descending imaginary part."""

    eigenvalues: np.ndarray
    sorted: bool = True


def make_hippo_legs(N: int) -> tuple[DenseSpec, LowRankFactor]:
    """Build the HiPPO-LegS system matrices.

    A is lower triangular with A[n, k] = -sqrt((2n+1)(2k+1)) below the
    diagonal and A[n, n] = -(n+1); B[n] = sqrt(2n+1); the low-rank factor is
    P[n] = sqrt(n + 1/2).  C is left unset.
    """
    if N < 1:
        raise ValueError("state size must be >= 1")
    n = np.arange(N, dtype=float)
    root = np.sqrt(2.0 * n + 1.0)
    A = -np.tril(np.outer(root, root), -1) - np.diag(n + 1.0)
    B = root.copy()
    P = np.sqrt(n + 0.5)
    return DenseSpec(A=A, B=B, C=None, N=N), LowRankFactor(P=P)


def make_hippo_normal(N: int) -> DenseSpec:
    """Build the normal variant A + P P^T of the LegS matrix.

    The result has -1/2 on the diagonal and skew-symmetric off-diagonals, so
    that A_normal + A_normal^T = -I and the original LegS matrix is recovered
    entrywise as A_normal - P P^T.
    """
    legs, low_rank = make_hippo_legs(N)
    A_normal = legs.A + np.outer(low_rank.P, low_rank.P)
    return DenseSpec(A=A_normal, B=legs.B.copy(), C=None, N=N)


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint index pairings covering every (p, q) exactly once per sweep.

    Uses the circle-method tournament schedule; a dummy index is inserted for
    odd n and pairs touching it are dropped.
    """
    m = n + (n % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(players[i], players[m - 1 - i]), max(players[i], players[m - 1 - i]))
            for i in range(m // 2)
        ]
        if m != n:
            pairs = [(p, q) for p, q in pairs if q < n]
        rounds.append(
            (
                np.array([p for p, _ in pairs], dtype=np.intp),
                np.array([q for _, q in pairs], dtype=np.intp),
            )
        )
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def _off_diagonal_norm(H: np.ndarray) -> float:
    off = H - np.diag(np.diag(H))
    return float(np.sqrt((off.real**2 + off.imag**2).sum()))


def hermitian_eigendecompose(
    H: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> tuple[Spectrum, np.ndarray]:
    """Diagonalize a complex Hermitian matrix by cyclic Jacobi rotations.

    Sweeps apply Givens-style unitary rotations over all index pairs (grouped
    into disjoint rounds so each round is a single vectorized update) until
    the off-diagonal Frobenius norm falls below tol relative to the largest
    input entry.  Returns real eigenvalues sorted descending and the matching
    unitary eigenvector matrix V, with H @ V ~= V @ diag(eigenvalues).

    Raises ValueError for input that is not Hermitian within tol, and
    RuntimeError if the sweep cap is exhausted before convergence.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("input must be a square matrix")
    n = H.shape[0]
    original = np.array(H, dtype=complex)
    scale = float(np.abs(original).max()) if n else 0.0
    defect = float(np.abs(original - original.conj().T).max())
    if defect > tol * max(1.0, scale):
        raise ValueError("input is not Hermitian within tolerance")
    A = 0.5 * (original + original.conj().T)
    V = np.eye(n, dtype=complex)

    target = tol * max(scale, np.finfo(float).tiny)
    # Pairs below this bound cannot push the off-norm back above target.
    skip_eps = target / (2.0 * n)

    rounds = _round_robin_rounds(n)
    converged = False
    for _ in range(max_sweeps):
        off = _off_diagonal_norm(A)
        if off <= target:
            converged = True
            break
        # Rotate only pairs near or above the mean magnitude this sweep;
        # smaller ones get their turn once the off-norm has dropped.  The
        # largest pair always qualifies, so every sweep makes progress.
        theta = max(off / np.sqrt(2.0 * n * (n - 1.0)), skip_eps)
        for p_all, q_all in rounds:
            apq = A[p_all, q_all]
            active = np.abs(apq) > theta
            if not active.any():
                continue
            p = p_all[active]
            q = q_all[active]
            apq = apq[active]
            abs_pq = np.abs(apq)
            tau = (A[q, q].real - A[p, p].real) / (2.0 * abs_pq)
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t = np.where(tau == 0.0, 1.0, t)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = (t * c) * (apq / abs_pq)

            rows_p = A[p, :]
            rows_q = A[q, :]
            cc = c[:, None]
            ss = s[:, None]
            A[p, :] = cc * rows_p - ss * rows_q
            A[q, :] = np.conj(ss) * rows_p + cc * rows_q

            cols_p = A[:, p]
            cols_q = A[:, q]
            cc = c[None, :]
            ss = np.conj(s)[None, :]
            A[:, p] = cc * cols_p - ss * cols_q
            A[:, q] = np.conj(ss) * cols_p + cc * cols_q

            vec_p = V[:, p]
            vec_q = V[:, q]
            V[:, p] = cc * vec_p - ss * vec_q
            V[:, q] = np.conj(ss) * vec_p + cc * vec_q
    if not converged and _off_diagonal_norm(A) > target:
        raise RuntimeError(
            f"Jacobi iteration did not converge within {max_sweeps} sweeps"
        )

    # Rayleigh-quotient polish against the original matrix: quadratic in the
    # eigenvector error, so eigenvalues land at machine accuracy.
    eigenvalues = np.einsum("ij,ij->j", V.conj(), original @ V).real
    order = np.argsort(-eigenvalues, kind="stable")
    return Spectrum(eigenvalues=eigenvalues[order].astype(complex)), V[:, order]


def _skew_tridiagonal_offdiagonal(S: np.ndarray) -> np.ndarray:
    """Off-diagonal magnitudes |b_k| of a skew-tridiagonal form of real skew S.

    Householder reflectors H = I - 2 v v^T (unit v) zero S[k+2:, k] one column
    at a time.  Since v^T sub v = 0 for skew-symmetric sub, H sub H reduces to
    the rank-2 update sub += 2 (v w^T - w v^T) with w = sub @ v.
    """
    S = np.array(S, dtype=float)
    n = S.shape[0]
    b = np.empty(max(n - 1, 0))
    for k in range(n - 2):
        x = S[k + 1 :, k]
        norm = np.sqrt(x @ x)
        b[k] = norm
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(norm, x[0])
        v /= np.sqrt(v @ v)
        sub = S[k + 1 :, k + 1 :]
        w = sub @ v
        sub += np.stack((v, w), axis=1) @ np.stack((2.0 * w, -2.0 * v))
    if n >= 2:
        b[n - 2] = abs(S[n - 1, n - 2])
    return b


def _zero_diagonal_tridiagonal_eigenvalues(e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal with zero diagonal
    and off-diagonal e, by Sturm-count bisection.

    All n eigenvalues are bisected at once: each pass runs the pivot
    recurrence q_k = -x - e_{k-1}^2 / q_{k-1} over k for the n midpoints
    together, and the number of negative pivots counts the eigenvalues below
    each midpoint.  A pivot smaller than pivmin in magnitude is replaced by
    -pivmin (as in LAPACK dstebz), so a zero pivot never divides by zero and
    e^2 / pivmin cannot overflow.  An interval stops once its width is at most
    2 eps |x| + eps ||T||, the absolute floor letting an eigenvalue at zero
    (odd n has one) finish with the rest instead of bisecting into subnormals.
    """
    n = len(e) + 1
    e2 = e * e
    eps = np.finfo(float).eps
    padded = np.concatenate(([0.0], e, [0.0]))
    # Gershgorin radius, widened so rounding cannot leave an end eigenvalue out
    bound = float((padded[:-1] + padded[1:]).max()) * (1.0 + 4.0 * eps)
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    lo = np.full(n, -bound)
    hi = np.full(n, bound)
    index = np.arange(n)
    pivots = np.empty((n, n))
    magnitude = np.empty(n)
    small = np.empty(n, dtype=bool)
    while (hi - lo > 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)) + eps * bound).any():
        mid = 0.5 * (lo + hi)
        shifted = -mid
        pivots[0] = shifted
        for k in range(n):
            q = pivots[k]
            if k:
                np.divide(e2[k - 1], pivots[k - 1], out=q)
                np.subtract(shifted, q, out=q)
            np.abs(q, out=magnitude)
            np.less(magnitude, pivmin, out=small)
            np.copyto(q, -pivmin, where=small)
        below = np.count_nonzero(pivots < 0.0, axis=0) > index
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return 0.5 * (lo + hi)


_spectrum_cache: dict[int, np.ndarray] = {}


def hippo_d_spectrum(N: int) -> Spectrum:
    """Eigenvalues of the normal LegS variant, sorted by descending Im.

    Splits A_normal = -I/2 + S with S real skew-symmetric.  A Householder
    reduction takes S to skew-tridiagonal form T; iT has the eigenvalues of
    the symmetric tridiagonal with zero diagonal and off-diagonals |b_k|,
    which Sturm bisection finds without eigenvectors.  Each real eigenvalue u
    of iS maps back to -1/2 - iu, so all real parts are exactly -1/2.
    Results are cached per N.
    """
    if N < 1:
        raise ValueError("state size must be >= 1")
    cached = _spectrum_cache.get(N)
    if cached is not None:
        return Spectrum(eigenvalues=cached.copy())
    normal = make_hippo_normal(N)
    S = normal.A + 0.5 * np.eye(N)
    u = _zero_diagonal_tridiagonal_eigenvalues(_skew_tridiagonal_offdiagonal(S))
    values = -0.5 - 1j * u
    order = np.argsort(-values.imag, kind="stable")
    values = values[order]
    _spectrum_cache[N] = values.copy()
    return Spectrum(eigenvalues=values)
