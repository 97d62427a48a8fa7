"""Dense discretization and kernel references, used only as test oracles.

The package discretizes diagonal spectra only.  These references take a
dense (A, B): the bilinear map through `numpy.linalg.solve`, and zero-order
hold through one matrix exponential of the augmented matrix
[[dt A, dt B], [0, 0]], which equals the series limit and so also covers a
singular A.
"""

import math

import numpy as np

from dssm.discretize import _orbit, dense_matrix_exp
from dssm.kernel import Kernel


def dense_discretize(A, B, dt, rule):
    """(A_bar, B_bar) of the dense system (A, B) at step dt.

    The bilinear map is (s I - h A)^-1 (s I + h A) and (s I - h A)^-1 (s dt) B
    with s = 2^-max(0, e) for dt/2 = m 2^e and h = s dt/2: the power of two
    is exact, and it keeps every product finite up to the largest dt.
    """
    A, B = np.asarray(A), np.asarray(B)
    n = A.shape[0]
    if rule == "bilinear":
        s = 2.0 ** -max(0, math.frexp(dt / 2.0)[1])
        h = s * (dt / 2.0)
        eye = np.eye(n)
        M = s * eye - h * A
        return np.linalg.solve(M, s * eye + h * A), np.linalg.solve(M, (s * dt) * B)
    W = np.zeros((n + 1, n + 1), dtype=np.result_type(A.dtype, B.dtype, float))
    W[:n, :n] = dt * A
    W[:n, n] = dt * B
    E = dense_matrix_exp(W)
    return E[:n, :n], E[:n, n]


def discrete_basis(A, B, rule, dt, L):
    """The (N, L) columns B_bar, A_bar B_bar, ..., A_bar^{L-1} B_bar."""
    A_bar, B_bar = dense_discretize(A, B, dt, rule)
    return _orbit(A_bar, B_bar, L)


def dense_kernel(spec, rule, dt, L):
    """The kernel Re(C A_bar^l B_bar), l < L, of a dense spec with C set."""
    return Kernel((spec.C.astype(complex) @ discrete_basis(spec.A, spec.B, rule, dt, L)).real)
