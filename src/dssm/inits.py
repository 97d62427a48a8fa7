"""Diagonal state-space initializations.

Spectra are stored in half form: only eigenvalues with nonnegative imaginary
part are kept and the conjugate pairs are implicit, except for the purely
real family which keeps all N entries and is flagged accordingly.
"""

from dataclasses import dataclass

import numpy as np

from .hippo import hippo_d_spectrum

__all__ = [
    "DiagonalSpec",
    "RE_MODES",
    "constrain_real_parts",
    "INIT_NAMES",
    "make_init",
    "init_legsd",
    "init_inv",
    "init_lin",
    "init_inv2",
    "init_quad",
    "init_real",
    "init_rand",
    "init_inv_random_imag",
    "init_lin_random_imag",
    "init_C",
    "init_log_dt",
]


@dataclass
class DiagonalSpec:
    """Diagonal SSM parameters (A, B, C) in half-spectrum form.

    conj_pairs=True means each stored eigenvalue implicitly carries its
    conjugate, so kernels take twice the real part of the half sum.  The
    purely real family stores all N eigenvalues and sets conj_pairs=False.
    The state size N follows from the two: 2 * n_half or n_half.
    """

    A_half: np.ndarray
    B_half: np.ndarray
    C_half: np.ndarray | None = None
    conj_pairs: bool = True

    def __post_init__(self):
        self.A_half = np.asarray(self.A_half, dtype=complex)
        self.B_half = np.asarray(self.B_half, dtype=complex)
        if self.C_half is not None:
            self.C_half = np.asarray(self.C_half, dtype=complex)
        if len(self.B_half) != len(self.A_half):
            raise ValueError("B_half must match A_half in length")
        if self.conj_pairs and (self.A_half.imag < 0).any():
            raise ValueError("half-spectrum eigenvalues must have Im >= 0")

    @property
    def n_half(self) -> int:
        return len(self.A_half)

    @property
    def N(self) -> int:
        return 2 * self.n_half if self.conj_pairs else self.n_half


RE_MODES = ("exp", "relu", "identity")


def constrain_real_parts(A_half: np.ndarray, mode: str) -> np.ndarray:
    """A_half with each real part re sent through a stored parameter and its
    sign-constraining transform: S4D's -exp, a relu, or DSS's none.

    'exp' stores log(-re) and returns -exp of it (strictly negative; re must
    be < 0), 'relu' stores -re and returns -max(-re, 0), and 'identity' keeps
    re.  The imaginary parts are kept.
    """
    A_half = np.asarray(A_half, dtype=complex)
    re = A_half.real
    if mode == "exp":
        if (re >= 0).any():
            raise ValueError("exp mode requires strictly negative real parts")
        re = -np.exp(np.log(-re))
    elif mode == "relu":
        re = -np.maximum(-re, 0.0)
    elif mode != "identity":
        raise ValueError(f"mode must be one of {RE_MODES}")
    return re + 1j * A_half.imag


def _even(N: int) -> int:
    if N < 2 or N % 2:
        raise ValueError("half-spectrum initializations require even N >= 2")
    return N // 2


def _spec(a_half: np.ndarray, conj_pairs: bool = True) -> DiagonalSpec:
    return DiagonalSpec(A_half=a_half, B_half=np.ones(len(a_half)), conj_pairs=conj_pairs)


def init_legsd(N: int) -> DiagonalSpec:
    """Positive-imaginary half of the diagonalized normal LegS matrix: the
    first N/2 eigenvalues by descending Im.  S = A_normal + I/2 = ½·D E D
    with D = diag(√(2n+1)) and E_jk = sign(k − j), whose Pfaffian is 1 at
    even N, so S is nonsingular and exactly N/2 eigenvalues ±iσ have σ > 0."""
    half = _even(N)
    return _spec(hippo_d_spectrum(N)[:half])


def _inv_from_positions(N: int, u: np.ndarray) -> np.ndarray:
    return -0.5 + 1j * (N / np.pi) * (N / (2.0 * u + 1.0) - 1.0)


def _lin_from_positions(u: np.ndarray) -> np.ndarray:
    return -0.5 + 1j * np.pi * u


def init_inv(N: int) -> DiagonalSpec:
    """Inverse-law imaginary parts: A_n = -1/2 + i (N/pi) (N/(2n+1) - 1)."""
    half = _even(N)
    return _spec(_inv_from_positions(N, np.arange(half, dtype=float)))


def init_lin(N: int) -> DiagonalSpec:
    """Linear-law imaginary parts: A_n = -1/2 + i pi n."""
    half = _even(N)
    return _spec(_lin_from_positions(np.arange(half, dtype=float)))


def init_inv2(N: int) -> DiagonalSpec:
    """Inverse law with n+1 denominator: A_n = -1/2 + i (N/pi) (N/(n+1) - 1)."""
    half = _even(N)
    n = np.arange(half, dtype=float)
    return _spec(-0.5 + 1j * (N / np.pi) * (N / (n + 1.0) - 1.0))


def init_quad(N: int) -> DiagonalSpec:
    """Quadratic-law imaginary parts: A_n = -1/2 + i (1+2n)^2 / pi."""
    half = _even(N)
    n = np.arange(half, dtype=float)
    return _spec(-0.5 + 1j * (1.0 + 2.0 * n) ** 2 / np.pi)


def init_real(N: int) -> DiagonalSpec:
    """Purely real spectrum A_n = -(n+1); full N entries, no conjugate pairs."""
    if N < 1:
        raise ValueError("state size must be >= 1")
    n = np.arange(N, dtype=float)
    return _spec(-(n + 1.0) + 0j, conj_pairs=False)


def init_rand(N: int, seed: int) -> DiagonalSpec:
    """Random spectrum: Re ~ -U[0,1), Im ~ U[0, N pi/2).

    The imaginary range matches the linear-law family so the comparison
    isolates the distribution shape rather than the frequency range.
    """
    half = _even(N)
    rng = np.random.default_rng(seed)
    values = -rng.uniform(0.0, 1.0, half) + 1j * rng.uniform(0.0, N * np.pi / 2.0, half)
    return _spec(values)


def init_inv_random_imag(N: int, seed: int) -> DiagonalSpec:
    """Inverse law evaluated at uniform random positions u ~ U[0, N/2).

    Equally spaced positions u = 0, 1, ..., N/2 - 1 recover init_inv exactly.
    Negative imaginary values (possible for u past the last grid point) are
    clamped to zero to keep the half-spectrum convention.
    """
    half = _even(N)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, N / 2.0, half)
    values = _inv_from_positions(N, u)
    values = values.real + 1j * np.maximum(values.imag, 0.0)
    return _spec(values)


def init_lin_random_imag(N: int, seed: int) -> DiagonalSpec:
    """Linear law evaluated at uniform random positions u ~ U[0, N/2).

    Equally spaced positions recover init_lin exactly.
    """
    half = _even(N)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, N / 2.0, half)
    return _spec(_lin_from_positions(u))


def init_C(N_half: int, seed: int) -> np.ndarray:
    """Output map with independent standard-normal real and imaginary parts.

    Unit standard deviation per component, with no dependence on the state
    size; the spectra here are variance-preserving without an N^(-1/2) factor.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal(N_half) + 1j * rng.standard_normal(N_half)


def init_log_dt(dt_min: float = 1e-3, dt_max: float = 1e-1, seed: int | None = None) -> float:
    """Log-uniform timescale draw: log_dt ~ U[log dt_min, log dt_max]."""
    if not (0.0 < dt_min <= dt_max):
        raise ValueError("need 0 < dt_min <= dt_max")
    rng = np.random.default_rng(seed)
    return float(rng.uniform(np.log(dt_min), np.log(dt_max)))


_DETERMINISTIC = {
    "legsd": init_legsd,
    "inv": init_inv,
    "lin": init_lin,
    "inv2": init_inv2,
    "quad": init_quad,
    "real": init_real,
}

_SEEDED = {
    "rand": init_rand,
    "inv-rimag": init_inv_random_imag,
    "lin-rimag": init_lin_random_imag,
}

INIT_NAMES = (*_DETERMINISTIC, *_SEEDED)


def make_init(name: str, N: int, seed: int | None = None) -> DiagonalSpec:
    """Build the named initialization; seeded families require a seed."""
    if name in _DETERMINISTIC:
        return _DETERMINISTIC[name](N)
    if name in _SEEDED:
        if seed is None:
            raise ValueError(f"initialization '{name}' requires a seed")
        return _SEEDED[name](N, seed)
    raise ValueError(f"unknown initialization '{name}' (choose from {INIT_NAMES})")
