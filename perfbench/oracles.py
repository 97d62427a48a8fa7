"""Independent numpy oracles and output checkers for the benchmark.

Nothing here imports `dssm`.  Spectra come from `numpy.linalg` on an
independently built normal HiPPO-LegS matrix or from the closed-form laws,
kernels from direct Vandermonde powers (`a ** l`, not running products) and
convolutions from `numpy.fft`.  Every checker returns None when the output is
correct and a one-line reason otherwise.
"""

import json
import math

import numpy as np

# The repository's own duality bound: outputs agree with the oracle to this
# relative error (max |diff| / max |reference|).
REL_TOL = 1e-8

# Columns of the Vandermonde power block; longer kernels reuse the block
# times a per-block offset power, so memory stays bounded at long L.
_POWER_CHUNK = 4096

# Parameterization presets of the CLI, restated here so the oracle does not
# read them from the package: discretization rule, whether B is randomized,
# and softmax normalization.  Every preset keeps the real parts of the
# spectra used here (exp mode maps -1/2 to -exp(log 1/2)).
PRESETS = {
    "s4d": ("bilinear", True, False),
    "s4d-zoh": ("zoh", True, False),
    "dss": ("zoh", False, True),
}


def legsd_half(N):
    """Positive-imaginary half of the normal HiPPO-LegS spectrum, by Im descending.

    A_normal = -I/2 + S with S real skew-symmetric,
    S[n, k] = -sign(n - k) sqrt((2n+1)(2k+1)) / 2, so its eigenvalues are
    -1/2 - i u for the real eigenvalues u of the Hermitian matrix i S.
    """
    root = np.sqrt(2.0 * np.arange(N) + 1.0)
    S = -0.5 * np.sign(np.subtract.outer(np.arange(N), np.arange(N))) * np.outer(root, root)
    u = np.linalg.eigvalsh(1j * S)  # ascending
    return -0.5 - 1j * u[: N // 2]


def closed_form_half(family, N):
    """Half spectra of the closed-form initialization families."""
    n = np.arange(N // 2, dtype=float)
    if family == "lin":
        imag = np.pi * n
    elif family == "inv":
        imag = (N / np.pi) * (N / (2.0 * n + 1.0) - 1.0)
    elif family == "inv2":
        imag = (N / np.pi) * (N / (n + 1.0) - 1.0)
    elif family == "quad":
        imag = (1.0 + 2.0 * n) ** 2 / np.pi
    else:
        raise ValueError(f"no closed form for '{family}'")
    return -0.5 + 1j * imag


def half_spectrum(family, N):
    return legsd_half(N) if family == "legsd" else closed_form_half(family, N)


def cli_C(n_half, seed):
    """Output map the CLI draws for --seed: complex normal from seed + 1."""
    rng = np.random.default_rng(seed + 1)
    return rng.standard_normal(n_half) + 1j * rng.standard_normal(n_half)


def cli_B(n_half, seed, randomized):
    """Input map: ones, plus a complex normal / sqrt(8) draw from seed + 3."""
    B = np.ones(n_half, dtype=complex)
    if randomized:
        rng = np.random.default_rng(seed + 3)
        B = B + (rng.standard_normal(n_half) + 1j * rng.standard_normal(n_half)) / np.sqrt(8.0)
    return B


def discretize(A, B, dt, rule):
    """(A_bar, B_bar) of a diagonal system under the bilinear or ZOH rule."""
    if rule == "bilinear":
        denom = 1.0 - 0.5 * dt * A
        return (1.0 + 0.5 * dt * A) / denom, dt * B / denom
    z = dt * A
    return np.exp(z), np.expm1(z) / A * B


def kernel(A, B, C, dt, rule, L, softmax=False):
    """K_l = 2 Re sum_n C_n B_bar_n A_bar_n^l, softmax-normalized per mode if asked.

    Powers are direct, A_bar^l = A_bar^s * exp(j log A_bar) for l = s + j,
    so no running product is shared with the package's kernels.
    """
    a, b = discretize(A, B, dt, rule)
    w = C * b
    width = min(L, _POWER_CHUNK)
    block = np.exp(np.log(a)[:, None] * np.arange(width)[None, :])
    starts = np.arange(0, L, width)
    offsets = a[:, None] ** starts[None, :]
    if softmax:
        row_sums = np.zeros(len(a), dtype=complex)
        for i, start in enumerate(starts):
            row_sums += offsets[:, i] * block[:, : min(width, L - start)].sum(axis=1)
        w = w / row_sums
    out = np.empty(L)
    for i, start in enumerate(starts):
        m = min(width, L - start)
        out[start : start + m] = 2.0 * ((w * offsets[:, i]) @ block[:, :m]).real
    return out


def causal_conv(u, K):
    """y_l = sum_{j<=l} K_j u_{l-j} along the last axis, via numpy.fft."""
    L = u.shape[-1]
    n = 1 << (2 * L - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(u, n) * np.fft.rfft(K, n), n)[..., :L]


def rel_error(values, reference):
    scale = max(float(np.abs(reference).max()), np.finfo(float).tiny)
    return float(np.abs(np.asarray(values) - reference).max()) / scale


def compare(values, reference, what):
    values = np.asarray(values)
    if values.shape != reference.shape:
        return f"{what}: shape {values.shape} != {reference.shape}"
    if not np.isfinite(values).all():
        return f"{what}: non-finite values"
    err = rel_error(values, reference)
    if not err <= REL_TOL:
        return f"{what}: relative error {err:.3e} > {REL_TOL:g}"
    return None


def read_csv(path):
    """Parse a CLI CSV into (meta dict, header list, rows as lists of str)."""
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def check_series(path, expected, L):
    """A single-column 'l,value' CSV of length L matching `expected`."""
    try:
        meta, header, rows = read_csv(path)
    except (OSError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}"
    if header != ["l", "value"]:
        return f"unexpected header {header}"
    if meta.get("L") != str(L):
        return f"'# L:' reads {meta.get('L')!r}, generated length is {L}"
    if len(rows) != L:
        return f"{len(rows)} rows, generated length is {L}"
    try:
        index = [int(r[0]) for r in rows]
        values = np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError) as exc:
        return f"malformed row: {exc}"
    if index != list(range(L)):
        return "row index is not 0..L-1"
    return compare(values, expected, "values")


def check_spectrum(path, families, N):
    try:
        meta, header, rows = read_csv(path)
    except (OSError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}"
    if header != ["init", "n", "re", "im"]:
        return f"unexpected header {header}"
    if len(rows) != len(families) * (N // 2):
        return f"{len(rows)} rows, expected {len(families) * (N // 2)}"
    for family in families:
        got = [r for r in rows if r[0] == family]
        try:
            values = np.array([float(r[2]) + 1j * float(r[3]) for r in got])
        except (ValueError, IndexError) as exc:
            return f"malformed row: {exc}"
        reason = compare(values, half_spectrum(family, N), f"spectrum {family}")
        if reason:
            return reason
    return None


VERIFY_PROBES = (
    "proposition-real-parts",
    "conjecture-asymptotics",
    "theorem-convergence",
    "legendre-orthonormality",
    "convolution-duality",
    "stability-contract",
    "rank1-perturbation",
    "dss-length-dependence",
)


def check_verify(path):
    """Default `dssm verify` report: every probe present and passing, and the
    spectrum numbers it reports agree with the numpy eigenvalues."""
    try:
        with open(path, encoding="utf-8") as handle:
            reports = json.load(handle)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    names = tuple(r.get("probe") for r in reports)
    if names != VERIFY_PROBES:
        return f"probes {names}"
    failing = [r["probe"] for r in reports if r.get("pass") is not True]
    if failing:
        return f"failing probes {failing}"
    conjecture = reports[1]
    N = conjecture["params"]["N"]
    reference = float(legsd_half(N).imag.max())
    max_imag = conjecture["metrics"]["max_imag"]
    if not abs(max_imag - reference) <= REL_TOL * reference:
        return f"conjecture max_imag {max_imag!r} vs numpy {reference!r}"
    deviations = reports[0]["metrics"]["max_real_deviation"].values()
    if not all(math.isfinite(d) and d <= REL_TOL for d in deviations):
        return "proposition real-part deviation above bound"
    return None
