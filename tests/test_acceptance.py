"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION nn: PASS/FAIL line (run with -s to see
them all); assertions carry the same detail.  Heavy spectra (N=1024) are
computed once and cached inside the hippo module, so the slow criteria share
one spectrum solve.
"""

import json
import time

import numpy as np

from dssm.cli import main
from dssm.conv import Signal, _fft_pow2, fft_causal_conv, recurrent_scan
from dssm.discretize import discretize
from dssm.hippo import DenseSpec, hippo_d_spectrum, make_hippo_normal
from dssm.inits import DiagonalSpec, constrain_real_parts
from dssm.kernel import PAIR_OUTPUT_WEIGHT, dss_softmax_kernel, vandermonde_kernel
from dssm.oracle import (
    conjecture_probe,
    dense_kernel,
    legendre_orthonormality_defect,
    perturbation_experiment,
    random_stable_spec,
    theorem_legsd_convergence,
)


def announce(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"CRITERION {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_kernel_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for index in range(50):
        n_half = int(rng.integers(2, 33))  # N in 4..64
        spec, dt = random_stable_spec(rng, n_half=n_half)
        L = int(rng.integers(16, 1025))
        rule = "bilinear" if index % 2 else "zoh"
        disc = discretize(spec.A_half, spec.B_half, dt, rule)
        kernel = vandermonde_kernel(spec, disc, L)
        impulse = np.zeros(L)
        impulse[0] = 1.0
        scanned, _ = recurrent_scan(disc, spec.C_half, Signal(impulse))
        scale = max(np.abs(kernel.values).max(), np.finfo(float).tiny)
        worst = max(worst, float(np.abs(scanned.samples - kernel.values).max() / scale))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    line = announce(1, "kernel-oracle-equivalence", ok, f"worst_rel={worst:.3e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_diagonalization_equivalence():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for N in (4, 8, 16):
        normal = make_hippo_normal(N)
        C = rng.standard_normal(N)
        dense_spec = DenseSpec(A=normal.A, B=normal.B, C=C)
        dt, L = 0.05, 96
        reference = dense_kernel(dense_spec, "bilinear", dt, L)

        # eigenvectors from a LAPACK oracle: eigh's ascending u of iS are the
        # spectrum's descending Im = -u, so the two pair by position
        S = normal.A + 0.5 * np.eye(N)
        _, V = np.linalg.eigh(1j * S)
        diagonal = DiagonalSpec(
            A_half=hippo_d_spectrum(N),
            B_half=V.conj().T @ normal.B,
            C_half=C @ V,
            conj_pairs=False,
        )
        disc = discretize(diagonal.A_half, diagonal.B_half, dt, "bilinear")
        diag_kernel = vandermonde_kernel(diagonal, disc, L)
        scale = max(np.abs(reference.values).max(), np.finfo(float).tiny)
        worst = max(worst, float(np.abs(diag_kernel.values - reference.values).max() / scale))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    line = announce(2, "diagonalization-equivalence", ok, f"worst_rel={worst:.3e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_03_basis_convergence():
    start = time.perf_counter()
    t = np.linspace(0.0, 3.0, 512)
    report = theorem_legsd_convergence([64, 256, 1024], t, n_max=4)
    elapsed = time.perf_counter() - start
    strictly_decreasing = report.errors[0] > report.errors[1] > report.errors[2]
    tenth = report.errors[2] <= 0.1 * report.errors[0]
    ok = strictly_decreasing and tenth and elapsed < 300.0
    detail = (
        f"errors={[round(e, 4) for e in report.errors]}, "
        f"ratio={report.errors[2] / report.errors[0]:.4f}, {elapsed:.1f}s"
    )
    line = announce(3, "basis-convergence", ok, detail)
    assert ok, line


def test_criterion_04_real_parts():
    worst = 0.0
    for N in (2, 16, 64, 256, 1024):
        values = hippo_d_spectrum(N)
        worst = max(worst, float(np.abs(values.real + 0.5).max()))
    ok = worst <= 1e-8
    line = announce(4, "spectrum-real-parts", ok, f"worst_deviation={worst:.3e}")
    assert ok, line


def test_criterion_05_conjecture_probe():
    N = 1024
    report = conjecture_probe(N)
    # Im_max = N^2/pi - pi/6 + O(1/N^2), so the stated band bounds the deficit
    # N^2/pi - Im_max = -c_estimate (spectrum cross-checked against LAPACK in
    # test_oracle.py::TestConjectureProbe::test_max_imag_matches_lapack).
    deficit = N * N / np.pi - report.max_imag
    band_ok = report.band_ratio <= 4.0
    signed_ok = 0.4 <= deficit <= 0.65
    magnitude_ok = 0.4 <= abs(report.c_estimate) <= 0.65
    detail = (
        f"deficit N^2/pi - Im_max={deficit:.6f} vs stated band [0.4, 0.65]; "
        f"c_estimate={report.c_estimate:.6f} (-pi/6={-np.pi / 6:.6f}), "
        f"band_ratio={report.band_ratio:.3f}"
    )
    ok = band_ok and magnitude_ok and signed_ok
    line = announce(5, "conjecture-asymptotics", ok, detail)
    assert band_ok, line
    assert magnitude_ok, line
    assert signed_ok, line


def test_criterion_06_legendre_orthonormality():
    defect = legendre_orthonormality_defect(10)
    ok = defect <= 1e-8
    line = announce(6, "legendre-orthonormality", ok, f"max_defect={defect:.3e}")
    assert ok, line


def test_criterion_07_streaming_bench(tmp_path):
    out = tmp_path / "bench.json"
    code = main([
        "bench",
        "--N-grid", "64,256,1024",
        "--L-grid", "1024,16384",
        "--repeats", "1",
        "--init", "lin",
        "--dt", "0.01",
        "--seed", "7",
        "-o", str(out),
    ])
    report = json.loads(out.read_text())[0]
    cells = report["metrics"]["cells"]
    identical = all(cell["identical_csv"] for cell in cells)
    exponent = report["metrics"]["alloc_fit_exponent"]
    by_key = {(c["N"], c["L"]): c["alloc_streaming"] for c in cells}
    alloc_ratio = by_key[(1024, 16384)] / by_key[(64, 1024)]
    ok = code == 0 and identical and exponent < 0.2 and alloc_ratio < 10.0
    line = announce(
        7, "streaming-vs-one-chunk", ok,
        f"identical_csv={identical}, alloc_fit_exponent={exponent:.4f}, "
        f"alloc_ratio={alloc_ratio:.2f}",
    )
    assert ok, line


def test_criterion_08_convolution_duality():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for index in range(50):
        spec, dt = random_stable_spec(rng)
        rule = "bilinear" if index % 2 else "zoh"
        disc = discretize(spec.A_half, spec.B_half, dt, rule)
        L = int(rng.integers(16, 513))
        u = Signal(rng.standard_normal(L))
        kernel = vandermonde_kernel(spec, disc, L)
        via_fft = fft_causal_conv(u, kernel)
        via_scan, _ = recurrent_scan(disc, spec.C_half, u)
        scale = max(np.abs(via_scan.samples).max(), np.finfo(float).tiny)
        worst = max(worst, float(np.abs(via_fft.samples - via_scan.samples).max() / scale))
    round_trip = 0.0
    for L in (1000, 65536):
        # the route fft_causal_conv takes: zero-pad to a power of two m
        x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        m = 1 << (L - 1).bit_length()
        padded = np.zeros(m, dtype=complex)
        padded[:L] = x
        back = (np.conj(_fft_pow2(np.conj(_fft_pow2(padded)))) / m)[:L]
        round_trip = max(round_trip, float(np.abs(back - x).max() / np.abs(x).max()))
    ok = worst <= 1e-8 and round_trip <= 1e-12
    line = announce(
        8, "convolution-duality", ok,
        f"worst_rel={worst:.3e}, fft_round_trip={round_trip:.3e}",
    )
    assert ok, line


def test_criterion_09_stability_contract():
    rng = np.random.default_rng(1009)
    draws = 10_000
    raw = rng.uniform(np.log(1e-3), np.log(1e3), draws)
    a = constrain_real_parts(-np.exp(raw) + 1j * rng.uniform(0.0, 1e4, draws), "exp")
    b = np.ones(draws, dtype=complex)
    worst_modulus = 0.0
    for dt in np.exp(rng.uniform(np.log(1e-4), np.log(1.0), 10)):
        for rule in ("bilinear", "zoh"):
            disc = discretize(a, b, float(dt), rule)
            worst_modulus = max(worst_modulus, float(np.abs(disc.A_bar).max()))

    envelope_ok = True
    for _ in range(10):
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        L = 2048
        kernel = vandermonde_kernel(spec, disc, L)
        rho = np.abs(disc.A_bar).max()
        amplitude = PAIR_OUTPUT_WEIGHT * np.abs(spec.C_half * disc.B_bar).sum()
        bound = amplitude * rho ** np.arange(L) + 1e-300
        envelope_ok = envelope_ok and bool((np.abs(kernel.values) <= bound * (1 + 1e-9)).all())
    ok = worst_modulus < 1.0 and envelope_ok
    line = announce(
        9, "stability-contract", ok,
        f"max|A_bar|={worst_modulus:.12f}, envelope_ok={envelope_ok}",
    )
    assert ok, line


def test_criterion_10_perturbation_sensitivity():
    seeds = (3, 13, 26)
    t = np.linspace(0.0, 3.0, 128)
    baseline = float(np.mean([perturbation_experiment(0.0, s, 64, t)[1] for s in seeds]))
    averages = [
        float(np.mean([perturbation_experiment(sigma, s, 64, t)[1] for s in seeds]))
        for sigma in (0.3, 0.4, 0.5)
    ]
    monotone = averages[0] <= averages[1] <= averages[2]
    tenfold = averages[-1] > 10.0 * baseline
    ok = monotone and tenfold
    line = announce(
        10, "perturbation-sensitivity", ok,
        f"baseline={baseline:.2f}, averages={[f'{a:.3g}' for a in averages]}",
    )
    assert ok, line


def test_criterion_11_dss_softmax_identity():
    rng = np.random.default_rng(1011)
    spec, dt = random_stable_spec(rng, n_half=8)
    disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
    L = 512
    normalized = dss_softmax_kernel(spec, disc, L)
    row_sums = (disc.A_bar**L - 1.0) / (disc.A_bar - 1.0)
    rescaled = DiagonalSpec(
        A_half=spec.A_half,
        B_half=spec.B_half,
        C_half=spec.C_half / row_sums,
    )
    reference = vandermonde_kernel(rescaled, disc, L)
    scale = max(np.abs(reference.values).max(), np.finfo(float).tiny)
    identity_gap = float(np.abs(normalized.values - reference.values).max() / scale)

    shorter = dss_softmax_kernel(spec, disc, 256)
    prefix_gap = float(np.abs(normalized.values[:256] - shorter.values).max())
    ok = identity_gap <= 1e-10 and prefix_gap > 1e-6
    line = announce(
        11, "dss-softmax-identity", ok,
        f"identity_rel={identity_gap:.3e}, prefix_gap={prefix_gap:.3e}",
    )
    assert ok, line
