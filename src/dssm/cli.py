"""Command-line front end: kernels, bases, spectra, convolution, verification
probes, and the kernel chunk-schedule benchmark.

The parsed argparse namespace is the only configuration object: every
subcommand reads its flags from it and takes only the flags it reads, added
per pipeline stage (init, params, disc, dt range, softmax; see
`_build_parser`).  The verification probes run at fixed sizes, and `bench`
fixes the real-part transform and B.  argparse parses the comma-separated
lists; `_resolve_config` rejects a flag of a stage that a given selection
replaces (`_REPLACES`), adds the SSM_SEED seed fallback, fills preset flags
and the `--init` and dt range defaults left unset, and rejects softmax
without ZOH.  `build_system` is the one place that checks or draws dt and
discretizes.

CSV output carries '#'-prefixed metadata comments, then a column header, then
rows with 17-significant-digit numbers (lossless double round-trip).  JSON
reports are lists of {probe, params, metrics, pass}.  Files are written
atomically (temp file + rename).  Exit codes: 0 success, 1 verification
failure, 2 usage error, which includes an input row that does not parse, an
input or output file that cannot be opened, an allocation that fails, and a
kernel or output with a non-finite value (nothing is written then).
"""

import argparse
import contextlib
import math
import os
import sys
import time

import numpy as np

from .conv import Signal, fft_causal_conv, recurrent_scan
from .discretize import RULES, DiscreteParams, discretize
from .hippo import hippo_d_spectrum, make_hippo_legs, make_hippo_normal
from .inits import (
    INIT_NAMES,
    RE_MODES,
    DiagonalSpec,
    constrain_real_parts,
    init_C,
    init_log_dt,
    make_init,
)
from .kernel import (
    Kernel,
    _kernel,
    _softmax_row_sums,
    _weights,
    dss_softmax_kernel,
    sample_basis,
    vandermonde_kernel,
)

# Parameterization presets: discretization, real-part transform, whether B is
# randomized (emulating a trainable B) or frozen to ones, and softmax
# normalization.  's4d' is also the default flag set.
PRESETS = {
    "s4d": {"disc": "bilinear", "re_mode": "exp", "b_mode": "random", "softmax": False},
    "s4d-zoh": {"disc": "zoh", "re_mode": "exp", "b_mode": "random", "softmax": False},
    "dss": {"disc": "zoh", "re_mode": "identity", "b_mode": "ones", "softmax": True},
}


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            # name the path the caller gave, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _csv_text(meta: dict, header: list[str], row_format: str, rows) -> str:
    """Metadata comments, the header, then each row tuple formatted by
    `row_format` (its '%.17g' round-trips a double)."""
    lines = [f"# {key}: {value}\n" for key, value in meta.items()]
    lines.append(",".join(header) + "\n")
    lines += [row_format % row for row in rows]
    return "".join(lines)


def _write_json(path: str | None, payload) -> None:
    import json  # deferred, like tracemalloc and the oracle module: few runs need them

    # numpy scalars and arrays become Python numbers and lists
    text = json.dumps(payload, indent=2, default=lambda obj: obj.tolist())
    _write_text(path, text + "\n")


def _row_error(problem: str, path: str, lineno: int, line: str) -> ValueError:
    return ValueError(f"{problem} in {path} line {lineno}: {line!r}")


def read_signal_csv(path: str) -> np.ndarray:
    """Read a single-channel 'l,value' CSV, ignoring '#' comment lines.

    Only the first non-comment row may be a header (its l field is not an
    integer).  Every other row must carry exactly two fields, l = 0, 1, 2,
    ... in order and a finite value; anything else is a ValueError naming
    the row.
    """
    values = []
    first = True
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if first:
                first = False
                try:
                    int(parts[0])
                except ValueError:
                    continue  # header row
            if len(parts) != 2:
                raise _row_error("malformed row", path, lineno, line)
            try:
                index = int(parts[0])
                value = float(parts[1])
            except ValueError:
                raise _row_error("unparseable row", path, lineno, line) from None
            if index != len(values):
                raise _row_error(f"expected l={len(values)}", path, lineno, line)
            if not math.isfinite(value):
                raise _row_error("non-finite sample", path, lineno, line)
            values.append(value)
    if not values:
        raise ValueError(f"no samples found in {path}")
    return np.asarray(values)


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        where = ",".join(str(i) for i in bad[0])
        raise ValueError(
            f"{what} has {len(bad)} non-finite value(s), first at index {where}; nothing written"
        )


def _require_positive_finite(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be finite and positive, got {value}")
    return float(value)


def build_spec(config: argparse.Namespace) -> DiagonalSpec:
    """Materialize the configured initialization, C, B and the real-part
    transform; returns the spec with constrained A."""
    spec = make_init(config.init, config.N, seed=config.seed)
    spec.C_half = init_C(spec.n_half, config.seed + 1)
    if config.b_mode == "random":
        rng = np.random.default_rng(config.seed + 3)
        spec.B_half = spec.B_half + (
            rng.standard_normal(spec.n_half) + 1j * rng.standard_normal(spec.n_half)
        ) / np.sqrt(8.0)
    spec.A_half = constrain_real_parts(spec.A_half, config.re_mode)
    return spec


def build_system(config: argparse.Namespace) -> tuple[DiagonalSpec, DiscreteParams]:
    """The configured spec and its discretization: the one place the CLI
    checks or draws dt and discretizes."""
    spec = build_spec(config)
    if config.dt is not None:
        dt = _require_positive_finite(config.dt, "--dt")
    else:
        dt_min = _require_positive_finite(config.dt_min, "--dt-min")
        dt_max = _require_positive_finite(config.dt_max, "--dt-max")
        dt = float(np.exp(init_log_dt(dt_min, dt_max, config.seed + 2)))
    return spec, discretize(spec.A_half, spec.B_half, dt, config.disc)


def _system_kernel(config: argparse.Namespace, spec: DiagonalSpec, disc: DiscreteParams) -> Kernel:
    if config.softmax:
        return dss_softmax_kernel(spec, disc, config.L)
    return vandermonde_kernel(spec, disc, config.L)


def _system_meta(config: argparse.Namespace, disc: DiscreteParams) -> dict:
    """The metadata lines that `kernel` and `conv` CSVs start with."""
    return {
        "init": config.init,
        "rule": disc.rule,
        "N": config.N,
        "dt": "%.17g" % disc.dt,
        "L": config.L,
        "seed": config.seed,
    }


def cmd_kernel(config: argparse.Namespace) -> int:
    spec, disc = build_system(config)
    kernel = _system_kernel(config, spec, disc)
    _require_finite(kernel.values, "kernel")
    meta = _system_meta(config, disc) | {
        "re_mode": config.re_mode, "b_mode": config.b_mode, "softmax": config.softmax}
    text = _csv_text(meta, ["l", "value"], "%d,%.17g\n", enumerate(kernel.values.tolist()))
    _write_text(config.output, text)
    return 0


def cmd_basis(config: argparse.Namespace) -> int:
    if config.rows < 0:
        raise ValueError(f"--rows must be nonnegative (0 means all rows), got {config.rows}")
    dense = config.dense
    t = np.linspace(0.0, config.t_max, config.points)
    _require_finite(t, "basis time grid")
    if dense is None:
        table = sample_basis(build_spec(config), t)
    elif dense == "legs":
        table = sample_basis(make_hippo_legs(config.N)[0], t)
    elif dense == "normal":
        from . import oracle
        table = oracle.smoothed_normal_basis(config.N, t)
    else:
        table = sample_basis(make_hippo_normal(config.N), t)
    name = config.init if dense is None else f"dense-{dense}"
    values = table[: config.rows or None]
    _require_finite(values, "basis")
    meta = {"basis": name, "N": config.N, "rows": values.shape[0], "points": len(t)}
    rows = (
        (n, float(t[j]), float(values[n, j].real), float(np.imag(values[n, j])))
        for n in range(values.shape[0])
        for j in range(len(t))
    )
    text = _csv_text(meta, ["n", "t", "re", "im"], "%d,%.17g,%.17g,%.17g\n", rows)
    _write_text(config.output, text)
    return 0


_SPECTRUM_FAMILIES = ("legsd", "inv", "inv2", "quad", "lin")


def cmd_spectrum(config: argparse.Namespace) -> int:
    families = _SPECTRUM_FAMILIES if config.all else (config.init,)
    specs = {name: make_init(name, config.N, seed=config.seed) for name in families}
    if config.fmt == "json":
        payload = {
            name: {"re": spec.A_half.real, "im": spec.A_half.imag}
            for name, spec in specs.items()
        }
        _write_json(config.output, payload)
        return 0
    meta = {"N": config.N, "families": ",".join(families)}
    rows = (
        (name, n, float(spec.A_half[n].real), float(spec.A_half[n].imag))
        for name, spec in specs.items()
        for n in range(spec.n_half)
    )
    text = _csv_text(meta, ["init", "n", "re", "im"], "%s,%d,%.17g,%.17g\n", rows)
    _write_text(config.output, text)
    return 0


def cmd_conv(config: argparse.Namespace) -> int:
    samples = read_signal_csv(config.input)
    config.L = len(samples)
    # the convolution is linear, so samples scaled up exactly to max|u| in
    # [0.5, 1) keep subnormal inputs off the subnormal grid in both modes;
    # larger samples are left as they are, since scaling them down would
    # push their products with tiny kernel taps into the subnormals
    exponent = min(0, int(np.frexp(np.abs(samples).max())[1]))
    signal = Signal(samples=np.ldexp(samples, -exponent))
    spec, disc = build_system(config)
    if config.mode == "fft":
        out = fft_causal_conv(signal, _system_kernel(config, spec, disc))
    else:
        # the softmax kernel of length L is the Vandermonde kernel of C / row sums
        C = spec.C_half / _softmax_row_sums(disc, config.L) if config.softmax else spec.C_half
        out, _ = recurrent_scan(disc, C, signal, conj_pairs=spec.conj_pairs)
    values = np.ldexp(out.samples, exponent)
    _require_finite(values, "conv output")
    meta = _system_meta(config, disc) | {"mode": config.mode}
    rows = enumerate(np.atleast_1d(values).tolist())
    _write_text(config.output, _csv_text(meta, ["l", "value"], "%d,%.17g\n", rows))
    return 0


def _probe_proposition():
    n_values, tolerance = (2, 16, 64, 256), 1e-8
    deviations = {}
    for N in n_values:
        deviations[str(N)] = float(np.abs(hippo_d_spectrum(N).real + 0.5).max())
    ok = all(dev <= tolerance for dev in deviations.values())
    return {
        "probe": "proposition-real-parts",
        "params": {"N": list(n_values), "tolerance": tolerance},
        "metrics": {"max_real_deviation": deviations},
        "pass": ok,
    }


def _probe_conjecture():
    from . import oracle
    N = 256
    report = oracle.conjecture_probe(N)
    # the stated band bounds the deficit N^2/pi - Im_max = -c_estimate
    ok = (
        report.band_ratio <= 4.0
        and 0.4 <= N * N / np.pi - report.max_imag <= 0.65
        and report.max_real_deviation <= 1e-8
    )
    return {
        "probe": "conjecture-asymptotics",
        "params": {"N": N},
        "metrics": {
            "max_imag": report.max_imag,
            "c_estimate": report.c_estimate,
            "band_ratio": report.band_ratio,
            "max_real_deviation": report.max_real_deviation,
        },
        "pass": ok,
    }


def _probe_theorem():
    from . import oracle
    n_values, points = (16, 64, 256), 256
    t = np.linspace(0.0, 3.0, points)
    report = oracle.theorem_legsd_convergence(list(n_values), t)
    strict = all(
        report.errors[i + 1] < report.errors[i] for i in range(len(report.errors) - 1)
    )
    return {
        "probe": "theorem-convergence",
        "params": {"N": list(n_values), "points": points},
        "metrics": {"errors": report.errors},
        "pass": strict,
    }


def _probe_legendre():
    from . import oracle
    defect = oracle.legendre_orthonormality_defect(10)
    return {
        "probe": "legendre-orthonormality",
        "params": {"n_max": 10},
        "metrics": {"max_defect": defect},
        "pass": defect <= 1e-8,
    }


def _probe_duality(seed):
    from . import oracle
    count = 10
    rng = np.random.default_rng(seed)
    worst_scan = 0.0
    worst_fft = 0.0
    for _ in range(count):
        spec, dt = oracle.random_stable_spec(rng)
        rule = "bilinear" if rng.integers(2) else "zoh"
        disc = discretize(spec.A_half, spec.B_half, dt, rule)
        L = int(rng.integers(16, 257))
        kernel = vandermonde_kernel(spec, disc, L)
        impulse = np.zeros(L)
        impulse[0] = 1.0
        scan_out, _ = recurrent_scan(disc, spec.C_half, Signal(impulse))
        scale = max(float(np.abs(kernel.values).max()), np.finfo(float).tiny)
        worst_scan = max(worst_scan, float(np.abs(scan_out.samples - kernel.values).max()) / scale)
        u = Signal(rng.standard_normal(L))
        fft_out = fft_causal_conv(u, kernel)
        scan_u, _ = recurrent_scan(disc, spec.C_half, u)
        scale_y = max(float(np.abs(scan_u.samples).max()), np.finfo(float).tiny)
        worst_fft = max(worst_fft, float(np.abs(fft_out.samples - scan_u.samples).max()) / scale_y)
    return {
        "probe": "convolution-duality",
        "params": {"count": count, "seed": seed},
        "metrics": {"worst_kernel_vs_scan": worst_scan, "worst_fft_vs_scan": worst_fft},
        "pass": worst_scan <= 1e-10 and worst_fft <= 1e-8,
    }


def _probe_stability(seed):
    draws = 10_000
    rng = np.random.default_rng(seed)
    re = -np.exp(rng.uniform(np.log(1e-3), np.log(1e3), draws))
    im = rng.uniform(0.0, 1e4, draws)
    a = re + 1j * im
    b = np.ones(draws, dtype=complex)
    worst = 0.0
    for dt in np.exp(rng.uniform(np.log(1e-4), np.log(1.0), 8)):
        for rule in RULES:
            disc = discretize(a, b, float(dt), rule)
            worst = max(worst, float(np.abs(disc.A_bar).max()))
    return {
        "probe": "stability-contract",
        "params": {"draws": draws, "seed": seed},
        "metrics": {"max_modulus": worst},
        "pass": worst < 1.0,
    }


def _probe_perturbation():
    from . import oracle
    seeds, sigmas, N, points = (3, 13, 26), (0.3, 0.4, 0.5), 64, 128
    t = np.linspace(0.0, 3.0, points)
    baseline = np.mean(
        [oracle.perturbation_experiment(0.0, s, N, t)[1] for s in seeds]
    )
    averages = []
    for sigma in sigmas:
        averages.append(
            float(np.mean([oracle.perturbation_experiment(sigma, s, N, t)[1] for s in seeds]))
        )
    monotone = all(averages[i + 1] >= averages[i] for i in range(len(averages) - 1))
    ok = monotone and averages[-1] > 10.0 * baseline
    return {
        "probe": "rank1-perturbation",
        "params": {"sigmas": list(sigmas), "seeds": list(seeds), "N": N},
        "metrics": {"baseline": float(baseline), "divergence": averages},
        "pass": ok,
    }


def _probe_dss(seed):
    from . import oracle
    rng = np.random.default_rng(seed)
    spec, dt = oracle.random_stable_spec(rng, n_half=8)
    disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
    k512 = dss_softmax_kernel(spec, disc, 512)
    k256 = dss_softmax_kernel(spec, disc, 256)
    prefix_gap = float(np.abs(k512.values[:256] - k256.values).max())
    return {
        "probe": "dss-length-dependence",
        "params": {"seed": seed},
        "metrics": {"prefix_gap": prefix_gap},
        "pass": prefix_gap > 1e-6,
    }


_PROBES = {
    "proposition": lambda config: _probe_proposition(),
    "conjecture": lambda config: _probe_conjecture(),
    "theorem": lambda config: _probe_theorem(),
    "legendre": lambda config: _probe_legendre(),
    "duality": lambda config: _probe_duality(config.seed),
    "stability": lambda config: _probe_stability(config.seed),
    "perturbation": lambda config: _probe_perturbation(),
    "dss": lambda config: _probe_dss(config.seed),
}

PROBES = tuple(_PROBES)


def cmd_verify(config: argparse.Namespace) -> int:
    unknown = [name for name in config.probe if name not in _PROBES]
    if unknown:
        names = ", ".join(repr(name) for name in unknown)
        raise ValueError(f"unknown probe {names} (choose from {PROBES})")
    reports = [_PROBES[name](config) for name in config.probe]
    _write_json(config.output, reports)
    return 0 if all(r["pass"] for r in reports) else 1


def _auxiliary_peak_bytes(compute) -> int:
    """Peak bytes traced by tracemalloc while `compute()` runs, above those
    live before the call and beyond the array it returns."""
    import tracemalloc
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return peak - baseline - result.nbytes


def _bench_cell(config: argparse.Namespace, N: int, L: int):
    # the bench always times the plain Vandermonde kernel
    cell = argparse.Namespace(**(vars(config) | {"N": N}))
    spec, disc = build_system(cell)

    def run(fn):
        best = float("inf")
        for _ in range(config.repeats):
            start = time.perf_counter()
            kernel = fn(spec, disc, L)
            best = min(best, time.perf_counter() - start)
        return kernel, best, _auxiliary_peak_bytes(lambda: fn(spec, disc, L).values)

    def one_chunk(spec, disc, L):
        return _kernel(spec, disc, L, _weights(spec, disc), chunk=L)

    k_str, t_str, alloc_str = run(vandermonde_kernel)
    _require_finite(k_str.values, "kernel")
    k_one, t_one, alloc_one = run(one_chunk)
    return {
        "N": N,
        "L": L,
        "time_streaming": t_str,
        "time_one_chunk": t_one,
        "alloc_streaming": alloc_str,
        "alloc_one_chunk": alloc_one,
        "identical_csv": k_str.values.tobytes() == k_one.values.tobytes(),
    }


def cmd_bench(config: argparse.Namespace) -> int:
    if config.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {config.repeats}")
    if len({N * L for N in config.N_grid for L in config.L_grid}) < 2:
        # the memory-growth fit needs two problem sizes N*L to have a slope
        raise ValueError(
            f"--N-grid and --L-grid need at least two distinct products N*L, "
            f"got {config.N_grid} x {config.L_grid}"
        )
    cells = [_bench_cell(config, N, L) for N in config.N_grid for L in config.L_grid]
    log_nl = np.log([c["N"] * c["L"] for c in cells])
    log_alloc = np.log([c["alloc_streaming"] for c in cells])
    centered = log_nl - log_nl.mean()
    exponent = float((centered * (log_alloc - log_alloc.mean())).sum() / (centered**2).sum())
    identical = all(c["identical_csv"] for c in cells)
    report = {
        "probe": "bench-vandermonde",
        "params": {
            "N_grid": config.N_grid,
            "L_grid": config.L_grid,
            "repeats": config.repeats,
            "init": config.init,
        },
        "metrics": {"cells": cells, "alloc_fit_exponent": exponent},
        "pass": identical and exponent < 0.2,
    }
    _write_json(config.output, [report])
    return 0 if report["pass"] else 1


def _comma_list(item):
    """argparse type: a non-empty comma-separated list, each part parsed by item."""

    def parse(text: str) -> list:
        try:
            values = [item(part) for part in text.split(",") if part]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {item.__name__} list {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected a non-empty comma-separated list, got {text!r}")
        return values

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dssm",
        description="Diagonal state space model kernels, spectra, and verification probes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each pipeline stage's flags, added per subcommand (argparse `parents=`
    # would share Action objects, so one subcommand's set_defaults would leak)
    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="default from SSM_SEED, else 0")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    def add_init(p):
        p.add_argument("--init", choices=INIT_NAMES, default=None)
        p.add_argument("--N", type=int, default=64)

    def add_params(p):
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
        p.add_argument("--re-mode", choices=RE_MODES, default=None)
        p.add_argument("--b", choices=("ones", "random"), default=None, dest="b_mode")

    def add_disc(p):
        p.add_argument("--disc", choices=RULES, default=None)
        p.add_argument("--dt", type=float, default=None)

    def add_dt_range(p):  # the range dt is drawn from when --dt is not given
        p.add_argument("--dt-min", type=float, default=None)
        p.add_argument("--dt-max", type=float, default=None)

    def add_softmax(p):
        p.add_argument("--softmax", action="store_true", default=None)
        p.add_argument("--no-softmax", action="store_false", dest="softmax")

    def add_subcommand(name, help, *stages):
        # no prefix matching: `bench --N 64` must not be read as `--N-grid 64`
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for add in (add_common, *stages):
            add(p)
        return p

    kernel_stages = (add_init, add_params, add_disc, add_dt_range, add_softmax)
    p_kernel = add_subcommand("kernel", "emit a convolution kernel as CSV", *kernel_stages)
    p_kernel.add_argument("--L", type=int, default=1024)

    p_basis = add_subcommand("basis", "emit basis function samples as CSV", add_init, add_params)
    p_basis.add_argument("--dense", choices=("legs", "normal", "normal-unscaled"), default=None)
    p_basis.add_argument("--t-max", type=float, default=3.0)
    p_basis.add_argument("--points", type=int, default=512)
    p_basis.add_argument("--rows", type=int, default=8, help="0 means all rows")

    p_spec = add_subcommand("spectrum", "emit half-spectra as CSV or JSON", add_init)
    p_spec.add_argument("--all", action="store_true", default=None,
                        help="emit the comparison families")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")

    p_conv = add_subcommand("conv", "convolve a CSV signal with a kernel", *kernel_stages)
    p_conv.add_argument("--input", required=True, help="input CSV with l,value rows")
    p_conv.add_argument("--mode", choices=("fft", "scan"), default="fft")

    p_verify = add_subcommand("verify", "run verification probes, emit JSON")
    p_verify.add_argument("--probe", type=_comma_list(str), default=",".join(PROBES),
                          help="comma-separated probe names")

    # the grid sets N and the bench always times the plain kernel, so it has
    # no --N and no softmax flags.  Kernel-product timing should not be
    # dominated by spectrum construction, and kernel timings depend on dt
    # (subnormal tails), so init and dt default to lin and a fixed step; dt
    # is never drawn, so there is no dt range either.  The real-part
    # transform and B change only the mode values, not the chunk schedule or
    # its memory, so they are fixed at the s4d values and there is no params
    # stage
    p_bench = add_subcommand("bench", "benchmark kernel variants, emit JSON", add_disc)
    p_bench.add_argument("--init", choices=INIT_NAMES, default="lin")
    p_bench.set_defaults(dt=1e-2, re_mode="exp", b_mode="random")
    p_bench.add_argument("--N-grid", type=_comma_list(int), default="64,256,1024")
    p_bench.add_argument("--L-grid", type=_comma_list(int), default="1024,16384")
    p_bench.add_argument("--repeats", type=int, default=3)

    return parser


# Each selection that replaces a stage (None when unset), and the (flag,
# attribute) pairs of that stage, which must then stay unset: --all emits
# every family and --dense builds its own system, neither of them seeded;
# --dt fixes the drawn step.
_REPLACES = {
    "all": (("--init", "init"), ("--seed", "seed")),
    "dense": (("--init", "init"), ("--preset", "preset"), ("--re-mode", "re_mode"),
              ("--b", "b_mode"), ("--seed", "seed")),
    "dt": (("--dt-min", "dt_min"), ("--dt-max", "dt_max")),
}


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Complete the parsed arguments where argparse cannot.  A flag of a stage
    that a given selection replaces (`_REPLACES`) is a usage error.  The seed
    falls back to SSM_SEED; each preset-covered flag that the subcommand has
    and that was left unset comes from the preset (s4d when none is given),
    and --init and the dt range left unset take legsd and 1e-3..1e-1.  Where
    --softmax exists, softmax without ZOH is a usage error."""
    for name, stage in _REPLACES.items():
        given = [flag for flag, key in stage if getattr(args, key, None) is not None]
        if given and getattr(args, name, None) is not None:  # `--dt 0` is given too
            replaced = ", ".join(flag for flag, _ in stage)
            raise ValueError(f"--{name} replaces {replaced}; drop {', '.join(given)}")
    if args.seed is None:
        env = os.environ.get("SSM_SEED")
        try:
            args.seed = int(env) if env else 0
        except ValueError as exc:
            raise ValueError(f"SSM_SEED must be an integer, got {env!r}") from exc
    # --init and the dt range default to None so that a replaced one shows as given
    defaults = PRESETS[getattr(args, "preset", None) or "s4d"] | {
        "init": "legsd", "dt_min": 1e-3, "dt_max": 1e-1}
    for key, value in defaults.items():
        if getattr(args, key, value) is None:  # absent flags are skipped
            setattr(args, key, value)
    if getattr(args, "softmax", False) and args.disc != "zoh":
        raise ValueError(
            "softmax normalization requires --disc zoh (the DSS parameterization "
            "pairs softmax with zero-order hold); bilinear is incompatible"
        )
    return args


_COMMANDS = {
    "kernel": cmd_kernel,
    "basis": cmd_basis,
    "spectrum": cmd_spectrum,
    "conv": cmd_conv,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        # an accepted but extreme input (--dt 1e308) may overflow on the way;
        # the _require_finite checks report it, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.subcommand](config)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
