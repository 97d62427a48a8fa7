"""Property tests of the kernel, scan, discretization, CSV and CLI contracts,
mostly over random stable specs and both discretization rules.

Hypothesis runs derandomized with a small example budget, so every run
draws the same cases; the hand-seeded tests in the other modules stay as
they are.
"""

import contextlib
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dssm.cli import _build_parser, _csv_text, _resolve_config, build_spec, main, read_signal_csv
from dssm.conv import Signal, fft_causal_conv, recurrent_scan
from dssm.discretize import RULES, discretize
from dssm.hippo import DenseSpec
from dssm.inits import INIT_NAMES
from dssm.kernel import STREAM_CHUNK, vandermonde_kernel
from dssm.oracle import dense_kernel, random_stable_spec

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=15)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
rules = st.sampled_from(RULES)


def draw_system(seed, rule):
    rng = np.random.default_rng(seed)
    spec, dt = random_stable_spec(rng)
    return rng, spec, discretize(spec.A_half, spec.B_half, dt, rule)


@deterministic
@given(seed=seeds, rule=rules, L=st.integers(1, 300))
def test_kernel_equals_scan_impulse_response(seed, rule, L):
    _, spec, disc = draw_system(seed, rule)
    kernel = vandermonde_kernel(spec, disc, L)
    impulse = np.zeros(L)
    impulse[0] = 1.0
    scanned, _ = recurrent_scan(disc, spec.C_half, Signal(impulse))
    scale = max(float(np.abs(kernel.values).max()), np.finfo(float).tiny)
    assert np.abs(scanned.samples - kernel.values).max() <= 1e-10 * scale


@deterministic
@given(seed=seeds, rule=rules, L=st.integers(1, 300))
def test_fft_conv_equals_scan(seed, rule, L):
    rng, spec, disc = draw_system(seed, rule)
    u = Signal(rng.standard_normal(L))
    fft_out = fft_causal_conv(u, vandermonde_kernel(spec, disc, L))
    scan_out, _ = recurrent_scan(disc, spec.C_half, u)
    scale = max(float(np.abs(scan_out.samples).max()), np.finfo(float).tiny)
    assert np.abs(fft_out.samples - scan_out.samples).max() <= 1e-8 * scale


@deterministic
@given(seed=seeds, rule=rules, L=st.integers(2, 200), data=st.data())
def test_chunked_scan_equals_single_scan(seed, rule, L, data):
    rng, spec, disc = draw_system(seed, rule)
    split = data.draw(st.integers(1, L - 1), label="split")
    u = rng.standard_normal(L)
    whole, state_whole = recurrent_scan(disc, spec.C_half, Signal(u))
    first, carried = recurrent_scan(disc, spec.C_half, Signal(u[:split]))
    second, state_final = recurrent_scan(disc, spec.C_half, Signal(u[split:]), state=carried)
    np.testing.assert_array_equal(np.concatenate([first.samples, second.samples]), whole.samples)
    np.testing.assert_array_equal(state_final.x, state_whole.x)


# lengths within a few samples of a chunk boundary, where a remainder chunk
# of 1-2 samples would start
near_chunk_boundary = st.builds(
    lambda m, d: max(1, m * STREAM_CHUNK + d), st.integers(0, 3), st.integers(-3, 3)
)


@deterministic
@given(seed=seeds, rule=rules, lengths=st.lists(near_chunk_boundary, min_size=2, max_size=2, unique=True))
def test_kernel_prefix_is_length_independent(seed, rule, lengths):
    L, L2 = sorted(lengths)
    _, spec, disc = draw_system(seed, rule)
    np.testing.assert_array_equal(
        vandermonde_kernel(spec, disc, L).values, vandermonde_kernel(spec, disc, L2).values[:L]
    )


@deterministic
@given(
    log_re=st.floats(np.log(1e-3), np.log(1e3)),
    im=st.floats(0.0, 1e4),
    log_dt=st.floats(np.log(1e-4), 0.0),
    rule=rules,
)
def test_left_half_plane_discretizes_inside_unit_disk(log_re, im, log_dt, rule):
    a = np.array([-np.exp(log_re) + 1j * im])
    disc = discretize(a, np.ones(1, dtype=complex), float(np.exp(log_dt)), rule)
    assert np.abs(disc.A_bar[0]) < 1.0


@deterministic
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_csv_round_trip_is_lossless(values):
    rows = ((l, float(v)) for l, v in enumerate(values))
    text = _csv_text({"L": len(values)}, ["l", "value"], "%d,%.17g\n", rows)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "u.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        parsed = read_signal_csv(path)
    np.testing.assert_array_equal(parsed.view(np.int64), np.asarray(values).view(np.int64))


# edge timesteps and time spans: nan, infinities, negative, zero, subnormal,
# tiny, small enough that a closed form of exp(dt A) - 1 would cancel, huge
edge_values = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-300", "1e-9", "1e-7", "1e-5", "1e308"]
)
BLOCK_EDGE_LENGTHS = (1, 63, 64, 65)  # around the scan's 64-step block


def run_cli(argv):
    """main(argv) in process with every warning an error; (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def csv_values(text):
    """Every numeric field after the header row of a CSV, as floats (the
    init-name column of a spectrum CSV is skipped)."""
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    return np.array(
        [float(field) for row in rows for field in row.split(",") if field not in INIT_NAMES]
    )


def csv_meta(text):
    """The '# key: value' metadata comments of a CSV, as a dict of strings."""
    pairs = (line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))
    return dict(pairs)


# a few steps of the smallest subnormal: outputs at dt = 5e-324 are themselves
# subnormal, so each rounding there is a whole step (a conv output sums L
# rounded terms, so it gets the floor once per term)
SUBNORMAL_FLOOR = 4 * 5e-324


def reference_kernel(argv, dt, L):
    """The kernel that `dssm kernel` or `dssm conv` with `argv` should use, by
    the dense oracle on the same spec (the conjugate pairs written out as a
    dense diagonal matrix); DSS weights are divided by their row sums
    sum_l A_bar_n^l.  Where the dense oracle fails (only ZOH at the overflow
    edge dt = 1e308), the closed-form dt -> inf limit stands in: A_bar -> 0,
    B_bar -> -B/A."""
    config = _resolve_config(_build_parser().parse_args(argv))
    spec = build_spec(config)
    a, b, c = spec.A_half, spec.B_half, spec.C_half
    if spec.conj_pairs:
        a, b, c = (np.concatenate([x, x.conj()]) for x in (a, b, c))
    dense = DenseSpec(A=np.diag(a), B=b, C=c)
    try:
        # at dt = 1e308 the dense ZOH exponential overflows and raises
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if config.softmax:
                a_bar = np.diag(discretize(dense.A, b, dt, config.disc).A_bar)
                dense.C = c / np.vander(a_bar, L, increasing=True).sum(axis=1)
            return dense_kernel(dense, config.disc, dt, L).values
    except ValueError:
        pass
    assert dt == 1e308 and config.disc == "zoh", "the dense oracle fails only for ZOH at 1e308"
    a_bar, b_bar = 0.0, -b / a
    powers = a_bar ** np.arange(L)
    if config.softmax:
        c = c / powers.sum()
    return (c @ b_bar * powers).real


def assert_matches_reference(argv, out, L, u=None):
    """The CSV `out` of `dssm kernel` (or, given its input u, `dssm conv`)
    with `argv` is within 1e-10 max|ref| + SUBNORMAL_FLOOR (the floor once
    per term of a conv) of reference_kernel; returns the dt it reports."""
    dt = float(csv_meta(out)["dt"])
    reference = reference_kernel(argv, dt, L)
    floor = SUBNORMAL_FLOOR
    if u is not None:  # conv: the oracle kernel convolved by numpy's FFT
        n = 2 * L
        reference = np.fft.irfft(np.fft.rfft(u, n) * np.fft.rfft(reference, n), n)[:L]
        floor *= L
    gap = np.abs(csv_values(out)[1::2] - reference).max()  # the value of each l,value row
    assert gap <= 1e-10 * np.abs(reference).max() + floor
    return dt


def write_input(path, L):
    """A seeded length-L input CSV at `path`; returns its samples."""
    u = np.random.default_rng(L).standard_normal(L)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_csv_text({}, ["l", "value"], "%d,%.17g\n", enumerate(u)))
    return u


# 600 examples so that at least 100 kernel/conv runs take an explicit edge
# --dt (the derandomized draw gives 115; the rest draw --dt-min/--dt-max)
@settings(deterministic, max_examples=600)
@given(
    command=st.sampled_from(["kernel", "scan", "fft", "basis", "spectrum"]),
    value=edge_values,
    timescale=st.sampled_from(["--dt", "--dt-min", "--dt-max"]),
    L=st.sampled_from(BLOCK_EDGE_LENGTHS),
    preset=st.sampled_from(["s4d", "s4d-zoh", "dss"]),
    init=st.sampled_from(["lin", "inv", "legsd", "real"]),
    points=st.integers(1, 65),
    rows=st.sampled_from([0, 1, 8]),
    dense=st.sampled_from([None, "legs", "normal", "normal-unscaled"]),
    every=st.booleans(),
    data=st.data(),
)
def test_cli_exits_cleanly_on_edge_inputs(
    command, value, timescale, L, preset, init, points, rows, dense, every, data
):
    # a negative N is a usage error before anything else runs, so only
    # spectrum, which has no other edge input, draws it
    N = data.draw(st.sampled_from([-3, 1, 2, 8, 16] if command == "spectrum" else [1, 2, 8, 16]),
                  label="N")
    kernel_flags = [f"{timescale}={value}", "--preset", preset, "--init", init]
    with tempfile.TemporaryDirectory() as directory:
        u = None
        if command == "spectrum":
            argv = ["spectrum", "--all"] if every else ["spectrum", "--init", init]
        elif command == "basis":
            argv = ["basis", f"--t-max={value}", "--points", str(points), "--rows", str(rows)]
            # --dense replaces the init and params stages
            argv += ["--dense", dense] if dense else ["--preset", preset, "--init", init]
        elif command == "kernel":
            argv = ["kernel", "--L", str(L), *kernel_flags]
        else:
            path = os.path.join(directory, "u.csv")
            u = write_input(path, L)
            argv = ["conv", "--input", path, "--mode", command, *kernel_flags]
        argv += ["--N", str(N)]
        code, out, err = run_cli(argv)
    assert code in (0, 2)
    assert "replaces" not in err  # every example reaches the computation
    if code == 0:
        assert np.isfinite(csv_values(out)).all()
        assert err == ""
        if command in ("kernel", "scan", "fft"):
            dt = assert_matches_reference(argv, out, L, u)
            assert timescale != "--dt" or dt == float(value)
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# the fuzz accepts exit 2 at every edge value, so it cannot see a step that
# should work; numpy's complex division overflows once a divisor's larger
# part is below 2^-1024, which dt A and A_bar - 1 reach at these steps
@pytest.mark.parametrize("dt", ["1e-308", "1e-310", "1e-320", "5e-324"])
@pytest.mark.parametrize(
    "command, preset, init, N",
    [("kernel", "s4d-zoh", "lin", 8), ("kernel", "dss", "legsd", 16), ("scan", "s4d-zoh", "inv", 8)],
    ids=["zoh-kernel", "dss-kernel", "zoh-scan"],
)
def test_zoh_and_dss_hold_at_subnormal_steps(tmp_path, command, preset, init, N, dt):
    L = 65
    flags = ["--dt", dt, "--preset", preset, "--init", init, "--N", str(N)]
    u = None
    if command == "kernel":
        argv = ["kernel", "--L", str(L), *flags]
    else:
        u = write_input(tmp_path / "u.csv", L)
        argv = ["conv", "--input", str(tmp_path / "u.csv"), "--mode", command, *flags]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert_matches_reference(argv, out, L, u)
