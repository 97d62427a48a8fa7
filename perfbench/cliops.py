"""The `cli-legsd` and `cli-conv` workloads: op lists and how one op runs.

One op is one `python -m dssm.cli ...` process, timed from spawn to reap.
Every op writes to a file that is deleted before the op starts, and its
output is checked against the numpy oracles outside the timed interval.
"""

import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
import procs
import spans

LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
OP_TIMEOUT_S = 120.0
LEGSD_L = 4096


@dataclass
class Op:
    name: str
    argv: list  # dssm CLI arguments
    output: str
    check: Callable[[str], str | None]  # output path -> failure reason or None


@dataclass
class OpResult:
    name: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    failure: str | None
    trace: dict | None = None  # layer totals of a traced op


def write_signal(path, values):
    """Single-channel 'l,value' CSV; plain float reprs so every row parses."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("l,value\n")
        handle.writelines(f"{l},{float(v)!r}\n" for l, v in enumerate(values))


def _expected_kernel(init, N, L, dt, seed, preset, rule):
    default_rule, randomized, softmax = oracles.PRESETS[preset]
    A = oracles.half_spectrum(init, N)
    B = oracles.cli_B(N // 2, seed, randomized)
    C = oracles.cli_C(N // 2, seed)
    return oracles.kernel(A, B, C, dt, rule or default_rule, L, softmax)


def _kernel_flags(init, N, dt, seed, preset, rule):
    flags = ["--init", init, "--N", str(N), "--dt", repr(dt), "--seed", str(seed), "--preset", preset]
    return flags + (["--disc", rule] if rule else [])


def kernel_op(work, name, init, N, L, dt, seed, preset="s4d", rule=None):
    output = os.path.join(work, f"{name}.csv")
    expected = functools.cache(lambda: _expected_kernel(init, N, L, dt, seed, preset, rule))
    argv = ["kernel", *_kernel_flags(init, N, dt, seed, preset, rule), "--L", str(L), "-o", output]
    return Op(name, argv, output, lambda path: oracles.check_series(path, expected(), L))


def conv_op(work, name, signal_path, u, init, N, dt, seed, preset, mode):
    output = os.path.join(work, f"{name}.csv")
    L = len(u)

    @functools.cache
    def expected():
        return oracles.causal_conv(u, _expected_kernel(init, N, L, dt, seed, preset, None))

    argv = ["conv", "--input", signal_path, "--mode", mode, *_kernel_flags(init, N, dt, seed, preset, None), "-o", output]
    return Op(name, argv, output, lambda path: oracles.check_series(path, expected(), L))


def spectrum_op(work, N):
    output = os.path.join(work, f"spectrum-all-N{N}.csv")
    families = ("legsd", "inv", "inv2", "quad", "lin")
    argv = ["spectrum", "--all", "--N", str(N), "-o", output]
    return Op(f"spectrum-all-N{N}", argv, output, lambda path: oracles.check_spectrum(path, families, N))


def verify_op(work):
    output = os.path.join(work, "verify.json")
    return Op("verify", ["verify", "-o", output], output, oracles.check_verify)


# Step sizes are fixed per op, not drawn from the seed: op latency depends on
# dt (a kernel that decays into subnormal floats takes about twice as long),
# and the seed should change the inputs, not the work.  The seed draws --seed
# (C and B) and the input signals.
LEGSD_GRID = ((64, "bilinear", 0.01), (64, "zoh", 0.05), (128, "bilinear", 0.002),
              (128, "zoh", 0.02), (256, "bilinear", 0.005), (256, "zoh", 0.1))


def legsd_ops(work, seed):
    """Spectrum-bound ops: the in-package Jacobi eigensolve dominates."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for N, rule, dt in LEGSD_GRID:
        name = f"kernel-legsd-N{N}-{rule}"
        ops.append(kernel_op(work, name, "legsd", N, LEGSD_L, dt, _cli_seed(rng), rule=rule))
    return ops + [verify_op(work), spectrum_op(work, 128)]


# (init, N, preset, mode, L, dt) of each conv op; closed-form spectra only.
# With the kernel op that makes nine, so the median op latency falls on one
# op: the N=256, L=16384 zoh scan, which sits between four shorter ops and
# the kernel op, whose 134 MB power matrix makes its time the least steady.
# dt = 0.05 on the dss inv op runs its kernel tail into subnormals.
CONV_GRID = (
    ("lin", 64, "s4d", "fft", 16384, 0.01),
    ("inv", 256, "s4d", "fft", 16384, 0.003),
    ("inv", 256, "dss", "fft", 65536, 0.05),
    ("lin", 64, "dss", "fft", 16384, 0.002),
    ("inv", 64, "s4d-zoh", "scan", 16384, 0.02),
    ("inv", 64, "s4d", "scan", 65536, 0.001),
    ("lin", 256, "s4d-zoh", "scan", 16384, 0.03),
    ("lin", 256, "s4d", "scan", 65536, 0.005),
)
KERNEL_DT = 0.01


def _cli_seed(rng):
    return int(rng.integers(0, 2**31))


def conv_ops(work, seed):
    """CSV I/O, long single-channel FFT and full-length scans; no spectrum solve."""
    rng = np.random.default_rng([seed, 2])
    signals = {}
    for L in sorted({row[4] for row in CONV_GRID}):
        path = os.path.join(work, f"signal-L{L}.csv")
        u = rng.standard_normal(L)
        write_signal(path, u)
        signals[L] = (path, u)
    ops = []
    for init, N, preset, mode, L, dt in CONV_GRID:
        path, u = signals[L]
        name = f"conv-{mode}-{preset}-{init}-N{N}-L{L}"
        ops.append(conv_op(work, name, path, u, init, N, dt, _cli_seed(rng), preset, mode))
    ops.append(kernel_op(work, "kernel-lin-N256-L65536", "lin", 256, 65536, KERNEL_DT, _cli_seed(rng)))
    return ops


def run_op(op, root, work, traced=False, op_id=""):
    """Run one op in a fresh process and check its output."""
    spans_path = os.path.join(work, f"{op.name}.spans.json")
    for stale in (op.output, spans_path):
        if os.path.exists(stale):
            os.remove(stale)
    if traced:
        cmd = [sys.executable, LAUNCH, spans_path, op_id, "--", *op.argv]
    else:
        cmd = [sys.executable, "-m", "dssm.cli", *op.argv]
    child = procs.run_child(
        cmd,
        procs.child_env(root),
        os.path.join(work, f"{op.name}.stdout"),
        os.path.join(work, f"{op.name}.stderr"),
        OP_TIMEOUT_S,
    )
    if child.code != 0:
        failure = f"exit {child.code}: {child.stderr.strip()[-200:]}"
    else:
        failure = op.check(op.output)
    trace = None
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            dump = json.load(handle)
        trace = spans.layer_totals(dump["spans"])
        cli = trace.setdefault("cli", {"self_s": 0.0, "calls": 0})
        cli.update(dump["output"])
        trace["proc"] = {"startup_s": child.wall_s - spans.root_time(dump["spans"])}
    return OpResult(op.name, child.wall_s, child.rss_mb, child.cpu_s, failure, trace)


def run_pass(ops, root, work, traced=False, pass_id=0):
    return [run_op(op, root, work, traced, f"p{pass_id}-{i}") for i, op in enumerate(ops)]
