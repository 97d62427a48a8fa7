"""The `lib-forward` workload: an in-process S4D layer stack.

Usage: python3 perfbench/libforward.py --seed S --seconds T --trace 0|1 [--setup-only]

run.py starts this in a fresh interpreter with PYTHONPATH at the tree under
test and reads the one JSON object it prints.  Set-up is the import of the
package plus the construction of H channel specs (the legsd spectrum is
solved here, once, and cached by the package).  One op is one forward step:
for every channel, discretize, build the kernel (DSS softmax + ZOH on a
quarter of the channels), FFT-convolve a (batch, L) input, then decode DECODE
steps with the recurrent scan in CHUNK-step calls that carry the state.
"""

import argparse
import importlib
import json
import time
from dataclasses import dataclass

H, BATCH, N, L = 8, 4, 64, 4096
DECODE, CHUNK = 512, 64
STEPS_PER_PASS = 16


@dataclass
class Channel:
    family: str
    spec: object  # dssm.inits.DiagonalSpec
    dt: float
    rule: str
    softmax: bool


def setup(seed):
    """Import dssm and build the channel specs; returns (lib, channels, seconds)."""
    start = time.perf_counter()
    lib = argparse.Namespace(
        **{name: importlib.import_module(f"dssm.{name}") for name in ("inits", "discretize", "kernel", "conv")}
    )
    import numpy as np

    rng = np.random.default_rng([seed, 3])
    channels = []
    for h, dt in enumerate(np.geomspace(1e-3, 1e-1, H)):  # fixed: latency depends on dt
        family = "legsd" if h % 2 == 0 else "inv"
        spec = lib.inits.make_init(family, N)
        spec.C_half = rng.standard_normal(spec.n_half) + 1j * rng.standard_normal(spec.n_half)
        softmax = h % 4 == 3
        channels.append(Channel(family, spec, float(dt), "zoh" if softmax else "bilinear", softmax))
    return lib, channels, time.perf_counter() - start


def step(lib, channels, u, d):
    """One forward step.  Library calls go through module attributes, so a
    tracer installed on the modules sees them."""
    ys, decoded = [], []
    for h, ch in enumerate(channels):
        disc = lib.discretize.discretize(ch.spec.A_half, ch.spec.B_half, ch.dt, ch.rule)
        build = lib.kernel.dss_softmax_kernel if ch.softmax else lib.kernel.vandermonde_kernel
        K = build(ch.spec, disc, L)
        ys.append(lib.conv.fft_causal_conv(lib.conv.Signal(u[h]), K).samples)
        state, chunks = None, []
        for start in range(0, DECODE, CHUNK):
            out, state = lib.conv.recurrent_scan(
                disc, ch.spec.C_half, lib.conv.Signal(d[h][:, start : start + CHUNK]), state=state
            )
            chunks.append(out.samples)
        decoded.append(chunks)
    return ys, decoded


class Checker:
    """Compares step outputs with numpy.fft convolutions of oracle kernels."""

    def __init__(self, channels):
        import numpy as np

        import oracles

        self.np, self.oracles = np, oracles
        self.kernels = []
        for ch in channels:
            A = oracles.half_spectrum(ch.family, N)
            B = np.ones(N // 2, dtype=complex)
            C = ch.spec.C_half
            forward = oracles.kernel(A, B, C, ch.dt, ch.rule, L, ch.softmax)
            scan = oracles.kernel(A, B, C, ch.dt, ch.rule, DECODE)
            self.kernels.append((forward, scan))

    def __call__(self, u, d, ys, decoded):
        for h, (forward, scan) in enumerate(self.kernels):
            reason = self.oracles.compare(ys[h], self.oracles.causal_conv(u[h], forward), f"channel {h} forward")
            if reason is None:
                got = self.np.concatenate(decoded[h], axis=1)
                reason = self.oracles.compare(got, self.oracles.causal_conv(d[h], scan), f"channel {h} decode")
            if reason:
                return reason
        return None


def run_pass(lib, channels, inputs, check, tracer=None, pass_id=0):
    """STEPS_PER_PASS steps; returns (step latencies, failure reasons)."""
    latencies, failures = [], []
    for i in range(STEPS_PER_PASS):
        u = inputs.standard_normal((H, BATCH, L))
        d = inputs.standard_normal((H, BATCH, DECODE))
        if tracer is None:
            start = time.perf_counter()
            ys, decoded = step(lib, channels, u, d)
            latencies.append(time.perf_counter() - start)
        else:
            tracer.op = f"p{pass_id}-{i}"
            with tracer.region("bench", "step") as span:
                ys, decoded = step(lib, channels, u, d)
            latencies.append(span[6] - span[5])
        reason = check(u, d, ys, decoded)
        if reason:
            failures.append(reason)
    return latencies, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    lib, channels, setup_s = setup(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import numpy as np

    import spans

    check = Checker(channels)
    inputs = np.random.default_rng([args.seed, 4])
    result = {"step_s": [], "pass_s": [], "failures": [], "attempted": 0}
    result.update(traced_pass_s=[], traced_layers=[])
    start = time.perf_counter()
    rounds = 0
    while True:
        latencies, failures = run_pass(lib, channels, inputs, check)
        result["step_s"] += latencies
        result["pass_s"].append(sum(latencies))
        result["failures"] += failures
        result["attempted"] += len(latencies)
        if args.trace:
            tracer = spans.Tracer()
            restore = spans.install(tracer)
            try:
                latencies, failures = run_pass(lib, channels, inputs, check, tracer, rounds)
            finally:
                restore()
            result["traced_pass_s"].append(sum(latencies))
            result["traced_layers"].append(spans.layer_totals(tracer.spans))
            result["failures"] += failures
            result["attempted"] += len(latencies)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    print(json.dumps(result))


if __name__ == "__main__":
    main()
