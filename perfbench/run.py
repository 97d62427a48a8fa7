"""dssm benchmark: three workloads over the package in ../src, checked by numpy oracles.

Usage (from the repository root):
    python3 perfbench/run.py --workload cli-legsd|cli-conv|lib-forward \
        --seed N --seconds S --trace 0|1

Each workload repeats a fixed op list (a pass) while time remains, closed
loop with one client, and checks every op's output outside the timed
interval.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of traced passes run alternately with untraced ones.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A missing package tree or a set-up that fails exits nonzero with no result.
"""

import os
import sys

import procs

# Pin BLAS threads before numpy loads, here as in every child process.
os.environ.update(procs.PINNED_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import cliops  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 8
WORKER_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# metric name -> (layer, key in the layer totals, unit)
PER_LAYER = {
    "hippo.self_s": ("hippo", "self_s", "s"),
    "hippo.calls": ("hippo", "calls", "count"),
    "hippo.dim_sum": ("hippo", "dim_sum", "count"),
    "kernel.self_s": ("kernel", "self_s", "s"),
    "kernel.calls": ("kernel", "calls", "count"),
    "kernel.mode_samples": ("kernel", "mode_samples", "count"),
    "kernel.bytes_computed": ("kernel", "bytes_computed", "B"),
    "conv.fft.self_s": ("conv.fft", "self_s", "s"),
    "conv.fft.calls": ("conv.fft", "calls", "count"),
    "conv.fft_points": ("conv.fft", "fft_points", "count"),
    "conv.scan.self_s": ("conv.scan", "self_s", "s"),
    "conv.scan.calls": ("conv.scan", "calls", "count"),
    "conv.scan_steps": ("conv.scan", "scan_steps", "count"),
    "cli.self_s": ("cli", "self_s", "s"),
    "cli.rows_read": ("cli", "rows_read", "count"),
    "cli.rows_written": ("cli", "rows_written", "count"),
    "cli.bytes_written": ("cli", "bytes_written", "B"),
    "proc.startup_s": ("proc", "startup_s", "s"),
    "inits.self_s": ("inits", "self_s", "s"),
    "discretize.self_s": ("discretize", "self_s", "s"),
    "discretize.calls": ("discretize", "calls", "count"),
    "oracle.self_s": ("oracle", "self_s", "s"),
    "oracle.calls": ("oracle", "calls", "count"),
}


class SetupError(Exception):
    pass


@dataclass
class Measured:
    """What one run of a workload measured."""

    setup_s: list
    pass_s: list = field(default_factory=list)
    op_s: dict = field(default_factory=dict)  # op name -> latencies
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0  # CPU time of the processes doing the work
    attempted: int = 0
    failures: list = field(default_factory=list)
    traced_pass_s: list = field(default_factory=list)
    traced_layers: list = field(default_factory=list)  # layer totals per traced pass

    def count(self, results, timed=True):
        if timed:
            for r in results:
                self.op_s.setdefault(r.name, []).append(r.wall_s)
        self.attempted += len(results)
        self.failures += [f"{r.name}: {r.failure}" for r in results if r.failure]
        self.peak_rss_mb = max([self.peak_rss_mb] + [r.rss_mb for r in results])
        self.cpu_s += sum(r.cpu_s for r in results)


def _merge_totals(per_op):
    merged = {}
    for totals in per_op:
        for layer, values in totals.items():
            target = merged.setdefault(layer, {})
            for key, value in values.items():
                target[key] = target.get(key, 0) + value
    return merged


def _keep_going(start, rounds, seconds):
    """Start another round only if it is expected to end within the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def _setup_samples(sample):
    """Half of the timed set-ups: one half runs before the measured passes and
    one after, so the median spans the run rather than one moment of it."""
    return [sample() for _ in range(SETUP_REPEATS // 2)]


def measure_cli(make_ops, args, work, root=ROOT):
    env = procs.child_env(root)
    out, err = os.path.join(work, "help.stdout"), os.path.join(work, "help.stderr")

    def bare_process():
        child = procs.run_child([sys.executable, "-m", "dssm.cli", "--help"], env, out, err, 60.0)
        if child.code != 0:
            raise SetupError(f"dssm --help exited {child.code}: {child.stderr.strip()}")
        return child.wall_s

    bare_process()  # fills the bytecode cache
    measured = Measured(setup_s=_setup_samples(bare_process))
    ops = make_ops(work, args.seed)
    if args.trace:
        _traced_rounds(ops, args.seconds, root, work, measured)
    else:
        _op_stream(ops, args.seconds, root, work, measured)
    measured.setup_s += _setup_samples(bare_process)
    return measured


def _op_stream(ops, seconds, root, work, measured):
    """Cycle through the op list, op by op, while the next op is expected to
    end within the budget (after at least one full pass).  Every op counts
    for op_p50_s; wall_s uses complete passes only."""
    start, cost, walls = time.perf_counter(), {}, []
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and time.perf_counter() - start + cost[op.name] > seconds:
            return
        begin = time.perf_counter()
        result = cliops.run_op(op, root, work, op_id=f"p{i // len(ops)}-{i % len(ops)}")
        cost[op.name] = time.perf_counter() - begin  # op plus its check
        measured.count([result])
        walls.append(result.wall_s)
        if len(walls) % len(ops) == 0:
            measured.pass_s.append(sum(walls[-len(ops) :]))


def _traced_rounds(ops, seconds, root, work, measured):
    """Alternate untraced and traced passes while a round fits the budget."""
    start, rounds = time.perf_counter(), 0
    while True:
        untraced = cliops.run_pass(ops, root, work, False, rounds)
        traced = cliops.run_pass(ops, root, work, True, rounds)
        measured.pass_s.append(sum(r.wall_s for r in untraced))
        measured.traced_pass_s.append(sum(r.wall_s for r in traced))
        measured.traced_layers.append(_merge_totals(r.trace or {} for r in traced))
        measured.count(untraced)
        measured.count(traced, timed=False)
        rounds += 1
        if not _keep_going(start, rounds, seconds):
            return


def _run_worker(cmd, env, work, timeout_s):
    out, err = os.path.join(work, "worker.stdout"), os.path.join(work, "worker.stderr")
    child = procs.run_child(cmd, env, out, err, timeout_s)
    if child.code != 0:
        raise SetupError(f"{' '.join(cmd[1:])} exited {child.code}: {child.stderr.strip()}")
    with open(out, encoding="utf-8") as handle:
        return json.loads(handle.read().strip().splitlines()[-1]), child


def measure_lib(args, work):
    env = procs.child_env(ROOT)
    base = [sys.executable, os.path.join(HERE, "libforward.py"), "--seed", str(args.seed)]

    def setup_only():
        return _run_worker(base + ["--setup-only"], env, work, 60.0)[0]["setup_s"]

    setup_only()  # fills the bytecode cache
    setup = _setup_samples(setup_only)
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    report, child = _run_worker(cmd, env, work, WORKER_TIMEOUT_S)
    setup += _setup_samples(setup_only)
    return Measured(
        setup_s=setup,
        pass_s=report["pass_s"],
        op_s={"step": report["step_s"]},
        peak_rss_mb=child.rss_mb,
        cpu_s=child.cpu_s,
        attempted=report["attempted"],
        failures=report["failures"],
        traced_pass_s=report["traced_pass_s"],
        traced_layers=report["traced_layers"],
    )


WORKLOADS = {
    "cli-legsd": lambda args, work: measure_cli(cliops.legsd_ops, args, work),
    "cli-conv": lambda args, work: measure_cli(cliops.conv_ops, args, work),
    "lib-forward": measure_lib,
}


def end_to_end_metrics(m):
    # op_p50_s weighs each op of the list once (the median of its own
    # latencies), so ops repeated in a partial last pass do not shift it.
    values = {
        "wall_s": statistics.median(m.pass_s),
        "op_p50_s": statistics.median(statistics.median(v) for v in m.op_s.values()),
        "peak_rss_mb": m.peak_rss_mb,
        "setup_s": statistics.median(m.setup_s),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(m):
    """Layer totals of the traced pass with the median wall time (the lower
    middle one for an even count), so the layer times add up to its wall."""
    ranked = sorted(range(len(m.traced_pass_s)), key=m.traced_pass_s.__getitem__)
    middle = ranked[(len(ranked) - 1) // 2]
    totals, traced = m.traced_layers[middle], m.traced_pass_s[middle]
    metrics = {}
    for name, (layer, key, unit) in PER_LAYER.items():
        metrics[name] = {"value": totals.get(layer, {}).get(key, 0), "unit": unit}
    metrics["trace.overhead_frac"] = {"value": traced / statistics.median(m.pass_s) - 1.0, "unit": "ratio"}
    metrics["trace.op_wall_s"] = {"value": traced, "unit": "s"}
    return metrics


def environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": procs.PINNED_THREADS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its running child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "dssm", "cli.py")):
        print(f"error: no dssm package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        measured = WORKLOADS[args.workload](args, work)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    metrics = per_layer_metrics(measured) if args.trace else end_to_end_metrics(measured)
    failed = len(measured.failures)
    for reason in measured.failures[:10]:
        print(f"failed op: {reason}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} fail_frac = {failed}/{measured.attempted}; "
        f"op_p50_s over {sum(map(len, measured.op_s.values()))} ops of {len(measured.op_s)} kinds, "
        f"wall_s over {len(measured.pass_s)} passes, "
        f"setup_s over {len(measured.setup_s)} samples; child CPU time {measured.cpu_s:.3f} s"
    )
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"correct": failed == 0, "attempted": measured.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
