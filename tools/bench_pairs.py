"""Paired perfbench or tier-1 runs of two checkouts, written as one BENCH file.

Usage (from the repository root):

    python tools/bench_pairs.py PARENT_ROOT CHILD_ROOT --workload W \
        --seeds S1 S2 ... --seed-traced S --out BENCH_N.json [--what TEXT]
    python tools/bench_pairs.py PARENT_ROOT CHILD_ROOT --workload tier1 \
        --seeds S1 S2 ... --out BENCH_N.json [--what TEXT]

PARENT_ROOT and CHILD_ROOT are checkouts holding `perfbench/run.py` and
`src/dssm`; each run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0|1` started in its root, so each side measures its own
tree.  T (`run_seconds`) and the end-to-end metrics with their direction
(`end_to_end`) come from PARENT_ROOT's BENCHMARK.json.  There is one pair
per seed: pair i uses seed S(i+1) and runs the parent first for even i and
the child first for odd i.  Then one traced run per side, with --seed-traced,
gives the per-layer metrics (parent first).  The child's side is named
"change" in the file.

The `tier1` workload runs the Tier-1 verify command,
`PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q
--continue-on-collection-errors`, in each root instead, paired and ordered
the same way; the seed only labels the pair.  Its one end-to-end metric is
the command's wall time `wall_s`, a failed or erroring test counts as a failed
op, and there is no traced run.

The file holds `order`, `seeds_untraced`, `seed_traced`, `summary` (per
workload and end-to-end metric: each side's median and quartiles, the pairs
the change won by the metric's `better` direction, the median ratio and the
parent's interquartile range),
`traced_per_layer` and `runs` (every run's last two JSON lines).  When OUT
exists, the new workload replaces its old entries and the others are kept,
so one file can gather several invocations.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_END_TO_END = [{"name": "wall_s", "better": "lower"}]

def _run(root, side, workload, seed, seconds, trace):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    record = {"side": side, "workload": workload, "seed": seed, "trace": trace,
              "exit": proc.returncode, "elapsed_s": time.time() - start}
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{side} {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    record["result"] = json.loads(lines[-1])
    record["environment"] = json.loads(lines[-2])["environment"]
    print(f"{side:6} {workload} seed {seed} trace {trace}: {record['elapsed_s']:.0f} s", file=sys.stderr)
    return record


def _run_tier1(root, side, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: some test failed
        raise SystemExit(f"{side} tier1 seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    counts = {word.rstrip("s"): int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", lines[-1])}
    failed = counts.get("failed", 0) + counts.get("error", 0)
    result = {"attempted": counts.get("passed", 0) + failed, "failed": failed, "summary": lines[-1],
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    environment = {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
                   "cpu_count": os.cpu_count()}
    print(f"{side:6} tier1 seed {seed}: {wall:.1f} s, {lines[-1]}", file=sys.stderr)
    return {"side": side, "workload": "tier1", "seed": seed, "trace": 0, "exit": proc.returncode,
            "elapsed_s": wall, "result": result, "environment": environment}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs, end_to_end):
    """Per end-to-end metric ({"name", "better"} as in BENCHMARK.json), the
    untraced runs paired by seed."""
    untraced = [r for r in runs if r["trace"] == 0]
    side = {s: sorted((r for r in untraced if r["side"] == s), key=lambda r: r["seed"]) for s in ("parent", "change")}
    summary = {"pairs": len(side["parent"])}
    for s, name in (("parent", "parent_fail"), ("change", "change_fail")):
        results = [r["result"] for r in side[s]]
        summary[name] = f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}"
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [r["result"]["metrics"][name]["value"] for r in side["parent"]]
        change = [r["result"]["metrics"][name]["value"] for r in side["change"]]
        p, c = _spread(parent), _spread(change)
        summary[name] = {
            "parent": p,
            "change": c,
            "change_wins": sum(sign * b < sign * a for a, b in zip(parent, change)),
            "ties": sum(b == a for a, b in zip(parent, change)),
            "median_change_over_parent": c["median"] / p["median"],
            "parent_iqr": p["q3"] - p["q1"],
        }
    return summary


def _commit(root):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("child_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seed-traced", type=int, help="needed for a perfbench workload")
    parser.add_argument("--out", required=True)
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds, one per pair")
    tier1 = args.workload == "tier1"
    if not tier1 and args.seed_traced is None:
        parser.error("a perfbench workload needs --seed-traced")
    roots = {"parent": os.path.abspath(args.parent_root), "change": os.path.abspath(args.child_root)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    end_to_end = TIER1_END_TO_END if tier1 else spec["end_to_end"]

    runs = []
    for i, seed in enumerate(args.seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            if tier1:
                runs.append(_run_tier1(roots[side], side, seed))
            else:
                runs.append(_run(roots[side], side, args.workload, seed, seconds, 0))
    if not tier1:
        for side in ("parent", "change"):
            runs.append(_run(roots[side], side, args.workload, args.seed_traced, seconds, 1))

    bench = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            bench = json.load(handle)
    env = runs[0]["environment"]
    order = (f"{args.workload}: pair i (seed {args.seeds[0]}, ...) runs parent first for even i and change "
             f"first for odd i, {len(args.seeds)} pairs; ")
    if tier1:
        order += f"each run is `python {' '.join(TIER1)}` with the side's src first on PYTHONPATH"
    else:
        order += f"then one traced run per side with seed {args.seed_traced}, parent first"
    previous = [line for line in bench.get("order", "").split("\n") if line and not line.startswith(args.workload + ":")]
    bench.update({
        "what": args.what or bench.get("what", ""),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{seconds:g} --trace 0|1, paired by tools/bench_pairs.py",
        "parent_commit": _commit(roots["parent"]),
    })
    if not tier1 or "environment" not in bench:  # perfbench records the fuller environment
        bench.update({"numpy": env["numpy"], "cpu_count": env["cpu_count"], "python": env["python"],
                      "environment": env})
    bench["order"] = "\n".join(previous + [order])
    kept = [r for r in bench.get("runs", []) if r["workload"] != args.workload]
    bench["runs"] = kept + runs
    bench["seeds_untraced"] = sorted({r["seed"] for r in bench["runs"] if r["trace"] == 0})
    bench["seed_traced"] = sorted({r["seed"] for r in bench["runs"] if r["trace"] == 1})
    bench.setdefault("summary", {})[args.workload] = _summary(runs, end_to_end)
    if not tier1:
        bench.setdefault("traced_per_layer", {})[args.workload] = {
            r["side"]: {k: v["value"] for k, v in r["result"]["metrics"].items()} for r in runs if r["trace"] == 1
        }
    for key in ("summary", "traced_per_layer", "runs"):  # keep these last, as in earlier BENCH files
        if key in bench:
            bench[key] = bench.pop(key)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=1)
        handle.write("\n")
    wall = bench["summary"][args.workload]["wall_s"]
    print(f"{args.workload} wall_s median {wall['parent']['median']:.4g} -> {wall['change']['median']:.4g} s, "
          f"change won {wall['change_wins']}/{len(args.seeds)}; parent IQR {wall['parent_iqr']:.3g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
