"""Run a fixed corpus of `dssm` CLI commands and print one line per command.

Usage:

    python tools/cli_corpus.py SRC_DIR > corpus.txt

Each command runs as `python -m dssm.cli ...` with PYTHONPATH=SRC_DIR, in a
temporary directory that also holds the input CSVs of the `conv` commands:
seeded samples, and short texts for comment lines and each row error.  A
line reads

    <sha256 of stdout> <exit code> <sha256 of stderr> <argv>

so two checkouts are compared by one `diff` of their listings.  `bench`
reports carry timings and measured bytes, so for them the first hash is taken
over the report with every number blanked out: keys, strings and booleans
(`pass`, `identical_csv`) still have to match.  Nothing is written outside the
temporary directory (bytecode caching is off).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

# name: (length, seed, power-of-two exponent of the scale); 63, 64 and 65
# samples sit at the scan's 64-step block edge
INPUTS = {"u5000.csv": (5000, 11, 0), "u4097.csv": (4097, 12, 0), "u63.csv": (63, 13, 0),
          "u64.csv": (64, 14, 0), "u65.csv": (65, 15, 0), "u1.csv": (1, 16, 0),
          "u65huge.csv": (65, 15, 1021)}
# name: text, for the reader's comment lines and each of its row errors
TEXT_INPUTS = {"commented.csv": "# metadata\n\nl,value\n0,1.5\n# between rows\n1,-2\n",
               "malformed.csv": "l,value\n0,1.0,5.0\n", "unparseable.csv": "l,value\n0,1.0\n1,abc\n",
               "order.csv": "l,value\n0,1.0\n2,3.0\n", "nonfinite.csv": "l,value\n0,1.0\n1,nan\n",
               "empty.csv": "# nothing\nl,value\n"}


def _corpus() -> list[tuple[dict, list[str]]]:
    """(extra environment, argv) pairs."""
    plain = {}
    runs = []
    for preset in ("s4d", "s4d-zoh", "dss"):
        for N in (64, 256):
            for L in (1, 7, 4096, 4097, 4098, 8193, 8194, 65536):
                runs.append((plain, ["kernel", "--preset", preset, "--N", str(N), "--L", str(L),
                                     "--dt", "0.01"]))
    for L in (4097, 65536):
        runs.append((plain, ["kernel", "--init", "lin", "--N", "256", "--L", str(L)]))
    # mode counts N/2 below, at and past the kernel's 32-mode groups, and
    # lengths that end inside a 64-sample block or a 4096-sample batch
    for N, L in ((14, 4097), (22, 4097), (26, 4097), (200, 4097), (66, 65), (130, 4097)):
        runs.append((plain, ["kernel", "--init", "lin", "--N", str(N), "--L", str(L),
                             "--dt", "0.01"]))
    for N, L in ((200, 4097), (66, 129)):
        runs.append((plain, ["kernel", "--preset", "dss", "--init", "inv", "--N", str(N),
                             "--L", str(L), "--dt", "0.01"]))
    # a bilinear step so long that dt/2 * A overflows
    runs.append((plain, ["kernel", "--L", "1", "--dt", "1e308", "--preset", "s4d", "--init", "rand",
                         "--N", "8"]))
    for mode in ("fft", "scan"):
        runs.append((plain, ["conv", "--input", "u1.csv", "--mode", mode, "--init", "rand",
                             "--N", "8", "--dt", "1e308"]))
    # bilinear steps with dt/2 >= 1, where the map is scaled by a power of two,
    # up to a step near the largest double
    runs.append((plain, ["kernel", "--preset", "s4d", "--init", "legsd", "--N", "64",
                         "--L", "4097", "--dt", "3"]))
    runs.append((plain, ["kernel", "--preset", "s4d", "--init", "inv", "--N", "256",
                         "--L", "65", "--dt", "1e10"]))
    for mode in ("scan", "fft"):
        runs.append((plain, ["conv", "--input", "u4097.csv", "--mode", mode, "--preset", "s4d",
                             "--init", "lin", "--N", "64", "--dt", "8"]))
    runs.append((plain, ["kernel", "--preset", "s4d", "--init", "lin", "--N", "8", "--L", "1",
                         "--dt", "1.7e308"]))
    runs.append((plain, ["basis", "--dense", "normal", "--N", "8", "--points", "2",
                         "--t-max", "1.7e308"]))
    # ZOH at the overflow edge: dt A overflows for the real A = -2, -3, -4 (exit 2,
    # no finite kernel), and stays finite for A = -0.5 (B_bar near -B/A)
    runs.append((plain, ["kernel", "--init", "real", "--N", "4", "--L", "2", "--dt", "1e308",
                         "--disc", "zoh", "--re-mode", "identity", "--b", "ones"]))
    runs.append((plain, ["kernel", "--preset", "s4d-zoh", "--init", "lin", "--N", "2",
                         "--L", "4", "--dt", "1e308"]))
    for name in ("u5000.csv", "u4097.csv"):
        for mode in ("fft", "scan"):
            for preset in ("s4d", "s4d-zoh"):
                runs.append((plain, ["conv", "--input", name, "--mode", mode, "--preset", preset,
                                     "--init", "lin", "--N", "64", "--dt", "0.01"]))
    for name in ("u63.csv", "u64.csv", "u65.csv"):
        for preset in ("s4d", "s4d-zoh"):
            runs.append((plain, ["conv", "--input", name, "--mode", "scan", "--preset", preset,
                                 "--init", "lin", "--N", "64", "--dt", "0.01"]))
    # samples near 2^1022, where the FFT's sums of m terms would overflow
    # unscaled although the output is finite
    for mode in ("fft", "scan"):
        for preset in ("s4d", "s4d-zoh"):
            runs.append((plain, ["conv", "--input", "u65huge.csv", "--mode", mode, "--preset", preset,
                                 "--init", "lin", "--N", "64", "--dt", "0.01"]))
    runs.append((plain, ["conv", "--input", "u5000.csv", "--mode", "fft", "--preset", "dss",
                         "--init", "inv"]))
    # the softmax in both modes: the scan runs C / row sums for the input's length
    for name in ("u65.csv", "u4097.csv"):
        for mode in ("fft", "scan"):
            runs.append((plain, ["conv", "--input", name, "--mode", mode, "--preset", "dss",
                                 "--init", "inv", "--N", "64", "--dt", "0.01"]))
    runs += [
        # metadata of a real spectrum (N modes, odd N, no conjugate pairs) and of
        # hyphenated seeded inits, one of them with a drawn dt
        (plain, ["kernel", "--init", "real", "--N", "7", "--L", "65", "--dt", "0.01"]),
        (plain, ["kernel", "--init", "lin-rimag", "--N", "16", "--L", "65"]),
        (plain, ["conv", "--input", "u65.csv", "--mode", "scan", "--init", "real", "--N", "5",
                 "--dt", "0.01"]),
        (plain, ["conv", "--input", "u65.csv", "--mode", "fft", "--init", "inv-rimag",
                 "--N", "16"]),
        # the real-part transforms no preset selects: relu, and identity under bilinear
        (plain, ["kernel", "--re-mode", "relu", "--init", "rand", "--N", "16", "--L", "65",
                 "--dt", "0.01"]),
        (plain, ["basis", "--re-mode", "relu", "--init", "lin", "--N", "8", "--points", "5"]),
        (plain, ["kernel", "--re-mode", "identity", "--disc", "bilinear", "--init", "inv",
                 "--N", "16", "--L", "65", "--dt", "0.01"]),
        # ZOH and the DSS row sums at dt |A| from 1e-9 to 1e-5, where a closed form
        # of exp(dt A) - 1 or A_bar^L - 1 would cancel
        (plain, ["kernel", "--preset", "s4d-zoh", "--init", "legsd", "--N", "8", "--L", "65",
                 "--dt", "1e-9"]),
        (plain, ["kernel", "--preset", "dss", "--init", "lin", "--N", "64", "--L", "65",
                 "--dt", "1e-8"]),
        (plain, ["conv", "--input", "u65.csv", "--mode", "scan", "--preset", "s4d-zoh",
                 "--init", "inv", "--N", "8", "--dt", "1e-5"]),
        # ZOH and the DSS row sums at subnormal steps, where numpy's complex
        # division by dt A or A_bar - 1 would overflow unscaled
        (plain, ["kernel", "--preset", "s4d-zoh", "--init", "lin", "--N", "8", "--L", "65",
                 "--dt", "1e-310"]),
        (plain, ["kernel", "--preset", "dss", "--init", "legsd", "--N", "16", "--L", "65",
                 "--dt", "5e-324"]),
        (plain, ["conv", "--input", "u65.csv", "--mode", "scan", "--preset", "s4d-zoh",
                 "--init", "inv", "--N", "8", "--dt", "1e-310"]),
        (plain, ["spectrum", "--all", "--N", "64"]),
        (plain, ["spectrum", "--all", "--N", "64", "--format", "json"]),
        (plain, ["spectrum", "--init", "legsd", "--N", "256"]),
        (plain, ["spectrum", "--init", "legsd", "--N", "256", "--format", "json"]),
        (plain, ["basis", "--init", "lin", "--N", "8"]),
        (plain, ["basis", "--dense", "legs", "--N", "64", "--rows", "5"]),
        (plain, ["basis", "--dense", "normal", "--N", "16", "--rows", "0", "--points", "33"]),
        (plain, ["basis", "--dense", "normal-unscaled", "--N", "32", "--rows", "0",
                 "--points", "17"]),
        # one-point, zero-step and negative-step grids: each takes the one orbit
        (plain, ["basis", "--dense", "legs", "--N", "8", "--points", "1"]),
        (plain, ["basis", "--dense", "legs", "--N", "8", "--t-max", "0", "--points", "3"]),
        (plain, ["basis", "--dense", "legs", "--N", "8", "--t-max", "-1", "--points", "3"]),
        (plain, ["basis", "--dense", "legs", "--N", "12", "--points", "2", "--t-max", "0.5"]),
        # the smoothed normal basis needs a positive step: both exit 2 naming it
        (plain, ["basis", "--dense", "normal", "--N", "8", "--t-max", "0", "--points", "3"]),
        (plain, ["basis", "--dense", "normal", "--N", "8", "--t-max", "-1", "--points", "3"]),
        (plain, ["verify"]),
        # the probe sizes are fixed, so this line and the two --N-list lines below exit 2
        # (unrecognized arguments); no input makes a probe fail, and no line exits 1
        (plain, ["verify", "--probe", "theorem", "--theorem-N", "64,64", "--points", "64"]),
        ({"SSM_SEED": "3"}, ["verify", "--probe", "duality,dss,stability"]),
        (plain, ["bench", "--repeats", "1"]),
        (plain, ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--repeats", "1"]),
        # exit-2 cases
        (plain, ["kernel", "--softmax", "--disc", "bilinear"]),
        (plain, ["conv", "--input", "missing.csv"]),
        (plain, ["verify", "--probe", "conjecture", "--N-list", "6"]),
        (plain, ["verify", "--probe", "conjecture", "--N-list", "7"]),
        (plain, ["bench", "--N-grid", "8", "--L-grid", "16", "--repeats", "0"]),
        (plain, ["bench", "--N-grid", "64", "--L-grid", "1024", "--repeats", "1"]),
        (plain, ["basis", "--dense", "legs", "--N", "8", "--t-max", "1e308", "--points", "3"]),
        (plain, ["basis", "--init", "lin", "--N", "8", "--t-max", "inf", "--points", "3"]),
        # an allocation too large to make (35.5 PiB, beyond any address space)
        (plain, ["spectrum", "--init", "lin", "--N", "10000000000000000"]),
        # a flag the subcommand does not read
        (plain, ["spectrum", "--N", "8", "--dt", "0.01"]),
        (plain, ["spectrum", "--N", "8", "--preset", "dss"]),
        (plain, ["basis", "--init", "lin", "--N", "8", "--softmax"]),
        (plain, ["basis", "--init", "lin", "--N", "8", "--dt", "0.01"]),
        (plain, ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--N", "64"]),
        (plain, ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--dt-min", "0.01"]),
        (plain, ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--preset", "dss"]),
        (plain, ["verify", "--probe", "legendre", "--theorem-N", "64"]),
        (plain, ["verify", "--points", "64"]),
        # a flag of a stage that a selection replaces
        (plain, ["spectrum", "--all", "--N", "64", "--init", "rand"]),
        (plain, ["basis", "--dense", "legs", "--N", "8", "--init", "rand", "--re-mode", "relu",
                 "--b", "random", "--preset", "dss"]),
        (plain, ["kernel", "--init", "lin", "--N", "8", "--L", "4", "--dt", "0.01",
                 "--dt-min", "nan", "--dt-max", "-5"]),
        (plain, ["conv", "--input", "u63.csv", "--init", "lin", "--N", "64", "--dt", "0.01",
                 "--dt-min", "1e-3"]),
        (plain, ["spectrum", "--all", "--N", "8", "--seed", "3"]),
        (plain, ["basis", "--dense", "legs", "--N", "8", "--seed", "3"]),
        # values the parser accepts and the command rejects
        (plain, ["verify", "--probe", "nope"]),
        (plain, ["verify", "--probe", ","]),
        (plain, ["bench", "--N-grid", "x"]),
        ({"SSM_SEED": "x"}, ["kernel", "--N", "8", "--L", "4", "--dt", "0.01"]),
        (plain, ["kernel", "--N", "8", "--L", "4", "--dt", "0"]),
        (plain, ["basis", "--init", "lin", "--N", "8", "--rows", "-1"]),
    ]
    # comment and blank lines between rows, then each row error and a file
    # with no samples (exit 2)
    for name in TEXT_INPUTS:
        runs.append((plain, ["conv", "--input", name, "--init", "lin", "--N", "8", "--dt", "0.01"]))
    return runs


def _write_inputs(directory: str) -> None:
    for name, (length, seed, exponent) in INPUTS.items():
        values = np.ldexp(np.random.default_rng(seed).standard_normal(length), exponent)
        rows = "".join("%d,%.17g\n" % row for row in enumerate(values.tolist()))
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write("l,value\n" + rows)
    for name, text in TEXT_INPUTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def _blank_numbers(obj):
    if isinstance(obj, dict):
        return {key: _blank_numbers(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_blank_numbers(value) for value in obj]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return None
    return obj


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_corpus.py SRC_DIR", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    base_env = {key: value for key, value in os.environ.items() if key != "SSM_SEED"}
    base_env |= {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        for extra, args in _corpus():
            done = subprocess.run([sys.executable, "-m", "dssm.cli", *args], cwd=directory,
                                  env=base_env | extra, capture_output=True)
            out = done.stdout
            if args[0] == "bench" and done.returncode != 2:
                out = json.dumps(_blank_numbers(json.loads(out)), sort_keys=True).encode()
            shown = " ".join([f"{k}={v}" for k, v in extra.items()] + args)
            print(_digest(out), done.returncode, _digest(done.stderr), shown, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
