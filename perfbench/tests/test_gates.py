"""The benchmark's correctness gates: each kind of bad op counts as failed."""

import argparse
import os
import shutil
import textwrap

import numpy as np
import pytest

import cliops
import libforward
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _tree(tmp_path, patch):
    """Copy of the package tree with `patch` added to dssm/cli.py before its
    `__main__` block."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "dssm" / "cli.py"
    head, main_block, tail = cli.read_text(encoding="utf-8").partition('if __name__ == "__main__":')
    assert main_block
    cli.write_text(head + textwrap.dedent(patch) + "\n\n" + main_block + tail, encoding="utf-8")
    return str(tmp_path)


def _measure(tmp_path, make_ops, root=ROOT):
    work = tmp_path / "work"
    work.mkdir()
    args = argparse.Namespace(seed=3, seconds=0.0, trace=0)
    return run.measure_cli(lambda w, seed: make_ops(w), args, str(work), root)


def _kernel_ops(work):
    return [cliops.kernel_op(work, "kernel", "legsd", 16, 256, 0.05, 7, rule="zoh")]


# Rewrites the kernel CSV the CLI just wrote: scales the value of row l = 100,
# or drops the last row.
_EDIT_OUTPUT = """
_original_cmd_kernel = cmd_kernel


def cmd_kernel(config):
    code = _original_cmd_kernel(config)
    with open(config.output, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    {edit}
    with open(config.output, "w", encoding="utf-8") as handle:
        handle.write("\\n".join(lines) + "\\n")
    return code


_COMMANDS["kernel"] = cmd_kernel
"""

PERTURB = _EDIT_OUTPUT.replace(
    "{edit}",
    'i = lines.index("l,value") + 101; '
    'lines[i] = "100," + repr(float(lines[i].split(",")[1]) * (1 + 1e-6))',
)
TRUNCATE = _EDIT_OUTPUT.replace("{edit}", "lines = lines[:-1]")


def test_correct_outputs_pass(tmp_path):
    measured = _measure(tmp_path, _kernel_ops)
    assert (measured.attempted, measured.failures) == (1, [])


@pytest.mark.parametrize(
    "patch, reason", [(PERTURB, "relative error"), (TRUNCATE, "rows")], ids=["perturbed", "truncated"]
)
def test_wrong_output_counts_as_failed(tmp_path, patch, reason):
    measured = _measure(tmp_path, _kernel_ops, _tree(tmp_path, patch))
    assert measured.attempted == 1
    assert len(measured.failures) == 1 and reason in measured.failures[0]


def test_nonzero_exit_counts_as_failed(tmp_path):
    def ops(work):
        return [cliops.kernel_op(work, "odd-N", "lin", 7, 64, 0.05, 1)]  # exit 2: odd N

    measured = _measure(tmp_path, ops)
    assert measured.attempted == 1
    assert len(measured.failures) == 1 and "exit 2" in measured.failures[0]


def test_silently_dropped_input_rows_count_as_failed(tmp_path):
    """Rows the CLI cannot parse are skipped without an error; the shorter
    output must still fail the generated-length check."""
    L = 128
    u = np.random.default_rng(0).standard_normal(L)

    def ops(work):
        path = os.path.join(work, "numpy-reprs.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("l,value\n")
            # every tenth row as a numpy-2 scalar repr, 'np.float64(...)'
            handle.writelines(f"{l},{v if l % 10 else repr(v)}\n" for l, v in enumerate(u))
        return [cliops.conv_op(work, "conv", path, u, "lin", 8, 0.05, 1, "s4d", "scan")]

    measured = _measure(tmp_path, ops)
    assert measured.attempted == 1
    assert len(measured.failures) == 1 and "generated length" in measured.failures[0]


def test_lib_forward_checker_flags_a_perturbed_output():
    lib, channels, _ = libforward.setup(seed=5)
    check = libforward.Checker(channels)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((libforward.H, libforward.BATCH, libforward.L))
    d = rng.standard_normal((libforward.H, libforward.BATCH, libforward.DECODE))
    ys, decoded = libforward.step(lib, channels, u, d)
    assert check(u, d, ys, decoded) is None
    ys[3][1, 2000] *= 1 + 1e-6
    assert "channel 3 forward" in check(u, d, ys, decoded)
