"""Print the executable `src/` lines that a run never reaches, per function.

Usage:

    python tools/line_census.py SRC_DIR [pytest] [corpus]

`pytest` runs the suite in SRC_DIR's checkout (`SRC_DIR/../tests`) in
process; `corpus` runs every command of `tools/cli_corpus.py` in process
through `dssm.cli.main`, in a temporary directory holding its input CSVs.
With no run named, both run, each in a fresh interpreter, so that neither
starts with the other's imports or caches.  The tracer is the stdlib's
`sys.settrace`; a line is executable when the compiled module has bytecode
on it.  Each run prints one header, then per file the unreached count, and
per function with unreached lines its count and line ranges.  The runs'
own output goes to stderr.
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))


def executable_lines(path: str) -> dict[int, str]:
    """{line: qualified name of the function it is in} for every line with
    bytecode; comprehensions and lambdas count as their enclosing function."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines = {}

    def walk(code, label):
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's entry
                lines.setdefault(line, label)
        for const in code.co_consts:
            if isinstance(const, type(code)):
                walk(const, label if const.co_name.startswith("<") else const.co_qualname)

    walk(code, "<module>")
    return lines


def reached(paths: list[str], run) -> tuple[object, set[tuple[str, int]]]:
    """run()'s result and the (path, line) pairs it reached in `paths`."""
    wanted = {os.path.realpath(path) for path in paths}
    names = {}  # co_filename -> real path, or None outside `paths`
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((names[frame.f_code.co_filename], frame.f_lineno))
        return local

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in names:
            real = os.path.realpath(name)
            names[name] = real if real in wanted else None
        if names[name] is None:
            return None
        hits.add((names[name], frame.f_lineno))
        return local

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hits


def report(root: str, paths: list[str], hits: set[tuple[str, int]]) -> tuple[int, list[str]]:
    """The unreached count and the lines: per file `path: U of E unreached`,
    then `  function: U of E: ranges`."""
    out, count = [], 0
    for path in paths:
        real = os.path.realpath(path)
        by_function = {}
        for line, label in sorted(executable_lines(path).items()):
            by_function.setdefault(label, []).append(line)
        missed = {label: [n for n in lines if (real, n) not in hits]
                  for label, lines in by_function.items()}
        unreached = sum(map(len, missed.values()))
        count += unreached
        total = sum(map(len, by_function.values()))
        out.append(f"{os.path.relpath(path, root)}: {unreached} of {total} unreached")
        for label, lines in missed.items():
            if lines:
                out.append(f"  {label}: {len(lines)} of {len(by_function[label])}: {_ranges(lines)}")
    return count, out


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _run_pytest(src: str) -> int:
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        return int(pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(os.path.dirname(src), "tests")]))


def _run_corpus(src: str) -> int:
    spec = importlib.util.spec_from_file_location("cli_corpus", os.path.join(TOOLS, "cli_corpus.py"))
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    from dssm.cli import main

    environ, cwd, codes = dict(os.environ), os.getcwd(), []
    with tempfile.TemporaryDirectory() as directory:
        corpus._write_inputs(directory)
        os.chdir(directory)
        try:
            for extra, args in corpus._corpus():
                os.environ.pop("SSM_SEED", None)
                os.environ.update(extra)
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        codes.append(main(args))
                    except SystemExit as exc:  # argparse rejects the command
                        codes.append(exc.code)
        finally:
            os.chdir(cwd)
            os.environ.clear()
            os.environ.update(environ)
    print(f"corpus: {len(codes)} commands, exit codes {sorted(set(codes))}", file=sys.stderr)
    return 0


RUNS = {"pytest": _run_pytest, "corpus": _run_corpus}


def main(argv: list[str]) -> int:
    if not argv or any(run not in RUNS for run in argv[1:]):
        print("usage: python tools/line_census.py SRC_DIR [pytest] [corpus]", file=sys.stderr)
        return 2
    src, runs = os.path.abspath(argv[0]), argv[1:] or list(RUNS)
    if len(runs) > 1:
        return max(subprocess.run([sys.executable, __file__, src, run]).returncode for run in runs)
    sys.path.insert(0, src)
    paths = sorted(os.path.join(folder, name) for folder, _, names in os.walk(src)
                   for name in names if name.endswith(".py"))
    status, hits = reached(paths, lambda: RUNS[runs[0]](src))
    missed, lines = report(src, paths, hits)
    print(f"== {runs[0]} (exit {status}): {missed} unreached lines", flush=True)
    print("\n".join(lines), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
