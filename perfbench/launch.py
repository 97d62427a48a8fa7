"""Run one `dssm` CLI invocation with span tracing, then dump the spans.

Usage: python3 perfbench/launch.py SPANS_JSON OP_ID -- DSSM_ARGS...

The package comes from PYTHONPATH, as for an untraced op.  Tracing wraps the
package from here; no package file is edited.  The exit code is the CLI's.
"""

import json
import os
import sys

import spans


def _output_counts(argv):
    """Rows and bytes of the file given with -o/--output (CSV data rows only)."""
    path = None
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
    if path is None or not os.path.exists(path):
        return {"rows_written": 0, "bytes_written": 0}
    rows = 0
    if path.endswith(".csv"):
        with open(path, encoding="utf-8") as handle:
            rows = sum(1 for line in handle if line.strip() and not line.startswith("#")) - 1
    return {"rows_written": max(rows, 0), "bytes_written": os.path.getsize(path)}


def main():
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON OP_ID -- DSSM_ARGS...")
    import dssm.cli

    tracer = spans.Tracer()
    tracer.op = op_id
    spans.install(tracer)
    try:
        code = dssm.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "output": _output_counts(argv)}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
