"""Tracing: every call site is wrapped, spans nest, self times add up."""

import json
import os

import cliops
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_install_wraps_every_binding_and_restores():
    import dssm.cli
    import dssm.inits
    import dssm.oracle

    originals = (dssm.cli.vandermonde_kernel, dssm.inits.hippo_d_spectrum, dssm.oracle.hippo_d_spectrum)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert spans.unwrapped_bindings() == []
        assert dssm.cli._COMMANDS["kernel"] is dssm.cli.cmd_kernel
        dssm.inits.make_init("legsd", 8)
    finally:
        restore()
    assert (dssm.cli.vandermonde_kernel, dssm.inits.hippo_d_spectrum, dssm.oracle.hippo_d_spectrum) == originals
    assert spans.unwrapped_bindings() != []
    by_id = {s[0]: s for s in tracer.spans}
    spectrum = next(s for s in tracer.spans if s[4] == "hippo_d_spectrum")
    assert by_id[spectrum[1]][3] == "inits"


def test_layer_totals_self_time_calls_and_counts():
    rows = [
        [0, None, "op", "cli", "main", 0.0, 10.0, None],
        [1, 0, "op", "hippo", "hippo_d_spectrum", 1.0, 5.0, {"dim_sum": 8}],
        [2, 1, "op", "hippo", "make_hippo_normal", 2.0, 3.0, {"dim_sum": 8}],
        [3, 0, "op", "kernel", "vandermonde_kernel", 6.0, 8.0, {"mode_samples": 40}],
    ]
    totals = spans.layer_totals(rows)
    assert totals["cli"] == {"self_s": 4.0, "calls": 1}
    assert totals["hippo"] == {"self_s": 4.0, "calls": 1, "dim_sum": 8}
    assert totals["kernel"] == {"self_s": 2.0, "calls": 1, "mode_samples": 40}


def test_traced_op_spans_nest_and_account_for_its_wall_time(tmp_path):
    op = cliops.kernel_op(str(tmp_path), "kernel", "legsd", 32, 512, 0.02, 4)
    result = cliops.run_op(op, ROOT, str(tmp_path), traced=True, op_id="op-1")
    assert result.failure is None
    with open(tmp_path / "kernel.spans.json", encoding="utf-8") as handle:
        rows = json.load(handle)["spans"]
    by_id = {s[0]: s for s in rows}
    roots = [s for s in rows if s[1] is None]
    assert [(s[3], s[4]) for s in roots] == [("cli", "main")]
    for s in rows:
        assert s[2] == "op-1"
        assert s[5] <= s[6]
        if s[1] is not None:
            parent = by_id[s[1]]
            assert parent[5] <= s[5] and s[6] <= parent[6]

    totals = result.trace
    assert totals["hippo"]["dim_sum"] == 32 and totals["hippo"]["calls"] == 1
    assert totals["kernel"]["mode_samples"] == 16 * 512
    assert totals["cli"]["rows_written"] == 512
    self_sum = sum(t["self_s"] for t in totals.values() if "self_s" in t)
    accounted = self_sum + totals["proc"]["startup_s"]
    assert abs(accounted - result.wall_s) < 1e-6
