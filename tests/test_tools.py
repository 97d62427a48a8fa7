import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_END_TO_END = [{"name": "wall_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def _run(side, seed, wall, trace=0, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "ops_per_s": {"value": 1 / wall, "unit": "1/s"}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"side": side, "workload": "w", "seed": seed, "trace": trace, "result": result}


def test_summary_pairs_runs_by_seed():
    parent = [0.30, 0.20, 0.40, 0.25]
    change = [0.20, 0.20, 0.30, 0.35]  # wins, tie, win, loss
    runs = [_run("parent", 1 + i, wall) for i, wall in enumerate(parent)]
    runs += [_run("change", 1 + i, wall, failed=i == 0) for i, wall in reversed(list(enumerate(change)))]
    runs.append(_run("parent", 9, 5.0, trace=1))  # traced runs stay out of the summary
    summary = bench_pairs._summary(runs, _END_TO_END)
    assert summary["pairs"] == 4
    wall = summary["wall_s"]
    assert (wall["change_wins"], wall["ties"]) == (2, 1)
    assert wall["parent"] == {"median": 0.275, "q1": pytest.approx(0.2375), "q3": pytest.approx(0.325)}
    assert wall["median_change_over_parent"] == pytest.approx(0.25 / 0.275)
    assert wall["parent_iqr"] == pytest.approx(0.0875)
    assert (summary["ops_per_s"]["change_wins"], summary["ops_per_s"]["ties"]) == (2, 1)  # higher is better
    assert (summary["parent_fail"], summary["change_fail"]) == ("0/40", "1/40")


_CENSUS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "line_census.py")
_census_spec = importlib.util.spec_from_file_location("line_census", _CENSUS_PATH)
line_census = importlib.util.module_from_spec(_census_spec)
_census_spec.loader.exec_module(line_census)


def test_line_census_names_an_unreached_line(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text("def sign(x):\n"
                    "    if x < 0:\n"
                    "        return -1\n"
                    "    return [1 for _ in range(1)][0]\n")
    code = compile(path.read_text(), str(path), "exec")

    def run():
        namespace = {}
        exec(code, namespace)
        return namespace["sign"](2)

    result, hits = line_census.reached([str(path)], run)
    assert result == 1
    count, lines = line_census.report(str(tmp_path), [str(path)], hits)
    assert count == 1
    assert lines == ["synthetic.py: 1 of 4 unreached", "  sign: 1 of 3: 3"]
