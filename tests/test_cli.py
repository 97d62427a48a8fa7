import argparse
import dataclasses
import importlib
import json
import warnings

import numpy as np
import pytest

from dssm.cli import _build_parser, _resolve_config, build_spec, main, read_signal_csv
from dssm.hippo import DenseSpec
from dssm.inits import INIT_NAMES, DiagonalSpec
from dssm.kernel import Kernel


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_text(text):
    """The rows of a CSV after its '#' metadata, as lists of fields."""
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


class TestKernelCommand:
    def test_deterministic_under_seed(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["kernel", "--init", "inv", "--N", "16", "--L", "64",
                         "--dt", "0.01", "--seed", "5", "-o", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_round_trip_exact(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["kernel", "--init", "lin", "--N", "32", "--L", "128",
                     "--dt", "0.005", "--seed", "1", "-o", str(out)]) == 0
        from dssm.cli import _build_parser, _resolve_config, _system_kernel, build_system

        args = _build_parser().parse_args(["kernel", "--init", "lin", "--N", "32", "--L", "128",
                                           "--dt", "0.005", "--seed", "1"])
        config = _resolve_config(args)
        kernel = _system_kernel(config, *build_system(config))
        parsed = read_signal_csv(str(out))
        np.testing.assert_array_equal(parsed, kernel.values)

    def test_stdout_when_no_output(self, capsys):
        code, out, _ = run(["kernel", "--init", "lin", "--N", "8", "--L", "4", "--dt", "0.01"], capsys)
        assert code == 0
        assert out.startswith("# init: lin")
        assert out.count("\n") == 4 + 10  # 4 rows + 9 meta lines + header

    def test_no_temp_file_left(self, tmp_path):
        out = tmp_path / "k.csv"
        main(["kernel", "--N", "8", "--L", "4", "--dt", "0.01", "--init", "lin", "-o", str(out)])
        assert out.exists()
        assert not (tmp_path / "k.csv.tmp").exists()

    @pytest.mark.parametrize("fail_in", ["write", "replace"])
    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch, fail_in):
        from dssm import cli

        def failing_replace(src, dst):
            raise OSError(18, "Invalid cross-device link")

        text = "l,value\n0,1.0\n"
        if fail_in == "write":
            text += "1,\ud800\n"  # a lone surrogate cannot be encoded as UTF-8
        else:
            monkeypatch.setattr(cli.os, "replace", failing_replace)
        out = tmp_path / "k.csv"
        with pytest.raises((OSError, UnicodeEncodeError)):
            cli._write_text(str(out), text)
        assert not out.exists()
        assert not (tmp_path / "k.csv.tmp").exists()

    def test_non_finite_kernel_exits_two_writing_nothing(self, tmp_path, capsys):
        argv = ["kernel", "--init", "lin", "--N", "8", "--L", "64", "--dt", "1e308", "--disc", "zoh"]
        with np.errstate(all="ignore"):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert out == ""
            assert "non-finite" in err
            path = tmp_path / "k.csv"
            assert main(argv + ["-o", str(path)]) == 2
        assert not path.exists()
        assert not (tmp_path / "k.csv.tmp").exists()

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, target):
        # a missing directory fails the open; an existing directory fails the rename
        if target == "directory":
            path = tmp_path / "k.csv"
            path.mkdir()
        else:
            path = tmp_path / "missing" / "k.csv"
        code, out, err = run(["kernel", "--init", "lin", "--N", "8", "--L", "4", "--dt", "0.01",
                              "-o", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err and ".tmp" not in err
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize(
        "flag, value",
        [("--dt", "nan"), ("--dt", "inf"), ("--dt", "-1"), ("--dt-min", "nan"), ("--dt-max", "inf")],
    )
    def test_timescale_flags_must_be_finite_and_positive(self, capsys, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["kernel", "--init", "lin", "--N", "8", "--L", "4",
                                  f"{flag}={value}"], capsys)
        assert code == 2
        assert out == ""
        assert f"error: {flag} must be finite and positive" in err

    def test_preset_s4d_equals_default_flags(self, tmp_path):
        a = tmp_path / "default.csv"
        b = tmp_path / "preset.csv"
        base = ["kernel", "--init", "inv", "--N", "16", "--L", "32", "--dt", "0.01", "--seed", "2"]
        assert main(base + ["-o", str(a)]) == 0
        assert main(base + ["--preset", "s4d", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_preset_dss_equals_explicit_flags(self, tmp_path):
        a = tmp_path / "preset.csv"
        b = tmp_path / "explicit.csv"
        base = ["kernel", "--init", "legsd", "--N", "8", "--L", "32", "--dt", "0.01", "--seed", "2"]
        assert main(base + ["--preset", "dss", "-o", str(a)]) == 0
        assert main(base + ["--disc", "zoh", "--re-mode", "identity", "--b", "ones",
                            "--softmax", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_flag_overrides_preset(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["kernel", "--init", "lin", "--N", "8", "--L", "16", "--dt", "0.01", "--seed", "0"]
        assert main(base + ["--preset", "dss", "--no-softmax", "-o", str(a)]) == 0
        assert main(base + ["--disc", "zoh", "--re-mode", "identity", "--b", "ones", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_legsd_two_state_kernel_is_single_damped_cosine(self, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(["kernel", "--init", "legsd", "--N", "2", "--L", "64", "--dt", "0.05",
                     "--seed", "3", "--b", "ones", "--re-mode", "identity", "-o", str(out)]) == 0
        values = read_signal_csv(str(out))
        # one conjugate pair: K_l = 2 Re(w a^l) = 2|w| r^l cos(l theta + phase)
        from dssm.discretize import discretize_bilinear
        from dssm.inits import init_C, init_legsd

        spec = init_legsd(2)
        disc = discretize_bilinear(spec.A_half, spec.B_half, 0.05)
        w = init_C(1, 4)[0] * disc.B_bar[0]
        r, theta = np.abs(disc.A_bar[0]), np.angle(disc.A_bar[0])
        l = np.arange(64)
        expected = 2 * np.abs(w) * r**l * np.cos(l * theta + np.angle(w))
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_softmax_with_bilinear_is_usage_error(self, capsys):
        code, _, err = run(["kernel", "--softmax", "--disc", "bilinear", "--N", "8",
                            "--L", "8", "--dt", "0.01"], capsys)
        assert code == 2
        assert "zoh" in err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a = tmp_path / "env.csv"
        b = tmp_path / "flag.csv"
        c = tmp_path / "override.csv"
        base = ["kernel", "--init", "rand", "--N", "16", "--L", "16", "--dt", "0.01"]
        monkeypatch.setenv("SSM_SEED", "77")
        assert main(base + ["-o", str(a)]) == 0
        monkeypatch.delenv("SSM_SEED")
        assert main(base + ["--seed", "77", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        monkeypatch.setenv("SSM_SEED", "77")
        assert main(base + ["--seed", "78", "-o", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_non_integer_env_seed_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("SSM_SEED", "abc")
        code, out, err = run(["kernel", "--init", "lin", "--N", "8", "--L", "4", "--dt", "0.01"],
                             capsys)
        assert code == 2
        assert out == ""
        assert "error: SSM_SEED must be an integer, got 'abc'" in err

    @pytest.mark.parametrize("init", INIT_NAMES)
    def test_relu_real_part_equals_identity_on_negative_real_parts(self, capsys, init):
        # every built-in init has negative real parts, where -max(-re, 0) is re exactly
        base = ["kernel", "--init", init, "--N", "8", "--L", "16", "--dt", "0.01", "--seed", "5"]
        outputs = [run(base + ["--re-mode", mode], capsys) for mode in ("relu", "identity")]
        assert [code for code, _, _ in outputs] == [0, 0]
        relu, identity = (read_csv_text(out) for _, out, _ in outputs)
        assert relu[0] == ["l", "value"]
        assert relu == identity


class TestBasisCommand:
    def test_diagonal_family(self, tmp_path):
        out = tmp_path / "basis.csv"
        assert main(["basis", "--init", "lin", "--N", "8", "--points", "16",
                     "-o", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "n,t,re,im"
        assert len(rows) - 1 == 4 * 16

    def test_dense_legs(self, tmp_path):
        out = tmp_path / "legs.csv"
        assert main(["basis", "--dense", "legs", "--N", "12", "--points", "8",
                     "--rows", "4", "-o", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) - 1 == 4 * 8

    def test_dense_normal_smoothed(self, tmp_path):
        out = tmp_path / "normal.csv"
        assert main(["basis", "--dense", "normal", "--N", "16", "--points", "32",
                     "--rows", "2", "-o", str(out)]) == 0
        assert out.exists()

    def test_single_point_grid(self, capsys):
        code, out, _ = run(["basis", "--init", "lin", "--N", "4", "--points", "1",
                            "--rows", "0"], capsys)
        assert code == 0
        data_rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(data_rows) == 2

    def test_negative_rows_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "basis.csv"
        code, _, err = run(["basis", "--init", "lin", "--N", "8", "--points", "2", "--rows", "-3",
                            "-o", str(out)], capsys)
        assert code == 2
        assert "--rows" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--t-max", "nan"], ["--re-mode", "identity", "--t-max", "1e308"]],
        ids=["nan-grid", "overflowing-samples"],
    )
    def test_non_finite_output_exits_two_writing_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "basis.csv"
        with np.errstate(all="ignore"):
            code, _, err = run(["basis", "--init", "lin", "--N", "8", "--points", "3", *flags,
                                "-o", str(out)], capsys)
        assert code == 2
        assert "non-finite" in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--init", "lin", "--N", "8", "--L", "4", "--dt", "1e308", "--disc", "zoh"],
        ["basis", "--init", "lin", "--re-mode", "identity", "--N", "8", "--t-max", "1e308",
         "--points", "3"],
        ["bench", "--N-grid", "8", "--L-grid", "16,32", "--repeats", "1", "--dt", "1e308",
         "--disc", "zoh"],
        ["basis", "--dense", "legs", "--N", "8", "--t-max", "1e308", "--points", "3"],
        ["basis", "--dense", "normal-unscaled", "--N", "8", "--t-max", "1e308", "--points", "3"],
        ["basis", "--init", "lin", "--N", "8", "--t-max", "inf", "--points", "3"],
    ],
    ids=["kernel", "basis", "bench", "dense-basis", "dense-unscaled-basis", "infinite-grid"],
)
def test_overflowing_input_reports_only_the_finiteness_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "non-finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--init", "lin", "--N", "10000000000000000"],
        ["kernel", "--init", "lin", "--N", "8", "--L", "10000000000000000", "--dt", "0.01"],
    ],
    ids=["spectrum", "kernel"],
)
def test_allocation_failure_exits_two(capsys, argv):
    # tens of PiB exceed any address space, so the allocation fails at once
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


class TestSpectrumCommand:
    def test_single_family_csv(self, capsys):
        code, out, _ = run(["spectrum", "--init", "inv", "--N", "8"], capsys)
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(data) == 4
        assert all(l.startswith("inv,") for l in data)

    def test_all_families(self, capsys):
        code, out, _ = run(["spectrum", "--all", "--N", "8"], capsys)
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        families = {l.split(",")[0] for l in data}
        assert families == {"legsd", "inv", "inv2", "quad", "lin"}

    def test_json_format(self, capsys):
        code, out, _ = run(["spectrum", "--init", "lin", "--N", "8", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lin"]["re"] == [-0.5, -0.5, -0.5, -0.5]


class TestConvCommand:
    @pytest.mark.parametrize("mode", ["fft", "scan"])
    def test_modes_agree(self, tmp_path, mode):
        signal = tmp_path / "u.csv"
        lines = ["l,value"] + [f"{l},{float(np.sin(0.3 * l))!r}" for l in range(64)]
        signal.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"y_{mode}.csv"
        assert main(["conv", "--input", str(signal), "--init", "lin", "--N", "16",
                     "--dt", "0.01", "--seed", "4", "--mode", mode, "-o", str(out)]) == 0
        values = read_signal_csv(str(out))
        assert len(values) == 64
        setattr(self, f"values_{mode}", values)

    def test_fft_and_scan_match(self, tmp_path):
        signal = tmp_path / "u.csv"
        lines = ["l,value"] + [f"{l},{float(np.cos(0.1 * l))!r}" for l in range(100)]
        signal.write_text("\n".join(lines) + "\n")
        outputs = {}
        for mode in ("fft", "scan"):
            out = tmp_path / f"{mode}.csv"
            assert main(["conv", "--input", str(signal), "--init", "inv", "--N", "16",
                         "--dt", "0.02", "--seed", "9", "--mode", mode, "-o", str(out)]) == 0
            outputs[mode] = read_signal_csv(str(out))
        scale = np.abs(outputs["scan"]).max()
        assert np.abs(outputs["fft"] - outputs["scan"]).max() <= 1e-8 * scale

    @pytest.mark.parametrize("init", ["lin", "inv", "legsd"])
    @pytest.mark.parametrize("L", [1, 63, 64, 65, 4097])
    def test_dss_scan_matches_fft(self, tmp_path, L, init):
        # the length-L softmax kernel is the Vandermonde kernel of C / row sums,
        # so the scan of that C is the same convolution
        signal = tmp_path / "u.csv"
        u = np.random.default_rng(L).standard_normal(L)
        rows = "".join(f"{l},{x!r}\n" for l, x in enumerate(u.tolist()))
        signal.write_text("l,value\n" + rows)
        outputs = {}
        for mode in ("fft", "scan"):
            out = tmp_path / f"{mode}.csv"
            assert main(["conv", "--input", str(signal), "--preset", "dss", "--init", init,
                         "--N", "64", "--dt", "0.01", "--mode", mode, "-o", str(out)]) == 0
            outputs[mode] = read_signal_csv(str(out))
        scale = np.abs(outputs["fft"]).max()
        assert np.abs(outputs["fft"] - outputs["scan"]).max() <= 1e-8 * scale

    def test_bilinear_step_past_overflow(self, tmp_path):
        # at dt = 1e308, dt/2 * A_n overflows for most modes; B_bar tends to
        # -2B/A as dt grows, so K_0 = 2 Re sum C B_bar tends to 2 Re sum C (-2B/A)
        flags = ["--preset", "s4d", "--init", "rand", "--N", "8", "--dt", "1e308"]
        kernel_path = tmp_path / "k.csv"
        assert main(["kernel", "--L", "1", *flags, "-o", str(kernel_path)]) == 0
        spec = build_spec(_resolve_config(_build_parser().parse_args(["kernel", "--L", "1", *flags])))
        limit = 2 * (spec.C_half * (-2 * spec.B_half / spec.A_half)).sum().real
        k0 = read_signal_csv(str(kernel_path))
        np.testing.assert_allclose(k0, [limit], rtol=1e-12)
        signal = tmp_path / "u.csv"
        signal.write_text("l,value\n0,1.0\n")
        for mode in ("fft", "scan"):
            out = tmp_path / f"{mode}.csv"
            assert main(["conv", "--input", str(signal), "--mode", mode, *flags, "-o", str(out)]) == 0
            np.testing.assert_allclose(read_signal_csv(str(out)), k0, rtol=1e-12)

    @pytest.mark.parametrize("mode", ["fft", "scan"])
    def test_subnormal_input_matches_scaled_output(self, tmp_path, capsys, mode):
        # samples of at most 14 significant bits stay exact at 2^-1060, deep in
        # the subnormals; the convolution is linear, so the output must be the
        # unscaled input's output scaled by 2^-1060, value for value
        u = np.ldexp(np.random.default_rng(70).integers(-2**13, 2**13, 70).astype(float), -13)
        outputs = []
        for scale in (0, -1060):
            signal = tmp_path / "u.csv"
            rows = "".join(f"{l},{x!r}\n" for l, x in enumerate(np.ldexp(u, scale).tolist()))
            signal.write_text("l,value\n" + rows)
            assert np.array_equal(read_signal_csv(str(signal)), np.ldexp(u, scale))
            code, out, _ = run(["conv", "--input", str(signal), "--N", "8", "--dt", "0.5",
                                "--mode", mode], capsys)
            assert code == 0
            outputs.append(np.array([float(row[1]) for row in read_csv_text(out)[1:]]))
        assert len(outputs[1]) == 70
        np.testing.assert_array_equal(outputs[1], np.ldexp(outputs[0], -1060))

    def test_kernel_csv_feeds_conv(self, tmp_path):
        kernel_path = tmp_path / "k.csv"
        assert main(["kernel", "--init", "lin", "--N", "8", "--L", "32",
                     "--dt", "0.01", "-o", str(kernel_path)]) == 0
        out = tmp_path / "y.csv"
        assert main(["conv", "--input", str(kernel_path), "--init", "lin", "--N", "8",
                     "--dt", "0.01", "--mode", "scan", "-o", str(out)]) == 0
        assert len(read_signal_csv(str(out))) == 32

    def test_missing_samples(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\nl,value\n")
        code, _, err = run(["conv", "--input", str(empty), "--N", "8", "--dt", "0.01"], capsys)
        assert code == 2
        assert "no samples" in err


    def test_missing_input_exits_two(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        code, _, err = run(["conv", "--input", str(tmp_path / "absent.csv"), "--N", "8",
                            "--dt", "0.01", "-o", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "absent.csv" in err
        assert list(tmp_path.iterdir()) == []

    def test_rejects_unparseable_row_instead_of_dropping_it(self, tmp_path, capsys):
        signal = tmp_path / "u.csv"
        signal.write_text("l,value\n0,1.0\n1,abc\n2,3.0\n3,nan\n")
        out = tmp_path / "y.csv"
        code, _, err = run(["conv", "--input", str(signal), "--init", "lin", "--N", "8",
                            "--dt", "0.01", "-o", str(out)], capsys)
        assert code == 2
        assert "line 3: '1,abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("l,value\n0,1.0\n1,nan\n", "non-finite sample"),
            ("0,1.0\n1,-inf\n", "non-finite sample"),
            ("l,value\n0,1.0\n2,3.0\n", "expected l=1"),
            ("l,value\n1,1.0\n", "expected l=0"),
            ("l,value\n0,1.0\nl,value\n1,2.0\n", "unparseable row"),
            ("l,value\n0,1.0\n1\n", "malformed row"),
            ("l,value\n0,1.0,5.0\n", "malformed row"),
        ],
    )
    def test_invalid_rows_are_usage_errors(self, tmp_path, capsys, text, message):
        signal = tmp_path / "u.csv"
        signal.write_text(text)
        code, out, err = run(["conv", "--input", str(signal), "--init", "lin", "--N", "8",
                              "--dt", "0.01"], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_headerless_input_keeps_first_row(self, tmp_path):
        signal = tmp_path / "u.csv"
        signal.write_text("# comment\n0,1.5\n1,-2.0\n")
        np.testing.assert_array_equal(read_signal_csv(str(signal)), [1.5, -2.0])

    @pytest.mark.parametrize("mode", ["fft", "scan"])
    def test_non_finite_output_exits_two(self, tmp_path, capsys, mode):
        signal = tmp_path / "u.csv"
        signal.write_text("l,value\n0,1.0\n1,0.0\n2,0.0\n")
        out = tmp_path / "y.csv"
        with np.errstate(all="ignore"):
            code, _, err = run(["conv", "--input", str(signal), "--init", "lin", "--N", "8",
                                "--dt", "1e308", "--disc", "zoh", "--mode", mode,
                                "-o", str(out)], capsys)
        assert code == 2
        assert "non-finite" in err
        assert not out.exists()


class TestVerifyCommand:
    def test_fast_probes_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--probe", "legendre,stability,dss,duality",
                     "--seed", "0", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert {r["probe"] for r in report} == {
            "legendre-orthonormality",
            "stability-contract",
            "dss-length-dependence",
            "convolution-duality",
        }
        assert all(r["pass"] is True for r in report)
        assert all(set(r) == {"probe", "params", "metrics", "pass"} for r in report)

    def test_failing_probe_exits_one(self, tmp_path, monkeypatch):
        from dssm import cli

        failing = {"probe": "legendre-orthonormality", "params": {}, "metrics": {}, "pass": False}
        monkeypatch.setitem(cli._PROBES, "legendre", lambda config: failing)
        out = tmp_path / "report.json"
        code = main(["verify", "--probe", "legendre,stability", "-o", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert [r["pass"] for r in report] == [False, True]

    def test_unknown_probe_is_usage_error(self, capsys):
        code, _, err = run(["verify", "--probe", "nonsense"], capsys)
        assert code == 2
        assert "unknown probe" in err

    def test_probe_names_checked_before_any_probe_runs(self, capsys, monkeypatch):
        from dssm import cli

        calls = []
        monkeypatch.setattr(cli, "_probe_perturbation", lambda: calls.append("ran"))
        code, out, err = run(["verify", "--probe", "perturbation,nonsense"], capsys)
        assert code == 2
        assert "'nonsense'" in err
        assert out == ""
        assert calls == []

    def test_conjecture_and_perturbation_probes_pass(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--probe", "conjecture,perturbation", "-o", str(out)]) == 0
        conjecture, perturbation = json.loads(out.read_text())
        assert conjecture["probe"] == "conjecture-asymptotics"
        assert set(conjecture["metrics"]) == {
            "max_imag", "c_estimate", "band_ratio", "max_real_deviation"
        }
        assert perturbation["probe"] == "rank1-perturbation"
        assert set(perturbation["metrics"]) == {"baseline", "divergence"}
        assert conjecture["pass"] is True and perturbation["pass"] is True

    def test_proposition_probe(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--probe", "proposition", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())[0]
        assert report["pass"] is True
        assert set(report["metrics"]["max_real_deviation"]) == {"2", "16", "64", "256"}

    def test_theorem_probe(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--probe", "theorem", "-o", str(out)]) == 0
        report = json.loads(out.read_text())[0]
        assert report["probe"] == "theorem-convergence" and report["pass"] is True
        errors = report["metrics"]["errors"]
        assert len(errors) == 3
        assert all(later < earlier for earlier, later in zip(errors, errors[1:]))


class TestBenchCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(["bench", "--N-grid", "16,64", "--L-grid", "256,1024",
                     "--repeats", "1", "--init", "lin", "--dt", "0.01", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())[0]
        assert report["pass"] is True
        assert report["metrics"]["alloc_fit_exponent"] < 0.2
        cells = report["metrics"]["cells"]
        assert len(cells) == 4
        assert all(c["identical_csv"] for c in cells)

    def test_zero_repeats_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code, _, err = run(["bench", "--N-grid", "8", "--L-grid", "16", "--repeats", "0",
                            "-o", str(out)], capsys)
        assert code == 2
        assert "--repeats" in err
        assert not out.exists()

    @pytest.mark.parametrize("n_grid, l_grid", [("64", "1024"), ("64,64", "1024,1024")])
    def test_single_problem_size_is_usage_error(self, tmp_path, capsys, monkeypatch, n_grid, l_grid):
        # one N*L product gives the memory-growth fit no slope to measure
        from dssm import cli

        calls = []
        monkeypatch.setattr(cli, "_bench_cell", lambda *args: calls.append(args))
        out = tmp_path / "bench.json"
        code, _, err = run(["bench", "--N-grid", n_grid, "--L-grid", l_grid, "--repeats", "1",
                            "-o", str(out)], capsys)
        assert code == 2
        assert "--N-grid" in err and "--L-grid" in err
        assert not out.exists()
        assert calls == []


class TestSeriesCsv:
    def test_fast_path_matches_fmt_path(self):
        from dssm.cli import _csv_text

        values = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300, -1e300,
                           1e-300, -1e-300, 0.1, 1 / 3, -7.0, 2.0**53 + 2])
        meta = {"init": "lin", "L": len(values)}
        expected = "# init: lin\n# L: 15\nl,value\n" + "".join(
            f"{l},{format(v, '.17g')}\n" for l, v in enumerate(values.tolist())
        )
        text = _csv_text(meta, ["l", "value"], "%d,%.17g\n", enumerate(values.tolist()))
        assert text == expected


class TestArgparseBehavior:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_choice_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["kernel", "--init", "fourier"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--N", "8", "--dt", "0.01"],
            ["spectrum", "--N", "8", "--preset", "dss"],
            ["basis", "--init", "lin", "--N", "8", "--softmax"],
            ["basis", "--init", "lin", "--N", "8", "--dt", "0.01"],
            ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--N", "64"],
            ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--dt-min", "0.01"],
            ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--preset", "dss"],
            ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--re-mode", "relu"],
            ["bench", "--N-grid", "16,64", "--L-grid", "256,1024", "--b", "ones"],
            ["verify", "--probe", "proposition", "--N-list", "2,16"],
            ["verify", "--probe", "theorem", "--theorem-N", "16,64"],
            ["verify", "--probe", "theorem", "--points", "64"],
        ],
        ids=["spectrum-dt", "spectrum-preset", "basis-softmax", "basis-dt", "bench-N",
             "bench-dt-min", "bench-preset", "bench-re-mode", "bench-b", "verify-N-list",
             "verify-theorem-N", "verify-points"],
    )
    def test_flag_the_subcommand_does_not_read_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        _, err = capsys.readouterr()
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--probe", ""],
            ["bench", "--N-grid", "", "--L-grid", "16"],
            ["bench", "--N-grid", "16,x"],
        ],
        ids=["empty-probe", "empty-N-grid", "non-integer"],
    )
    def test_empty_or_non_integer_list_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        _, err = capsys.readouterr()
        assert "list" in err


@pytest.mark.parametrize(
    "argv, selection, flag",
    [
        (["spectrum", "--N", "8", "--all", "--init", "rand"], "--all", "--init"),
        (["basis", "--N", "8", "--dense", "legs", "--init", "rand"], "--dense", "--init"),
        (["basis", "--N", "8", "--dense", "legs", "--preset", "dss"], "--dense", "--preset"),
        (["basis", "--N", "8", "--dense", "normal", "--re-mode", "relu"], "--dense", "--re-mode"),
        (["basis", "--N", "8", "--dense", "normal-unscaled", "--b", "ones"], "--dense", "--b"),
        (["kernel", "--init", "lin", "--N", "8", "--L", "4", "--dt", "0.01", "--dt-min", "nan"],
         "--dt", "--dt-min"),
        (["conv", "--init", "lin", "--N", "8", "--dt", "0", "--dt-max", "-5"], "--dt", "--dt-max"),
        (["spectrum", "--N", "8", "--all", "--seed", "9"], "--all", "--seed"),
        (["basis", "--N", "8", "--dense", "legs", "--seed", "9"], "--dense", "--seed"),
    ],
    ids=["all-init", "dense-init", "dense-preset", "dense-re-mode", "dense-b", "dt-dt-min",
         "dt-dt-max", "all-seed", "dense-seed"],
)
def test_flag_of_a_replaced_stage_exits_two(tmp_path, capsys, argv, selection, flag):
    signal = tmp_path / "u.csv"
    signal.write_text("l,value\n0,1.0\n1,0.5\n")
    out = tmp_path / "out.csv"
    if argv[0] == "conv":
        argv = argv + ["--input", str(signal)]
    code, stdout, err = run(argv + ["-o", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{selection} replaces" in err and flag in err
    assert sorted(tmp_path.iterdir()) == [signal]


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--N", "8", "--all"], ["basis", "--N", "8", "--dense", "legs"]],
    ids=["all", "dense"],
)
def test_env_seed_is_not_a_replaced_flag(capsys, monkeypatch, argv):
    # the replaced-stage check sees only --seed; SSM_SEED is read after it
    expected = run(argv, capsys)
    monkeypatch.setenv("SSM_SEED", "9")
    assert run(argv, capsys) == expected
    assert expected[0] == 0


def test_settable_flag_budget():
    """Distinct argparse dests per subcommand, `-h` not counted.  A new flag
    changes this number here, where a reviewer sees it."""
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    counts = {
        name: len({a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)})
        for name, p in subparsers.choices.items()
    }
    assert counts == {"kernel": 13, "basis": 11, "spectrum": 6, "conv": 14, "verify": 3,
                      "bench": 8}
    assert sum(counts.values()) == 55


def test_stored_field_budget():
    """Stored fields of the spec and kernel types: none holds a value that
    the others already determine (N, L and provenance are derived or the
    caller's).  A new field changes this list here."""
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (Kernel, DiagonalSpec, DenseSpec)}
    assert fields == {"Kernel": ["values"],
                      "DiagonalSpec": ["A_half", "B_half", "C_half", "conj_pairs"],
                      "DenseSpec": ["A", "B", "C"]}


def test_public_api_budget():
    """Names in each library module's `__all__`.  perfbench traces exactly
    the functions these lists name, so a name added or removed here adds or
    removes a traced span as well as public surface."""
    counts = {name: len(importlib.import_module(f"dssm.{name}").__all__)
              for name in ("hippo", "inits", "discretize", "kernel", "conv", "oracle")}
    assert counts == {"hippo": 4, "inits": 16, "discretize": 7, "kernel": 6, "conv": 4,
                      "oracle": 12}


def test_state_size_is_derived():
    a = np.array([-0.5 + 1j, -0.5 + 2j, -0.5 + 3j])
    b = np.ones(3, dtype=complex)
    diagonal = {"A_half": a, "B_half": b}
    dense = {"A": np.diag(a), "B": b, "C": None}
    assert DiagonalSpec(**diagonal).N == 6
    assert DiagonalSpec(**diagonal, conj_pairs=False).N == 3
    assert DenseSpec(**dense).N == 3
    for cls, args in ((DiagonalSpec, diagonal), (DenseSpec, dense)):
        with pytest.raises(TypeError):
            cls(**args, N=5)
        spec = cls(**args)
        with pytest.raises(AttributeError):
            spec.N = 5


@pytest.mark.parametrize("B", [np.ones((2, 1)), np.ones(0)], ids=["2-D", "empty"])
def test_dense_spec_needs_a_vector_b(B):
    with pytest.raises(ValueError, match="non-empty vector"):
        DenseSpec(A=np.zeros((len(B), len(B))), B=B, C=None)
