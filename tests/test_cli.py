import json
import math

import numpy as np
import pytest

from wiltonmoments import cotangent, special_fn
from wiltonmoments.cli import run, _csv, _to_json


def run_capture(argv, capsys):
    status = run(argv)
    out = capsys.readouterr().out
    return status, out


class TestEval:
    def test_a_at_one(self, capsys):
        status, out = run_capture(["eval", "--fn", "A", "--x", "1"], capsys)
        assert status == 0
        rows = json.loads(out)
        expect = math.log(2.0 * math.pi) - np.euler_gamma
        assert rows[0]["value"] == pytest.approx(expect, abs=1e-8)

    def test_phi2_csv(self, capsys):
        status, out = run_capture(
            ["--format", "csv", "eval", "--fn", "Phi2", "--x", "0.5"], capsys
        )
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "function,x,value,est_error,method"
        assert float(lines[1].split(",")[2]) == pytest.approx(
            -math.pi**2 / 288.0, abs=1e-9
        )

    def test_grid(self, capsys):
        status, out = run_capture(
            ["eval", "--fn", "F", "--grid", "0.2:0.8:4"], capsys
        )
        assert status == 0
        assert len(json.loads(out)) == 4

    def test_missing_points_is_usage_error(self, capsys):
        assert run(["eval", "--fn", "A"]) == 2

    def test_out_of_domain_point_is_valid_json(self, capsys):
        status, out = run_capture(["eval", "--fn", "g", "--x", "2"], capsys)
        assert status == 1
        (row,) = json.loads(out)
        assert row["value"] is None and row["est_error"] is None
        assert row["method"].startswith("error:")

    def test_huge_a_argument_exits_cleanly(self, capsys):
        status, out = run_capture(["eval", "--fn", "A", "--x", "1e300"], capsys)
        assert status == 0
        (row,) = json.loads(out)
        assert math.isfinite(row["value"]) and row["est_error"] < 1e-6

    def test_phi2_reports_rational_snap(self, capsys):
        status, out = run_capture(["eval", "--fn", "Phi2", "--x", "0.3"], capsys)
        assert status == 0
        assert json.loads(out)[0]["method"] == "rational_snap"

    def test_phi2_reports_series_when_snap_is_too_far(self, capsys):
        # at the default abs_tol 1e-8 this point snaps to 28247/132119
        argv = ["eval", "--fn", "Phi2", "--x", "0.2137996805918318"]
        _, out = run_capture(argv, capsys)
        assert json.loads(out)[0]["method"] == "rational_snap"
        status, out = run_capture(["--abs-tol", "1e-4"] + argv, capsys)
        assert status == 0
        assert json.loads(out)[0]["method"] == "series"

    def test_subnormal_a_argument_is_finite(self, capsys):
        status, out = run_capture(["eval", "--fn", "A", "--x", "1e-320"], capsys)
        assert status == 0
        (row,) = json.loads(out)
        assert math.isfinite(row["value"]) and row["value"] > 0.0

    @pytest.mark.parametrize("fn", ["A", "Phi2"])
    @pytest.mark.parametrize("x", ["inf", "nan"])
    def test_non_finite_argument_is_error_row(self, fn, x, capsys):
        status, out = run_capture(["eval", "--fn", fn, "--x", x], capsys)
        assert status == 1
        (row,) = json.loads(out)
        assert row["value"] is None and row["method"].startswith("error:")

    @pytest.mark.parametrize("x", [0.3, 2.5])
    def test_a_error_is_the_computed_bound(self, x, capsys):
        status, out = run_capture(
            ["eval", "--fn", "A", "--x", str(x), "--abs-tol", "1e-7"], capsys
        )
        assert status == 0
        (row,) = json.loads(out)
        assert row["est_error"] == special_fn._a_with_err(x, 1e-7)[1]


class TestCF:
    def test_golden_json(self, capsys):
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        status, out = run_capture(["cf", "--x", str(golden), "--depth", "4"], capsys)
        assert status == 0
        d = json.loads(out)
        assert d["partial_quotients"] == [1, 1, 1, 1]
        assert d["convergents"] == [[0, 1], [1, 1], [1, 2], [2, 3], [3, 5]]

    def test_json_roundtrip_identity(self, capsys):
        status, out = run_capture(["cf", "--x", "0.318309886183790", "--depth", "8"], capsys)
        parsed = json.loads(out)
        assert _to_json(parsed) + "\n" == out
        assert json.loads(_to_json(parsed)) == parsed


class TestWiltonCmd:
    def test_points_csv(self, capsys):
        status, out = run_capture(
            ["--format", "csv", "wilton", "--x", "0.6180339887498949"], capsys
        )
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "point,value,terms_used,tail_bound"
        val = float(lines[1].split(",")[1])
        assert val == pytest.approx(0.2974052637, abs=1e-6)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_sample_is_named(self, n, capsys):
        assert run(["wilton", "--sample", n]) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --sample must be positive, got {n}\n"

    def test_sampled(self, capsys):
        status, out = run_capture(["--seed", "5", "wilton", "--sample", "10"], capsys)
        assert status == 0
        assert len(json.loads(out)) == 10


class TestMomentCmd:
    def test_byte_identical_reruns(self, capsys):
        argv = ["moment", "--k", "10", "--samples", "1000", "--seed", "7"]
        s1, out1 = run_capture(argv, capsys)
        s2, out2 = run_capture(argv, capsys)
        assert s1 == s2 == 0
        assert out1 == out2

    def test_fixed_tolerances_are_documented(self, capsys):
        # g_batch runs at W 1e-8, H tail 2e-4 and the 1e-4 F table whatever
        # --abs-tol says, and the help text says so
        argv = ["moment", "--k", "2", "--samples", "2000", "--seed", "3"]
        _, default = run_capture(argv, capsys)
        _, loose = run_capture(["--abs-tol", "1e-2"] + argv, capsys)
        assert loose == default
        assert run(["moment", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "fixed tolerances (W 1e-8, H tail 2e-4, F table 1e-4)" in text
        assert "--abs-tol does not change it" in text

    def test_csv_columns(self, capsys):
        status, out = run_capture(
            ["moment", "--k", "3", "--samples", "2000", "--seed", "1", "--out", "csv"],
            capsys,
        )
        assert status == 0
        header = out.strip().split("\n")[0]
        assert header == "K,value,std_error,gamma_ratio,target_ratio,rejections"

    def test_sweep(self, capsys):
        status, out = run_capture(
            ["moment", "--sweep", "2,4", "--samples", "2000", "--seed", "2"], capsys
        )
        assert status == 0
        assert len(json.loads(out)) == 2

    def test_needs_k(self, capsys):
        assert run(["moment", "--samples", "100"]) == 2

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_too_few_samples_is_usage_error(self, samples, capsys):
        assert run(["moment", "--k", "2", "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_is_usage_error(self, k, capsys):
        assert run(["moment", "--k", k, "--samples", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["mc", "quad"])
    def test_overflowing_moment_fails_in_one_line(self, method, capsys):
        argv = ["moment", "--k", "400", "--samples", "2000", "--method", method]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation failed:")
        assert captured.err.count("\n") == 1


class TestCotangentCmd:
    def test_summary_json(self, capsys):
        status, out = run_capture(
            ["cotangent-dist", "--b", "101", "--a0", "0.5", "--a1", "1.0", "--kmax", "2"],
            capsys,
        )
        assert status == 0
        d = json.loads(out)
        assert d["b"] == 101
        assert len(d["normalized_moments"]) == 2

    def test_per_r_csv(self, tmp_path, capsys):
        per_r = tmp_path / "rows.csv"
        status, _ = run_capture(
            ["cotangent-dist", "--b", "11", "--per-r", str(per_r)], capsys
        )
        assert status == 0
        lines = per_r.read_text().strip().split("\n")
        assert lines[0] == "r,c0,c0_over_b"
        assert len(lines) == 1 + 5  # coprime r in [6, 10]

    @pytest.mark.parametrize("b", [1009, 1007])  # prime, and 1007 = 19 * 53
    def test_per_r_is_the_summary_pass(self, b, tmp_path, capsys, monkeypatch):
        calls = []
        c0_values = cotangent.c0_values

        def spy(*args, **kwargs):
            calls.append(c0_values(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(cotangent, "c0_values", spy)
        per_r = tmp_path / "rows.csv"
        status, out = run_capture(
            ["cotangent-dist", "--b", str(b), "--kmax", "2", "--per-r", str(per_r)],
            capsys,
        )
        assert status == 0
        assert len(calls) == 1
        m2 = json.loads(out)["normalized_moments"][0]
        text = per_r.read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        csv_m2 = math.fsum((float(c) / b) ** 2 for _, c, _ in rows) / len(rows)
        assert csv_m2 == pytest.approx(m2, rel=1e-12)
        rs = np.array([int(r) for r, _, _ in rows])
        vals = c0_values(b, rs)
        assert np.array_equal(vals, calls[0])
        expected = [[int(r), float(v), float(v) / b] for r, v in zip(rs, vals)]
        assert text == _csv(["r", "c0", "c0_over_b"], expected)

    def test_b_above_bound_is_usage_error(self, capsys):
        assert run(["cotangent-dist", "--b", str(10**7 + 19)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestVerifyCmd:
    def test_single_suite(self, capsys):
        status, out = run_capture(
            ["verify", "--suite", "functional-equation"], capsys
        )
        assert status == 0
        assert "PASS" in out

    def test_list(self, capsys):
        status, out = run_capture(["verify", "--list"], capsys)
        assert status == 0
        assert "gamma-ratio-trend" in out

    def test_unknown_flag_exits_2(self):
        assert run(["verify", "--bogus"]) == 2


class TestConfigPrecedence:
    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("WM_SEED", "99")
        _, out1 = run_capture(["wilton", "--sample", "3"], capsys)
        monkeypatch.delenv("WM_SEED")
        _, out2 = run_capture(["--seed", "99", "wilton", "--sample", "3"], capsys)
        assert out1 == out2

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WM_SEED", "1")
        _, out1 = run_capture(["--seed", "2", "wilton", "--sample", "3"], capsys)
        monkeypatch.delenv("WM_SEED")
        _, out2 = run_capture(["--seed", "2", "wilton", "--sample", "3"], capsys)
        assert out1 == out2

    @pytest.mark.parametrize("name", ["WM_SEED", "WM_ABS_TOL"])
    def test_malformed_env_is_usage_error(self, name, capsys, monkeypatch):
        monkeypatch.setenv(name, "abc")
        assert run(["wilton", "--sample", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert name in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--abs-tol", "nan"], ["--abs-tol", "inf"], ["--abs-tol", "0"],
            ["--rational-guard", "nan"], ["--rational-guard", "inf"],
            ["--rational-guard", "1"],
        ],
    )
    @pytest.mark.parametrize(
        "cmd", [["wilton", "--x", "0.3"], ["eval", "--fn", "g", "--x", "0.3"]]
    )
    def test_bad_tolerance_is_usage_error(self, flags, cmd, capsys):
        assert run(flags + cmd) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

    def test_nan_abs_tol_from_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WM_ABS_TOL", "nan")
        assert run(["wilton", "--x", "0.3"]) == 2

    def test_threads_flag_is_gone(self, capsys):
        assert run(["--threads", "2", "cotangent-dist", "--b", "101"]) == 2
        assert run(["cotangent-dist", "--b", "101", "--threads", "2"]) == 2

    def test_output_file_lf(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        status, _ = run_capture(
            ["--output", str(path), "eval", "--fn", "Phi2", "--x", "0.5"], capsys
        )
        assert status == 0
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestJsonFormatting:
    def test_17_digits_roundtrip(self):
        vals = [math.pi, 1.0 / 3.0, 5e-324, 1e308, -0.0]
        text = _to_json({"v": list(vals)})
        parsed = json.loads(text)
        assert parsed["v"] == vals

    def test_non_finite_floats_are_null(self):
        text = _to_json({"v": [math.nan, math.inf, -math.inf, 1.5]})
        assert json.loads(text) == {"v": [None, None, None, 1.5]}

    def test_strings_are_escaped(self):
        s = 'a "quoted" \\ path\nnext'
        assert json.loads(_to_json({"s": s})) == {"s": s}
