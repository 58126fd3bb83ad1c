import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiltonmoments import cotangent, moments, special_fn
from wiltonmoments.cli import run, _build_parser, _csv, _to_json


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
            ["eval", "--fn", "Phi2", "--x", "0.5", "--format", "csv"], capsys
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

    @pytest.mark.parametrize("x", ["0.7", "1.5"])
    def test_a_at_least_subnormal_tolerance(self, x, capsys):
        status, out = run_capture(["eval", "--fn", "A", "--abs-tol", "5e-324", "--x", x], capsys)
        assert status == 0
        (row,) = json.loads(out)
        assert math.isfinite(row["value"]) and math.isfinite(row["est_error"])

    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"]], ids=["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--fn", "g", "--x", ","], ["wilton", "--x", ","],
         ["eval", "--fn", "W", "--grid", "0.1:0.9:0"]],
        ids=["eval_x", "wilton_x", "eval_grid"],
    )
    def test_empty_point_list_is_usage_error(self, argv, fmt, capsys):
        assert run(argv + fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["3", "a:b:3", "0.1:0.2:-1", "0.1:0.2:2.5"])
    def test_malformed_grid_is_usage_error(self, grid, capsys):
        assert run(["eval", "--fn", "F", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("usage error: --grid lo:hi:n ") and repr(grid) in captured.err

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
        # at abs_tol 1e-9 this point snaps to 28247/132119 (66059 csc^2 terms
        # against 123077 direct ones); at the default 1e-8, 38121 direct terms
        # are cheaper than the snap
        argv = ["eval", "--fn", "Phi2", "--x", "0.2137996805918318"]
        _, out = run_capture(argv + ["--abs-tol", "1e-9"], capsys)
        assert json.loads(out)[0]["method"] == "rational_snap"
        status, out = run_capture(argv + ["--abs-tol", "1e-4"], capsys)
        assert status == 0
        assert json.loads(out)[0]["method"] == "series"

    def test_phi2_at_an_integer_reports_its_closed_form(self, capsys):
        # the integer is pi^2/36 with error 0 at every tolerance, not the series
        argv = ["eval", "--fn", "Phi2", "--x", "1,0", "--abs-tol", "1e-3"]
        status, out = run_capture(argv, capsys)
        assert status == 0
        for row in json.loads(out):
            assert row["value"] == special_fn.PI2_OVER_36 and row["est_error"] == 0.0
            assert row["method"] == "rational_snap"

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

    def test_direct_series_at_a_rational_is_an_error_row(self, capsys):
        argv = ["eval", "--fn", "g", "--method", "direct_series", "--x", "0.5"]
        status, out = run_capture(argv, capsys)
        assert status == 1
        (row,) = json.loads(out)
        assert row["value"] is None and row["method"].startswith("error:")

    @pytest.mark.parametrize("fn", ["g", "W"])
    def test_effectively_rational_points_are_error_rows(self, fn, capsys):
        status, out = run_capture(["eval", "--fn", fn, "--x", "0.3,0.7,0.4"], capsys)
        assert status == 1
        rows = json.loads(out)
        assert len(rows) == 3
        for row in rows:
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

    def test_runs_without_mpmath(self):
        # mpmath is a test dependency only; blocking its import changes nothing
        code = (
            "import sys; sys.modules['mpmath'] = None; from wiltonmoments.cli import run; "
            "print(run(['cf', '--x', '0.3', '--depth', '40', '--extended']), "
            "run(['eval', '--fn', 'g', '--x', '0.31830988618379067']), "
            "run(['eval', '--fn', 'g', '--x', '0.3']), file=sys.stderr)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr.strip() == "0 0 1"


class TestWiltonCmd:
    def test_points_csv(self, capsys):
        status, out = run_capture(
            ["wilton", "--x", "0.6180339887498949", "--format", "csv"], capsys
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
        status, out = run_capture(["wilton", "--sample", "10", "--seed", "5"], capsys)
        assert status == 0
        assert len(json.loads(out)) == 10

    @pytest.mark.parametrize("x", ["0.4", "0.3"])
    def test_rational_point_is_error_row(self, x, capsys):
        # W diverges at a rational; the partial sum is no estimate of it
        status, out = run_capture(["wilton", "--x", x], capsys)
        assert status == 1
        (row,) = json.loads(out)
        assert row["value"] is None and row["tail_bound"] is None

    @pytest.mark.parametrize(
        "x,value", [("5e-324", 744.4400719213812), ("1e-300", 690.7755278982137)]
    )
    def test_ended_orbit_below_double_range_is_a_row(self, x, value, capsys):
        # 1/x overflows or rounds to an integer: W is log(1/x) within 720 x + ulp
        status, out = run_capture(["wilton", "--x", x], capsys)
        assert status == 0
        (row,) = json.loads(out)
        assert row["value"] == value and row["tail_bound"] == pytest.approx(1.1e-13, rel=0.05)

    @pytest.mark.parametrize("fn", ["W", "H", "g"])
    def test_points_whose_float_orbit_ends_on_the_guard(self, fn, capsys):
        # 1e-13 and two seeded points near it end on RATIONAL_GUARD, and are
        # not effectively rational
        pts = "1e-13,1.2927207490124873e-13,1.5238107230328893e-12"
        status, out = run_capture(["eval", "--fn", fn, "--x", pts], capsys)
        assert status == 0 and "null" not in out


class TestMomentCmd:
    def test_byte_identical_reruns(self, capsys):
        argv = ["moment", "--k", "10", "--samples", "1000", "--seed", "7"]
        s1, out1 = run_capture(argv, capsys)
        s2, out2 = run_capture(argv, capsys)
        assert s1 == s2 == 0
        assert out1 == out2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_rerun_reuses_heap_pages(self):
        # a second moment(2) at 2e5 samples page-faults 0.1-1.6k times with
        # moment's fixed malloc thresholds and 11-15k times under glibc's
        # dynamic ones, which return each block's heap pages to the OS
        code = """if True:
            import contextlib, io, resource
            from wiltonmoments.cli import run
            argv = ["moment", "--k", "2", "--samples", "200000", "--seed", "3"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert run(argv) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 5000

    def test_fixed_tolerances_are_documented(self, capsys):
        # g_batch runs the F table within 1.28e-4, W to 1% of that and the H
        # tail to 2e-4, so moment takes no --abs-tol, and the help text says so
        argv = ["moment", "--k", "2", "--samples", "2000", "--seed", "3"]
        assert run(argv + ["--abs-tol", "1e-2"]) == 2
        assert run(["moment", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "fixed tolerances (F table within 1.28e-4, W at 1% of that, H tail 2e-4)" in text
        assert "there is no --abs-tol" in text

    def test_csv_columns(self, capsys):
        status, out = run_capture(
            ["moment", "--k", "3", "--samples", "2000", "--seed", "1", "--format", "csv"],
            capsys,
        )
        assert status == 0
        header = out.strip().split("\n")[0]
        assert header == "K,value,std_error,gamma_ratio,target_ratio,rejections"

    def test_sweep(self, capsys):
        status, out = run_capture(
            ["moment", "--k", "2,4", "--samples", "2000", "--seed", "2"], capsys
        )
        assert status == 0
        assert [row["K"] for row in json.loads(out)] == [2.0, 4.0]

    def test_needs_k(self, capsys):
        assert run(["moment", "--samples", "100"]) == 2

    @pytest.mark.parametrize("k", ["", ",", "4,2", "2,x"])
    def test_k_list_without_ascending_values_is_usage_error(self, k, capsys):
        assert run(["moment", "--k", k, "--samples", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

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

    def test_overflowing_moment_is_named(self, capsys):
        assert run(["cotangent-dist", "--b", "1009", "--kmax", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation failed: moment 1208 ")
        assert captured.err.count("\n") == 1

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

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "--suite", "no-such-suite"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
        assert "no-such-suite" in captured.err

    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats costs 0.8 s and 46 MB at import; no command needs it
        code = "import sys, wiltonmoments.cli; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_no_command_loads_scipy(self):
        # scipy.special costs about 0.24 s and 23 MB at import; moment takes its
        # Gamma quantiles and Gamma function from moments and math, and verify's
        # measure-invariance suite its KS statistic from numpy
        code = """if True:
            import contextlib, io, sys
            import wiltonmoments, wiltonmoments.cli
            from wiltonmoments.cli import run
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["eval", "--fn", "g", "--x", "0.31830988618379067"]) == 0
                assert run(["cf", "--x", "0.3", "--depth", "40", "--extended"]) == 0
                assert run(["wilton", "--x", "0.31830988618379067"]) == 0
                assert run(["cotangent-dist", "--b", "1009", "--kmax", "2"]) == 0
                assert run(["moment", "--k", "2", "--samples", "2000"]) == 0
                assert run(["moment", "--k", "2", "--method", "quad"]) == 0
                assert run(["verify", "--suite", "measure-invariance"]) == 0
            print(sorted(k for k in sys.modules if k.startswith("scipy")))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_measure_invariance_runs_without_scipy(self):
        code = """if True:
            import sys
            sys.modules["scipy"] = None  # any import of scipy now fails
            from wiltonmoments.cli import run
            sys.exit(run(["verify", "--suite", "measure-invariance"]))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "KS statistic 0.00072 (tol 0.002)" in proc.stdout


class TestConfigPrecedence:
    # argv is the whole configuration: --seed and --abs-tol read no variable
    @staticmethod
    def _env_changes_nothing(argv, name, value, capsys, monkeypatch):
        before = run_capture(argv, capsys)
        assert before[0] == 0
        with monkeypatch.context() as env:
            env.setenv(name, value)
            assert run_capture(argv, capsys) == before

    def test_env_seed(self, capsys, monkeypatch):
        self._env_changes_nothing(["wilton", "--sample", "3"], "WM_SEED", "99", capsys, monkeypatch)

    def test_env_abs_tol(self, capsys, monkeypatch):
        argv = ["eval", "--fn", "g", "--x", "0.31830988618379067"]
        self._env_changes_nothing(argv, "WM_ABS_TOL", "1e-3", capsys, monkeypatch)

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WM_SEED", "1")
        _, out1 = run_capture(["wilton", "--sample", "3", "--seed", "2"], capsys)
        monkeypatch.delenv("WM_SEED")
        _, out2 = run_capture(["wilton", "--sample", "3", "--seed", "2"], capsys)
        assert out1 == out2

    @pytest.mark.parametrize("name", ["WM_SEED", "WM_ABS_TOL"])
    def test_malformed_env_is_ignored(self, name, capsys, monkeypatch):
        self._env_changes_nothing(["wilton", "--sample", "1"], name, "abc", capsys, monkeypatch)

    def test_nan_abs_tol_from_env_is_ignored(self, capsys, monkeypatch):
        argv = ["wilton", "--x", "0.31830988618379067"]
        self._env_changes_nothing(argv, "WM_ABS_TOL", "nan", capsys, monkeypatch)

    def test_unread_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("WM_ABS_TOL", "abc")
        assert run(["verify", "--list"]) == 0
        monkeypatch.delenv("WM_ABS_TOL")
        monkeypatch.setenv("WM_SEED", "abc")
        assert run(["eval", "--fn", "A", "--x", "1"]) == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--abs-tol", "nan"], ["--abs-tol", "inf"], ["--abs-tol", "0"],
            # --rational-guard is gone, so any value of it is rejected
            ["--rational-guard", "nan"], ["--rational-guard", "inf"],
            ["--rational-guard", "1e-15"],
        ],
    )
    @pytest.mark.parametrize(
        "cmd", [["wilton", "--x", "0.3"], ["eval", "--fn", "g", "--x", "0.3"]]
    )
    def test_bad_tolerance_is_usage_error(self, flags, cmd, capsys):
        assert run(cmd + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", "x"])
    @pytest.mark.parametrize(
        "cmd",
        [["wilton", "--x", "0.3"], ["wilton", "--sample", "5"],
         ["moment", "--k", "2", "--method", "quad"], ["moment", "--k", "2", "--samples", "2000"],
         ["cotangent-dist", "--b", "1009"], ["cotangent-dist", "--b", "1009", "--sample", "5"]],
    )
    def test_bad_seed_is_named_whether_or_not_it_is_drawn_from(self, seed, cmd, capsys):
        assert run(cmd + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
        assert "--seed" in captured.err

    def test_threads_flag_is_gone(self, capsys):
        assert run(["--threads", "2", "cotangent-dist", "--b", "101"]) == 2
        assert run(["cotangent-dist", "--b", "101", "--threads", "2"]) == 2

    def test_output_file_lf(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        status, _ = run_capture(
            ["eval", "--fn", "Phi2", "--x", "0.5", "--output", str(path)], capsys
        )
        assert status == 0
        raw = path.read_bytes()
        assert b"\r" not in raw

    @pytest.mark.parametrize("missing", [True, False], ids=["missing_dir", "directory"])
    @pytest.mark.parametrize(
        "argv,flag",
        [(["eval", "--fn", "A", "--x", "1"], "--output"),
         (["cotangent-dist", "--b", "11"], "--per-r")],
        ids=["output", "per_r"],
    )
    def test_unwritable_path_is_usage_error(self, argv, flag, missing, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "out.txt" if missing else tmp_path
        assert run([*argv, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


# the minimal arguments of each subcommand, and the former common flags it
# reads; --max-terms, --max-orbit-depth, --rational-guard and moment's --sweep
# are gone, so none reads them
COMMANDS = {
    "eval": (["--fn", "A", "--x", "1"], {"--abs-tol", "--format", "--output"}),
    "cf": (["--x", "0.3"], {"--output"}),
    "wilton": (["--x", "0.3"], {"--seed", "--abs-tol", "--format", "--output"}),
    "moment": (["--k", "2"], {"--seed", "--format", "--output"}),
    "cotangent-dist": (["--b", "101"], {"--seed", "--format", "--output"}),
    "verify": (["--list"], {"--output"}),
}
FLAG_VALUES = {
    "--seed": "1", "--abs-tol": "1e-6", "--max-terms": "100", "--max-orbit-depth": "40",
    "--rational-guard": "1e-14", "--format": "csv", "--output": "out.txt", "--sweep": "2,4",
}


class TestFlagTable:
    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_flag_accepted_exactly_where_read(self, cmd, flag, capsys):
        required, reads = COMMANDS[cmd]
        argv = [cmd, *required, flag, FLAG_VALUES[flag]]
        if flag in reads:
            args = _build_parser().parse_args(argv)
            assert vars(args)[flag[2:].replace("-", "_")] is not None
            return
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_flag_before_subcommand_is_usage_error(self, cmd, flag, capsys):
        assert run([flag, FLAG_VALUES[flag], cmd, *COMMANDS[cmd][0]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1

    def test_out_alias_is_gone(self, capsys):
        # --out is no abbreviation of --output either
        assert run(["moment", "--k", "2", "--samples", "100", "--out", "csv"]) == 2

    def test_readme_cli_lines_parse(self):
        # every `wm` line of every sh block, so a removed flag cannot leave README stale
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [part.split("```", 1)[0] for part in readme.split("```sh")[1:]]
        lines = [ln.split("#", 1)[0].split() for bl in blocks for ln in bl.splitlines()]
        argvs = [ln[1:] for ln in lines if ln[:1] == ["wm"]]
        assert len(argvs) >= 13
        for argv in argvs:
            _build_parser().parse_args(argv)


# every subcommand that takes one point; the point is appended as --x
POINT_COMMANDS = [
    *(["eval", "--fn", fn] for fn in ("g", "W", "H", "A", "F", "Phi2")),
    ["wilton"],
    ["cf"],
    ["cf", "--extended"],
]


class TestEveryPointEndsCleanly:
    """Any point ends in exit 0 with finite values, or in exit 1 with error
    rows, or in exit 2 with one stderr line: never in a traceback, a null
    value at exit 0, or output that json.loads rejects."""

    @pytest.mark.parametrize(
        "cmd", POINT_COMMANDS, ids=lambda cmd: "_".join(a.strip("-") for a in cmd)
    )
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0)))
    @example(5e-324)
    @example(1e-310)
    @example(1e-300)
    @example(1.0 - 2.0**-53)
    @example(1.0)
    @example(0.0)
    @example(math.nan)
    @example(math.inf)
    def test_point(self, cmd, x):
        self._assert_ends_cleanly([*cmd, "--x", repr(x)])

    @pytest.mark.parametrize("cmd", ["wilton", "eval"])
    @settings(max_examples=20, derandomize=True, deadline=None)
    # above moments.MAX_SAMPLES a point count is refused before anything is allocated
    @given(st.integers(-2, 50) | st.integers(10**12, 10**18))
    @example(10**12)
    def test_point_count(self, cmd, n):
        if cmd == "wilton":
            self._assert_ends_cleanly(["wilton", "--sample", str(n)])
        else:
            self._assert_ends_cleanly(["eval", "--fn", "W", "--grid", f"0.1:0.9:{n}"])

    @staticmethod
    def _assert_ends_cleanly(argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert status in (0, 1, 2)
        if status == 2:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            return
        json.loads(out)
        if status == 0:
            assert "null" not in out  # a non-finite value is written as null


def _assert_ends_cleanly(argv: list[str]) -> None:
    """Exit 0 with finite values, or exit 1 or 2 with one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    out, err = out.getvalue(), err.getvalue()
    if status == 0:
        json.loads(out)
        assert "null" not in out and err == ""  # a non-finite value is written as null
    else:
        assert status in (1, 2) and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")


class TestSweepsEndCleanly:
    """wm moment and wm cotangent-dist keep the contract of TestEveryPointEndsCleanly
    on any --k/--samples and any --b (up to 2000), --a0, --a1, --sample and --kmax."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        k=st.floats()
        | st.floats(0.0, 30.0)
        | st.lists(st.floats(0.0, 30.0), min_size=2, max_size=2),
        # above the bound a sample count never allocates, here or at an older version
        samples=st.integers(-2, 2000) | st.integers(10**12, 10**18),
    )
    @example(k=2.0, samples=10**12)
    @example(k=20.0, samples=2000)
    @example(k=400.0, samples=2000)
    @example(k=[2.0, 4.0], samples=2000)
    def test_moment(self, k, samples):
        ks = ",".join(map(repr, k)) if isinstance(k, list) else repr(k)
        _assert_ends_cleanly(["moment", "--k", ks, "--samples", str(samples)])

    def test_samples_above_bound_is_usage_error(self, capsys):
        assert run(["moment", "--k", "2", "--samples", str(moments.MAX_SAMPLES + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        b=st.integers(-2, 2000),
        # mostly 0 < a0 <= a1 <= 1, near the range a sweep accepts
        a=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2).map(sorted)
        | st.tuples(st.floats(-0.5, 1.5) | st.just(math.nan), st.floats(-0.5, 1.5)),
        sample=st.none() | st.integers(-2, 1000),
        kmax=st.integers(-2, 1200) | st.integers(cotangent.MAX_KMAX + 1, 10**15),
    )
    @example(b=1009, a=(0.5, 1.0), sample=None, kmax=1000)
    @example(b=1009, a=(0.5, 1.0), sample=None, kmax=2)
    def test_cotangent(self, b, a, sample, kmax):
        argv = ["cotangent-dist", "--b", str(b), "--a0", repr(a[0]), "--a1", repr(a[1])]
        argv += ["--kmax", str(kmax)] + ([] if sample is None else ["--sample", str(sample)])
        _assert_ends_cleanly(argv)


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
