import contextlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wishart_esf import oracles, wishart
from wishart_esf.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_STATISTICAL,
    EXIT_USAGE,
    main,
    parse_matrix_csv,
)

from conftest import NEARLY_SYMMETRIC_MEAN, NEARLY_SYMMETRIC_SIGMA, write_matrix_csv


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wishart_esf", *args], capture_output=True, text=True
    )


@pytest.fixture
def identity2(tmp_path: Path) -> str:
    path = tmp_path / "I2.csv"
    path.write_text("1,0\n0,1\n")
    return str(path)


@pytest.fixture
def diag_mean(tmp_path: Path) -> str:
    path = tmp_path / "m.csv"
    path.write_text("2,0,0\n0,1/2,0\n")
    return str(path)


class TestMatrixIO:
    def test_rational_roundtrip(self, tmp_path):
        matrix = ((Fraction(1, 3), Fraction(2)), (Fraction(2), Fraction(-5, 7)))
        path = tmp_path / "a.csv"
        write_matrix_csv(str(path), matrix)
        parsed, mode = parse_matrix_csv(str(path))
        assert mode == "rational"
        assert parsed == matrix

    def test_float_roundtrip_bit_identical(self, tmp_path):
        matrix = ((0.1, 2.5000000000000004), (-3.7e-11, 1.0))
        path = tmp_path / "b.csv"
        write_matrix_csv(str(path), matrix)
        parsed, mode = parse_matrix_csv(str(path))
        assert mode == "float"
        assert parsed == matrix

    def test_mode_detection(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1,1/2\n1/2,3\n")
        parsed, mode = parse_matrix_csv(str(path))
        assert mode == "rational"
        assert parsed[0][1] == Fraction(1, 2)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n0\n")
        from wishart_esf.cli import UsageError

        with pytest.raises(UsageError):
            parse_matrix_csv(str(path))


class TestCompute:
    def test_basic_value(self, identity2, capsys):
        code = main(
            [
                "compute",
                "--method",
                "closed-form",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--i",
                "2",
                "--no-timing",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["results"][0]["value"] == "6"

    def test_order_zero_and_above_dimension(self, identity2, capsys):
        code = main(
            ["compute", "--n", "3", "--p", "2", "--sigma", identity2, "--i", "0", "--no-timing"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"][0]["value"] == "1"
        code = main(
            ["compute", "--n", "3", "--p", "2", "--sigma", identity2, "--i", "5", "--no-timing"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"][0]["value"] == "0"

    def test_range_of_orders(self, identity2, capsys):
        code = main(
            [
                "compute",
                "--method",
                "umbral",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--i",
                "1..2",
                "--no-timing",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [r["value"] for r in payload["results"]] == ["6", "6"]

    @pytest.mark.parametrize("orders", ["-1", "-2..1", "2..1", "two", "1..x"])
    @pytest.mark.parametrize("command", ["compute", "compare"])
    def test_bad_orders_are_usage_errors(self, identity2, capsys, orders, command):
        methods = ["--methods", "closed-form,umbral"] if command == "compare" else []
        code = main(
            [command, *methods, "--n", "3", "--p", "2", "--sigma", identity2, f"--i={orders}"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == "" and "bad order" in err

    @pytest.mark.parametrize("top", ["4", "10000000000000000000", "1000000000000000000"])
    @pytest.mark.parametrize("command", ["compute", "compare", "table"])
    def test_range_past_p_plus_one_is_refused_before_any_file_is_read(
        self, tmp_path, capsys, top, command
    ):
        # orders above p are 0, so a range ends at p + 1; a longer one is a
        # usage error naming p, before a list is built or the covariance read
        methods = ["--methods", "closed-form,umbral"] if command != "compute" else []
        absent = str(tmp_path / "absent.csv")
        code = main([command, *methods, "--n", "3", "--p", "2", "--sigma", absent, f"--i=0..{top}"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: bad order range '0..{top}': a range ends at p + 1 = 3 or below\n"

    def test_range_may_end_at_p_plus_one_and_one_order_at_any_size(self, identity2, capsys):
        model = ["compute", "--n", "3", "--p", "2", "--sigma", identity2, "--no-timing"]
        assert main(model + ["--i", "0..3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [r["value"] for r in payload["results"]] == ["1", "6", "6", "0"]
        assert main(model + ["--i", "10000000000000000000"]) == EXIT_OK
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert result["i"] == 10**19 and result["value"] == "0"

    def test_missing_file_exits_one(self, tmp_path):
        result = run_cli(
            ["compute", "--n", "3", "--p", "2", "--sigma", str(tmp_path / "absent.csv"), "--i", "1"]
        )
        assert result.returncode == EXIT_USAGE
        assert "error" in result.stderr
        assert result.stdout == ""

    def test_undecodable_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,0\n0,\xff\n")
        code = main(["compute", "--n", "3", "--p", "2", "--sigma", str(path), "--i", "1"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: cannot read")

    def test_invalid_params_exit_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n2,1\n")  # not positive definite
        result = run_cli(["compute", "--n", "3", "--p", "2", "--sigma", str(bad), "--i", "1"])
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""

    def test_non_finite_cell_exits_one(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("1.0,nan\nnan,2.0\n")
        result = run_cli(
            ["compute", "--mode", "float", "--n", "3", "--p", "2", "--sigma", str(bad), "--i", "2"]
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""

    def test_single_sample_is_usage_error(self, identity2):
        result = run_cli(
            ["compute", "--method", "mc", "--samples", "1"]
            + ["--n", "3", "--p", "2", "--sigma", identity2, "--i", "1"]
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""

    def test_sample_count_beyond_sys_maxsize_is_usage_error(self, identity2):
        # numpy cannot allocate it; the count is refused before any method runs
        for command in (["compute", "--method", "mc"], ["table", "--methods", "closed-form,mc"]):
            result = run_cli(
                command + ["--samples", "100000000000000000000"]
                + ["--n", "3", "--p", "2", "--sigma", identity2, "--i", "1"]
            )
            assert result.returncode == EXIT_USAGE
            assert result.stdout == ""
            assert "--samples must be at most" in result.stderr

    def test_negative_seed_is_usage_error(self, identity2):
        result = run_cli(
            ["compute", "--method", "mc", "--seed", "-1"]
            + ["--n", "3", "--p", "2", "--sigma", identity2, "--i", "1"]
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert "--seed" in result.stderr

    @pytest.mark.parametrize("flag, value", [("samples", 1), ("samples", 2**70), ("seed", -1)])
    def test_sampling_errors_are_the_librarys(self, identity2, flag, value):
        # the command line reports the library's own check, prefixed with "--"
        sampling = {"samples": 100_000, "seed": 20200429, flag: value}
        params = wishart.WishartParams(3, 2, ((1, 0), (0, 1)))
        with pytest.raises(ValueError) as library:
            oracles.mc_expected_esf(params, 1, **sampling)
        stderr = io.StringIO()
        argv = ["compute", "--method", "mc", "--n", "3", "--p", "2", "--sigma", identity2, "--i", "1"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            assert main(argv + [f"--{flag}", str(value)]) == EXIT_USAGE
        assert stderr.getvalue() == f"error: --{library.value}\n"

    @pytest.mark.parametrize("method", ["umbral", "closed-form"])
    def test_value_beyond_float_range_says_so(self, tmp_path, method):
        sigma = tmp_path / "huge.csv"
        sigma.write_text("1e120,0,0\n0,1e120,0\n0,0,1e120\n")
        argv = ["compute", "--method", method, "--n", "3", "--p", "3", "--sigma", str(sigma)]
        result = run_cli(argv + ["--i", "3"])
        assert result.returncode == EXIT_NUMERICAL
        assert result.stdout == ""
        assert "exceeds the float range" in result.stderr and "--mode rational" in result.stderr
        assert "Traceback" not in result.stderr
        exact = run_cli(argv + ["--i", "3", "--mode", "rational"])
        assert exact.returncode == EXIT_OK
        assert json.loads(exact.stdout)["results"][0]["value"] == str(6 * 10**360)

    @pytest.mark.parametrize("method", ["umbral", "closed-form", "wick"])
    def test_exact_entry_beyond_float_range_is_read_exactly(self, tmp_path, method):
        sigma = tmp_path / "big.csv"
        sigma.write_text("1" + "0" * 400 + ",0\n0,1\n")
        argv = ["compute", "--method", method, "--n", "3", "--p", "2", "--sigma", str(sigma)]
        result = run_cli(argv + ["--i", "1..2"])
        assert result.returncode == EXIT_OK, result.stderr
        values = [e["value"] for e in json.loads(result.stdout)["results"]]
        assert values == [str(3 * (10**400 + 1)), str(6 * 10**400)]
        decimal = tmp_path / "big_decimal.csv"
        decimal.write_text("1e400,0\n0,1\n")
        forced = run_cli(
            ["compute", "--method", method, "--n", "3", "--p", "2", "--sigma", str(decimal)]
            + ["--i", "2", "--mode", "rational"]
        )
        assert forced.returncode == EXIT_OK, forced.stderr
        assert json.loads(forced.stdout)["results"][0]["value"] == str(6 * 10**400)

    def test_mixed_files_beyond_float_range_are_usage_errors(self, tmp_path):
        sigma = tmp_path / "big.csv"
        sigma.write_text("1" + "0" * 400 + ",0\n0,1\n")
        mean = tmp_path / "m.csv"
        mean.write_text("0.5,0,0\n0,1.5,0\n")
        result = run_cli(
            ["compute", "--n", "3", "--p", "2", "--sigma", str(sigma), "--m", str(mean)]
            + ["--i", "1"]
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert "float range" in result.stderr and "--mode rational" in result.stderr
        assert "Traceback" not in result.stderr

    def test_mixed_files_give_the_library_value(self, tmp_path, capsys):
        # an exact covariance with a decimal mean: the model as written, in
        # float mode, not the covariance rounded to floats first
        sigma = tmp_path / "s.csv"
        sigma.write_text("1/3,1/7\n1/7,2/3\n")
        mean = tmp_path / "m.csv"
        mean.write_text("0.1,0.2,0.3\n0.7,-0.4,0.5\n")
        params = wishart.WishartParams(
            3, 2, parse_matrix_csv(str(sigma))[0], parse_matrix_csv(str(mean))[0]
        )
        model = ["--n", "3", "--p", "2", "--sigma", str(sigma), "--m", str(mean), "--i", "2"]
        routes = {
            "closed-form": wishart.expected_esf_closed_form,
            "umbral": wishart.expected_esf_umbral,
        }
        for method, route in routes.items():
            assert main(["compute", "--method", method, "--no-timing", *model]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert report["mode"] == "float"
            assert report["params"]["sigma"][0] == ["1/3", "1/7"]
            assert report["results"][0]["value"] == route(params, 2) == 2.0239510204081634
        code = main(["compare", "--methods", "closed-form,umbral", "--no-timing", *model])
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert row["values"] == {m: route(params, 2) for m, route in routes.items()}

    def test_covariance_symmetric_within_tolerance(self, tmp_path, capsys):
        sigma, mean = str(tmp_path / "s.csv"), str(tmp_path / "m.csv")
        write_matrix_csv(sigma, NEARLY_SYMMETRIC_SIGMA)
        write_matrix_csv(mean, NEARLY_SYMMETRIC_MEAN)
        params = wishart.WishartParams(4, 3, NEARLY_SYMMETRIC_SIGMA, NEARLY_SYMMETRIC_MEAN)
        model = ["--n", "4", "--p", "3", "--sigma", sigma, "--m", mean, "--i", "1..3"]
        routes = {
            "closed-form": wishart.expected_esf_closed_form,
            "umbral": wishart.expected_esf_umbral,
        }
        for method, route in routes.items():
            assert main(["compute", "--method", method, "--no-timing", *model]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert [row["value"] for row in report["results"]] == [
                route(params, i) for i in range(1, 4)
            ]
        code = main(["compare", "--methods", "closed-form,umbral", "--no-timing", *model])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_asymmetric_covariance_is_refused_at_every_scale(self, tmp_path, capsys):
        # Monte Carlo's Cholesky would read only the lower triangle
        for scale in (1e-20, 1.0, 1e20):
            sigma = str(tmp_path / "s.csv")
            write_matrix_csv(sigma, ((2 * scale, 0.0), (scale, 2 * scale)))
            argv = ["compare", "--methods", "closed-form,mc", "--n", "3", "--p", "2"]
            code = main(argv + ["--sigma", sigma, "--i", "2", "--no-timing"])
            out, err = capsys.readouterr()
            assert (code, out, err) == (EXIT_USAGE, "", "error: covariance must be symmetric\n"), scale

    def test_monte_carlo_beyond_float_range_says_so(self, tmp_path):
        sigma = tmp_path / "huge.csv"
        sigma.write_text("1e120,0,0\n0,1e120,0\n0,0,1e120\n")
        result = run_cli(
            ["compute", "--method", "mc", "--n", "3", "--p", "3", "--sigma", str(sigma)]
            + ["--i", "3", "--samples", "1000"]
        )
        assert result.returncode == EXIT_NUMERICAL
        assert result.stdout == ""
        assert "exceeds the float range" in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr

    @pytest.mark.parametrize(
        "argv, sigma, mean, order",
        [
            # the float sum of e_2 reaches inf - inf: it was reported as NaN
            (["table", "--methods", "wick", "--n", "2", "--p", "2"], "1e200,0\n0,1e200\n", None, 2),
            # 1e308 + 1e600 was reported as Infinity
            (["compute", "--method", "wick", "--n", "1", "--p", "1"], "1e308\n", "1e300\n", 1),
        ],
    )
    def test_wick_value_beyond_float_range_says_so(self, tmp_path, capsys, argv, sigma, mean, order):
        (tmp_path / "s.csv").write_text(sigma)
        argv = argv + ["--sigma", str(tmp_path / "s.csv"), "--i", f"0..{order}", "--no-timing"]
        if mean:
            (tmp_path / "m.csv").write_text(mean)
            argv += ["--m", str(tmp_path / "m.csv")]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith(f"error: wick failed at i={order}: the value exceeds the float range")
        assert "--mode rational" in err

    def test_monte_carlo_sample_too_large_to_allocate(self, tmp_path, capsys):
        # one sample at n = 10**15 needs petabytes: the allocation fails at once
        sigma = tmp_path / "one.csv"
        sigma.write_text("1\n")
        argv = ["compute", "--method", "mc", "--n", str(10**15), "--p", "1", "--sigma", str(sigma)]
        code = main(argv + ["--i", "1", "--samples", "2", "--no-timing"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("error: mc failed at i=1: ") and err.count("\n") == 1

    def test_no_partial_output_file_on_error(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            [
                "compute",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                str(tmp_path / "absent.csv"),
                "--i",
                "1",
                "--out",
                str(out),
            ]
        )
        assert result.returncode == EXIT_USAGE
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, identity2, tmp_path):
        out = tmp_path / "missing" / "report.json"
        result = run_cli(
            ["compute", "--n", "3", "--p", "2", "--sigma", identity2, "--i", "1", "--out", str(out)]
        )
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("error: cannot write")
        assert "Traceback" not in result.stderr
        assert not out.parent.exists()

    def test_out_replaces_existing_file_without_leftovers(self, identity2, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("stale\n")
        code = main(
            ["compute", "--n", "3", "--p", "2", "--sigma", identity2, "--i", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["results"][0]["value"] == "6"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["I2.csv", "report.json"]

    def test_csv_output(self, identity2, capsys):
        code = main(
            [
                "compute",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--i",
                "1",
                "--no-timing",
                "--output",
                "csv",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,i,value,stderr"
        assert lines[1].startswith("closed-form,1,6")


class TestCompare:
    def test_exact_agreement(self, identity2, capsys):
        code = main(
            [
                "compare",
                "--methods",
                "closed-form,umbral,wick",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--i",
                "1..2",
                "--no-timing",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert all(row["pass"] for row in payload["results"])

    def test_noncentral_agreement(self, identity2, diag_mean, capsys):
        code = main(
            [
                "compare",
                "--methods",
                "closed-form,umbral",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--m",
                diag_mean,
                "--i",
                "1..2",
                "--no-timing",
            ]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_single_method_usage_error(self, identity2):
        result = run_cli(
            [
                "compare",
                "--methods",
                "closed-form",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--i",
                "1",
            ]
        )
        assert result.returncode == EXIT_USAGE

    @pytest.mark.parametrize("command", ["compare", "table"])
    def test_repeated_method_is_usage_error(self, identity2, capsys, command):
        # compared with itself, a method would pass vacuously
        code = main(
            [command, "--methods", "umbral,umbral", "--output", "csv"]
            + ["--n", "3", "--p", "2", "--sigma", identity2, "--i", "1"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == "" and "once" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--methods", "mc,bogus"],
            ["compare", "--methods", "closed-form,umbral,closed-form"],
            ["table", "--methods", "umbral,mc", "--samples", "1"],
            ["table", "--methods", "wick,mc", "--seed", "-1"],
            ["compare", "--methods", "umbral,closed-form", "--i", "3..1"],
        ],
    )
    def test_usage_errors_come_before_any_method_runs(
        self, identity2, capsys, monkeypatch, argv
    ):
        calls = []
        for module, name in [
            (wishart, "expected_esf_closed_form"),
            (wishart, "expected_esf_umbral"),
            (oracles, "wick_expected_esf"),
            (oracles, "mc_expected_esf"),
        ]:

            def counted(*args, route=getattr(module, name), **kwargs):
                calls.append(route.__name__)
                return route(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        argv = argv + ["--n", "3", "--p", "2", "--sigma", identity2]
        code = main(argv if "--i" in argv else argv + ["--i", "1..2"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == "" and "error" in err
        assert calls == []

    def test_wick_size_limit_is_checked_before_any_method_runs(self, tmp_path, capsys, monkeypatch):
        calls = []
        route = wishart.expected_esf_closed_form

        def counted(params, i):
            calls.append(i)
            return route(params, i)

        monkeypatch.setattr(wishart, "expected_esf_closed_form", counted)
        sigma, out = tmp_path / "I3.csv", tmp_path / "report.json"
        sigma.write_text("1,0,0\n0,1,0\n0,0,1\n")
        code = main(
            ["compare", "--methods", "closed-form,umbral,wick", "--n", "4", "--p", "3"]
            + ["--sigma", str(sigma), "--i", "0..3", "--out", str(out)]
        )
        stdout, err = capsys.readouterr()
        # wick refuses i = 2 (p * n * i = 24 > 12), so no order runs any method
        assert (code, stdout, err) == (EXIT_NUMERICAL, "", "error: wick failed at i=2: wick oracle limit\n")
        assert not out.exists()
        assert calls == []

    def test_float_tolerance_is_relative_below_unit_scale(self, tmp_path, capsys, monkeypatch):
        # values near 1e-4 and 1e-8 that differ by 1e-6 relative are far
        # apart, although their absolute difference is below 1e-8
        route = wishart.expected_esf_umbral
        monkeypatch.setattr(wishart, "expected_esf_umbral", lambda params, i: route(params, i) * (1 + 1e-6))
        sigma = str(tmp_path / "s.csv")
        write_matrix_csv(sigma, ((1e-4, 0.0), (0.0, 1e-4)))
        code = main(
            ["compare", "--methods", "closed-form,umbral", "--n", "3", "--p", "2"]
            + ["--sigma", sigma, "--i", "1..2", "--no-timing"]
        )
        rows = json.loads(capsys.readouterr().out)["results"]
        assert code == EXIT_NUMERICAL
        assert [row["deviations"]["umbral"]["pass"] for row in rows] == [False, False]

    def test_two_float_zeros_agree(self, tmp_path, capsys):
        sigma = str(tmp_path / "s.csv")
        write_matrix_csv(sigma, ((1e-4, 0.0), (0.0, 1e-4)))
        code = main(
            ["compare", "--methods", "closed-form,umbral", "--n", "3", "--p", "2"]
            + ["--sigma", sigma, "--i", "3", "--no-timing"]
        )
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert code == EXIT_OK and row["values"] == {"closed-form": 0.0, "umbral": 0.0}

    def test_statistical_failure_exit_code(self, identity2, capsys):
        # 2 samples cannot match the exact value within 4 stderr every time;
        # scan a few seeds so at least one fails statistically
        saw_statistical_failure = False
        for seed in range(12):
            code = main(
                [
                    "compare",
                    "--methods",
                    "closed-form,mc",
                    "--n",
                    "3",
                    "--p",
                    "2",
                    "--sigma",
                    identity2,
                    "--i",
                    "2",
                    "--samples",
                    "2",
                    "--seed",
                    str(seed),
                    "--no-timing",
                ]
            )
            capsys.readouterr()
            if code == EXIT_STATISTICAL:
                saw_statistical_failure = True
                break
            assert code == EXIT_OK
        assert saw_statistical_failure

    def test_mc_with_enough_samples_passes(self, identity2, capsys):
        code = main(
            [
                "compare",
                "--methods",
                "closed-form,mc",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--i",
                "2",
                "--samples",
                "100000",
                "--seed",
                "31415",
                "--no-timing",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK


class TestNumpyFree:
    def test_float_dense_comparison_imports_no_numpy(self, tmp_path):
        # both exact routes clear float input to Fraction: no eigensolver, SVD
        # or numpy on a dense float covariance and mean
        sigma = [[2.0, 0.5, -0.25], [0.5, 1.5, 0.125], [-0.25, 0.125, 1.0]]
        mean = [[1.0, 0.3, -0.5, 0.25], [0.5, -0.7, 1.0, -1.0], [0.1, 0.2, 0.75, 2.0]]
        argv = ["compare", "--methods", "closed-form,umbral", "--n", "4", "--p", "3"]
        argv += ["--i", "1..3", "--no-timing", "--sigma", _write_csv(tmp_path / "s.csv", sigma)]
        argv += ["--m", _write_csv(tmp_path / "m.csv", mean)]
        script = (
            "import sys\n"
            "from wishart_esf import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True


class TestTable:
    def test_table_lists_all_methods(self, identity2, capsys):
        code = main(
            [
                "table",
                "--methods",
                "closed-form,umbral",
                "--n",
                "3",
                "--p",
                "2",
                "--sigma",
                identity2,
                "--i",
                "1..2",
                "--no-timing",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "table"
        assert len(payload["results"]) == 2


class TestSelftest:
    def test_full_battery_passes(self):
        result = run_cli(["selftest"])
        assert result.returncode == EXIT_OK
        assert "FAIL" not in result.stdout

    def test_filter(self):
        result = run_cli(["selftest", "--filter", "kernel-esf"])
        assert result.returncode == EXIT_OK
        lines = [l for l in result.stdout.splitlines() if l.startswith("PASS")]
        assert len(lines) == 1

    def test_unknown_filter_is_usage_error(self):
        result = run_cli(["selftest", "--filter", "zzz-no-such-check"])
        assert result.returncode == EXIT_USAGE

    def test_json_output(self):
        result = run_cli(["selftest", "--json", "--filter", "routes"])
        assert result.returncode == EXIT_OK
        payload = json.loads(result.stdout)
        assert payload["passed"] is True
        assert [r["name"] for r in payload["results"]] == ["routes-central", "routes-noncentral"]

    def test_other_commands_do_not_load_the_battery(self):
        script = "import sys, wishart_esf.cli\nassert 'wishart_esf.selftest' not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestDeterminism:
    def test_selftest_byte_identical(self):
        a = run_cli(["selftest", "--json"])
        b = run_cli(["selftest", "--json"])
        assert a.returncode == b.returncode == EXIT_OK
        assert a.stdout == b.stdout

    def test_seeded_mc_byte_identical(self, identity2):
        args = [
            "compute",
            "--method",
            "mc",
            "--n",
            "3",
            "--p",
            "2",
            "--sigma",
            identity2,
            "--i",
            "1..2",
            "--samples",
            "20000",
            "--seed",
            "777",
            "--no-timing",
        ]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == EXIT_OK
        assert a.stdout == b.stdout


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


@st.composite
def float_models(draw):
    """A valid float model as CSV text: ``L L^T + I`` covariance times a
    power of ten, and an optional dense mean."""
    p = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=p, max_value=p + 1))
    entries = st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False)
    low = draw(st.lists(st.lists(entries, min_size=p, max_size=p), min_size=p, max_size=p))
    scale = 10.0 ** draw(st.integers(min_value=-60, max_value=60))
    sigma = [
        [scale * (sum(low[r][k] * low[c][k] for k in range(p)) + (r == c)) for c in range(p)]
        for r in range(p)
    ]
    sigma = [[sigma[min(r, c)][max(r, c)] for c in range(p)] for r in range(p)]
    mean = draw(
        st.none() | st.lists(st.lists(entries, min_size=n, max_size=n), min_size=p, max_size=p)
    )
    return n, p, sigma, mean


def _write_csv(path: Path, rows) -> str:
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows))
    return str(path)


def _run_in_process(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buffer.getvalue()


class TestJsonOutputProperty:
    def test_huge_covariance_mc_report_is_valid_json(self, tmp_path):
        def scaled_identity(scale):
            rows = [[scale if r == c else 0.0 for c in range(3)] for r in range(3)]
            return _write_csv(tmp_path / f"{scale}.csv", rows)

        # e_3 of the samples near 1e153: squaring them overflows
        argv = ["compute", "--mode", "float", "--method", "mc", "--n", "3", "--p", "3"]
        argv += ["--i", "3", "--sigma", scaled_identity(1e51), "--samples", "1000", "--seed", "1"]
        code, out = _run_in_process(argv)
        assert code == EXIT_OK
        (result,) = json.loads(out, parse_constant=_reject_constant)["results"]
        assert 0 < result["stderr"] < result["value"]
        # standard errors near 1e156: compare combines two without squaring them
        argv = ["compare", "--mode", "float", "--methods", "closed-form,mc", "--n", "3", "--p", "3"]
        argv += ["--i", "3", "--sigma", scaled_identity(1e52), "--samples", "64", "--seed", "1"]
        code, out = _run_in_process(argv)
        assert code in (EXIT_OK, EXIT_STATISTICAL)
        assert json.loads(out, parse_constant=_reject_constant)["results"]

    def test_tiny_covariance_mc_comparison_passes(self, tmp_path):
        # e_3 near 6e-180: a standard error that underflowed to 0 would demand
        # equal values and fail the comparison
        rows = [[1e-60 if r == c else 0.0 for c in range(3)] for r in range(3)]
        sigma = _write_csv(tmp_path / "tiny.csv", rows)
        common = ["--mode", "float", "--n", "3", "--p", "3", "--i", "3", "--sigma", sigma]
        common += ["--samples", "1000", "--seed", "1"]
        code, out = _run_in_process(["compute", "--method", "mc", *common])
        assert code == EXIT_OK
        (result,) = json.loads(out, parse_constant=_reject_constant)["results"]
        assert 0 < result["stderr"] < result["value"]
        code, out = _run_in_process(["compare", "--methods", "closed-form,mc", *common])
        assert code == EXIT_OK and json.loads(out)["passed"] is True

    @given(
        float_models(),
        st.sampled_from(["closed-form", "umbral", "mc"]),
        st.sampled_from(["compute", "compare"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_reports_are_valid_json(self, model, method, command):
        n, p, sigma, mean = model
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, "--mode", "float", "--n", str(n), "--p", str(p), "--i", f"0..{p}"]
            argv += ["--sigma", _write_csv(Path(tmp) / "s.csv", sigma), "--samples", "64"]
            if mean is not None:
                argv += ["--m", _write_csv(Path(tmp) / "m.csv", mean)]
            if command == "compute":
                argv += ["--method", method]
            else:
                other = "umbral" if method == "closed-form" else method
                argv += ["--methods", f"closed-form,{other}"]
            code, out = _run_in_process(argv)
        assert code in (EXIT_OK, EXIT_STATISTICAL), argv
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["results"]


# consistent models, (n, p, covariance file, mean file or None)
_MODELS = [(3, 2, "I2", None), (2, 2, "F2", None), (3, 2, "F2", "M23"), (4, 3, "I3", "M34")]


def _mostly(draw, valid, invalid: list):
    """``valid`` four times in five draws, else one of ``invalid``."""
    return draw(st.sampled_from([valid] * 4 * len(invalid) + invalid))


@st.composite
def cli_argvs(draw, files: dict):
    """A ``compute``, ``compare`` or ``table`` argv over the CSV files in
    ``files``, each field valid four times in five, with small sample counts."""
    n, p, sigma, mean = draw(st.sampled_from(_MODELS))
    command = draw(st.sampled_from(["compute", "compare", "table"]))
    methods = st.sampled_from(["closed-form", "umbral", "wick", "mc"])
    if command == "compute":
        argv = [command, "--method", draw(methods)]
    else:
        names = draw(st.lists(methods, min_size=2, max_size=3, unique=True))
        argv = [command, "--methods", ",".join(_mostly(draw, names, [names[:1], names + ["bogus"]]))]
    argv += ["--n", str(_mostly(draw, n, [-1, p - 1, 10**19]))]
    argv += ["--p", str(_mostly(draw, p, [-1, 0, p + 1]))]
    argv += ["--sigma", files[_mostly(draw, sigma, ["I3" if p == 2 else "I2", "bad", "absent"])]]
    mean = _mostly(draw, mean, ["M34" if p == 2 else "M23", "bad"])
    if mean is not None:
        argv += ["--m", files[mean]]
    lo, hi = sorted(draw(st.lists(st.integers(min_value=0, max_value=p + 1), min_size=2, max_size=2)))
    order = draw(st.sampled_from([str(lo), f"{lo}..{hi}"]))
    bad_orders = [f"{hi}..{lo - 1}", f"-1..{hi}", f"0..{p + 2}", "0..10000000000000000000", "1..", "x"]
    argv += [f"--i={_mostly(draw, order, bad_orders)}"]
    argv += ["--samples", str(_mostly(draw, draw(st.integers(min_value=2, max_value=64)), [0, 1]))]
    argv += ["--seed", str(_mostly(draw, draw(st.integers(min_value=0, max_value=3)), [-1]))]
    mode = draw(st.sampled_from([None, "rational", "float"]))
    if mode is not None:
        argv += ["--mode", mode]
    if draw(st.booleans()):
        argv.append("--no-timing")
    return argv


class TestArgvProperty:
    # the CSV files are written once and only read, so examples may share them
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_argv_exits_with_a_code_and_valid_json(self, tmp_path, data):
        files = {
            "I2": "1,0\n0,1\n",
            "F2": "2.0,0.5\n0.5,1.5\n",
            "I3": "1,0,0\n0,1,0\n0,0,1\n",
            "M23": "1,0,1/2\n0,-2,0\n",
            "M34": "1,0,0,0\n0,1/3,0,0\n0,0,0,2\n",
            "bad": "1,2\n3\n",
        }
        paths = {"absent": str(tmp_path / "absent.csv")}
        for name, text in files.items():
            path = tmp_path / f"{name}.csv"
            if not path.exists():
                path.write_text(text)
            paths[name] = str(path)
        argv = data.draw(cli_argvs(paths))
        try:
            code, out = _run_in_process(argv)
        except SystemExit:
            return
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_STATISTICAL), argv
        if code == EXIT_OK:
            assert json.loads(out, parse_constant=_reject_constant)["results"], argv
