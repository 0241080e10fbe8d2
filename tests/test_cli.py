import contextlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishart_esf.cli import (
    EXIT_OK,
    EXIT_STATISTICAL,
    EXIT_USAGE,
    main,
    parse_matrix_csv,
    write_matrix_csv,
)


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

    def test_missing_file_exits_one(self, tmp_path):
        result = run_cli(
            ["compute", "--n", "3", "--p", "2", "--sigma", str(tmp_path / "absent.csv"), "--i", "1"]
        )
        assert result.returncode == EXIT_USAGE
        assert "error" in result.stderr
        assert result.stdout == ""

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
        result = run_cli(["selftest", "--filter", "cross-term"])
        assert result.returncode == EXIT_OK
        lines = [l for l in result.stdout.splitlines() if l.startswith("PASS")]
        assert len(lines) == 1

    def test_unknown_filter_is_usage_error(self):
        result = run_cli(["selftest", "--filter", "zzz-no-such-check"])
        assert result.returncode == EXIT_USAGE

    def test_json_output(self):
        result = run_cli(["selftest", "--json", "--filter", "partition"])
        assert result.returncode == EXIT_OK
        payload = json.loads(result.stdout)
        assert payload["passed"] is True


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
