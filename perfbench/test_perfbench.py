"""Fast checks of the benchmark itself: its exact reference, its per-op
checks and its tracer.  Nothing here measures or asserts timing."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import run
import tracing
import workloads
from esf_reference import esf_all, expected_esf_profile
from wishart_esf import oracles, wishart
from wishart_esf.oracles import Estimate

HERE = Path(__file__).resolve().parent


def _spd(rng, p):
    return workloads._spd(rng, p, (1, 2))


def _mean(rng, p, n):
    return tuple(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)) for _ in range(p))


class TestReference:
    @pytest.mark.parametrize("p,n", [(1, 1), (2, 3), (3, 3), (4, 7)])
    def test_identity_covariance_hand_formula(self, p, n):
        identity = [[int(r == c) for c in range(p)] for r in range(p)]
        expected = [math.perm(n, i) * math.comb(p, i) for i in range(1, p + 1)]
        assert expected_esf_profile(n, identity) == expected

    def test_char_poly_of_triangular_matrix(self):
        a = [[2, 5, 7], [0, 3, 1], [0, 0, Fraction(1, 2)]]
        assert esf_all(a) == [1, Fraction(11, 2), Fraction(17, 2), 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairing_oracle_on_tiny_instances(self, seed):
        rng = Random(seed)
        p = rng.randint(1, 2)
        n = rng.randint(p, 3)
        sigma = _spd(rng, p)
        m = _mean(rng, p, n) if seed % 2 else None
        params = wishart.WishartParams(n, p, sigma, m)
        reference = expected_esf_profile(n, sigma, m)
        for i in range(1, p + 1):
            if p * n * i <= oracles.WICK_DEGREE_LIMIT:
                assert oracles.wick_expected_esf(params, i) == reference[i - 1]


def _ops_against(reference, output, check):
    return [workloads.Op("case", lambda: output, lambda out: check(out, reference))]


class TestChecks:
    def test_exact_check_counts_perturbed_value_as_failed(self):
        reference = (Fraction(3), Fraction(7, 2))
        good = workloads.run_pass(_ops_against(reference, [3, Fraction(7, 2)], workloads.check_exact), rounds=2)
        assert (good.attempted, good.failed) == (2, 0)
        perturbed = [3, Fraction(7, 2) + Fraction(1, 10**9)]
        bad = workloads.run_pass(_ops_against(reference, perturbed, workloads.check_exact), rounds=2)
        assert (bad.attempted, bad.failed) == (2, 2)

    def test_exact_check_rejects_float_equal_in_value(self):
        assert not workloads.check_exact([3.0], (Fraction(3),))

    def test_mc_check_uses_four_standard_errors(self):
        reference = (Fraction(0), Fraction(0), Fraction(10))
        inside = Estimate(value=10.39, stderr=0.1, samples=100, seed=1)
        outside = Estimate(value=10.41, stderr=0.1, samples=100, seed=1)
        assert workloads.check_mc(inside, reference, 3)
        assert not workloads.check_mc(outside, reference, 3)

    def _report(self, values, passed=True):
        rows = [{"i": i, "values": {"closed-form": v, "umbral": v}} for i, v in enumerate(values, 1)]
        return json.dumps({"results": rows, "passed": passed}, allow_nan=True)

    def test_cli_check(self):
        reference = (Fraction(5, 2), Fraction(100))
        methods = ("closed-form", "umbral")
        assert workloads.check_cli((0, self._report([2.5, 100.0])), reference, methods)
        assert not workloads.check_cli((0, self._report([2.5, 100.0 * (1 + 1e-7)])), reference, methods)
        assert not workloads.check_cli((2, self._report([2.5, 100.0])), reference, methods)
        assert not workloads.check_cli((0, self._report([2.5, 100.0], passed=False)), reference, methods)
        assert not workloads.check_cli((0, self._report([2.5, float("nan")])), reference, methods)
        assert not workloads.check_cli((0, "not json"), reference, methods)
        assert not workloads.check_cli((0, '{"passed": true, "results": [{"i": 1}]}'), reference, methods)

    def test_raising_op_counts_as_failed(self):
        def boom():
            raise ArithmeticError("kernel invariant")

        result = workloads.run_pass([workloads.Op("boom", boom, lambda out: True)], rounds=3)
        assert (result.attempted, result.failed) == (3, 3)

    def test_result_line_is_correct_only_if_no_op_failed(self):
        assert run.report(workloads.PassResult([0.1, 0.1], 0, 0.2), {})["correct"] is True
        assert run.report(workloads.PassResult([0.1, 0.1], 1, 0.2), {})["correct"] is False
        assert run.report(workloads.PassResult([], 0, 0.0), {})["correct"] is False


class TestTracer:
    def _traced_counts(self):
        rng = Random(7)
        params = wishart.WishartParams(3, 2, _spd(rng, 2), _mean(rng, 2, 3))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            values = [wishart.expected_esf_umbral(params, i) for i in (1, 2)]
        finally:
            tracer.uninstall()
        return tracer, values

    def test_counts_repeat_and_originals_are_restored(self):
        original = wishart.expected_esf_umbral
        first, values = self._traced_counts()
        second, again = self._traced_counts()
        assert wishart.expected_esf_umbral is original
        assert values == again
        assert dict(first.counts) == dict(second.counts)
        assert first.layer_times()[0] == second.layer_times()[0]
        assert first.counts["umbra.mul.term_pairs"] >= first.counts["umbra.mul.terms_kept"] > 0

    def test_self_time_excludes_children(self):
        tracer, _ = self._traced_counts()
        calls, total, own = tracer.layer_times()
        assert calls["wishart.expected_esf_umbral"] == 2
        assert 0 <= own["wishart.expected_esf_umbral"] <= total["wishart.expected_esf_umbral"]
        passed = workloads.PassResult([0.5, 0.5], 0, 1.0)
        metrics = tracer.metrics(passed, passed, cli_import_ms=0.0)
        assert [name for name, _ in tracing.PER_LAYER] == list(metrics)

    def test_missing_target_raises(self):
        with pytest.raises(AttributeError):
            tracing.Tracer().wrap("umbra.gone", [(wishart, "no_such_function")])


def test_run_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "umbral_exact", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
