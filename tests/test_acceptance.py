"""Acceptance battery: one test per criterion, each at its stated scale and
tolerance, printing a PASS line when it holds.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Exact criteria compare ``Fraction`` values with ``==``; float
criteria use 1e-8 relative tolerance; statistical criteria use four standard
errors with fixed seeds (so reruns are deterministic — the seeds below were
not tuned, and the margins are wide).
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from random import Random

import numpy as np

from wishart_esf import linalg
from wishart_esf.combinatorics import complete_bell, elementary_symmetric, falling_factorial
from wishart_esf.oracles import mc_expected_esf, wick_expected_esf, wick_trace_moment
from wishart_esf.umbra import UmbralPolynomial, evaluate
from wishart_esf.wishart import (
    WishartParams,
    expected_esf_closed_form,
    expected_esf_umbral,
    trace_cumulant,
    trace_moment,
)

from conftest import (
    bell_coefficient,
    cycle_class_size,
    elementary_symmetric_via_bell,
    elementary_symmetric_via_cycle_classes,
    enumerate_partitions,
    float_matrix,
    float_spd,
    gaussian,
    k_statistics,
    rational_diag_spd,
    rational_full_spd,
    rational_matrix,
    rational_vector,
    rect_diag_matrix,
    singleton_cross_term_identity,
    substitute_all,
)

RTOL = 1e-8


def _close(a, b) -> bool:
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= RTOL * max(1.0, abs(fa), abs(fb))


def _report(cid: str, text: str) -> None:
    print(f"ACCEPTANCE {cid} PASS - {text}")


def test_c01_identity_covariance_falling_factorials():
    checked = 0
    for p in range(1, 5):
        for n in range(4, 7):
            if n < p:
                continue
            params = WishartParams(n, p, linalg.identity(p))
            for i in range(1, p + 1):
                got = expected_esf_umbral(params, i)
                want = Fraction(
                    falling_factorial(n, i) * falling_factorial(p, i), math.factorial(i)
                )
                assert got == want, (p, n, i)
                checked += 1
    _report("c01", f"identity covariance grid exact on {checked} instances")


def test_c02_central_any_covariance():
    rng = Random(20200107)
    checked = 0
    for trial in range(30):
        p = rng.randint(1, 4)
        n = rng.randint(max(p, 4), 6)
        sigma = rational_diag_spd(rng, p) if trial < 20 else rational_full_spd(rng, p)
        params = WishartParams(n, p, sigma)
        for i in range(1, p + 1):
            want = falling_factorial(n, i) * linalg.principal_minor_sum(sigma, i)
            umbral = expected_esf_umbral(params, i)
            closed = expected_esf_closed_form(params, i)
            assert umbral == want, (trial, i)
            assert closed == want, (trial, i)
            checked += 1
    _report("c02", f"central models exact on {checked} diagonal/full covariance cases")


def test_c03_scaled_identity_covariance():
    rng = Random(8128)
    exact_checked = 0
    for s2 in (Fraction(1), Fraction(1, 4), Fraction(9)):
        for _ in range(4):
            p = rng.randint(1, 3)
            n = rng.randint(p, 5)
            sigma = tuple(
                tuple(s2 if r == c else Fraction(0) for c in range(p)) for r in range(p)
            )
            m = rect_diag_matrix(rational_vector(rng, p, span=3, max_den=2), p, n)
            params = WishartParams(n, p, sigma, m)
            for i in range(1, p + 1):
                assert expected_esf_umbral(params, i) == expected_esf_closed_form(params, i)
                exact_checked += 1
    float_checked = 0
    for s2 in (1.0, 0.25, 9.0):
        for _ in range(3):
            p = rng.randint(2, 3)
            n = rng.randint(p, 5)
            sigma = tuple(tuple(s2 if r == c else 0.0 for c in range(p)) for r in range(p))
            m = float_matrix(rng, p, n)
            params = WishartParams(n, p, sigma, m)
            for i in range(1, p + 1):
                u = expected_esf_umbral(params, i)
                c = expected_esf_closed_form(params, i)
                assert _close(u, c), (s2, p, n, i, u, c)
                float_checked += 1
    _report(
        "c03",
        f"scaled identity covariance: {exact_checked} exact rect-diagonal cases, "
        f"{float_checked} dense-mean cases within 1e-8",
    )


def test_c04_full_order_determinant_route():
    rng = Random(65537)
    checked = 0
    for _ in range(6):
        p = rng.randint(1, 3)
        n = rng.randint(p, 5)
        sigma = float_spd(rng, p)
        m = float_matrix(rng, p, n)
        params = WishartParams(n, p, sigma, m)
        u = expected_esf_umbral(params, p)
        c = expected_esf_closed_form(params, p)
        assert _close(u, c), (p, n, u, c)
        checked += 1
    _report("c04", f"determinant-weighted route within 1e-8 on {checked} full-order cases")


def test_c05_general_form_vs_pairings_index_binding():
    rng = Random(940926)
    checked = 0
    for p in (1, 2):
        for n in range(p, 4):
            for _ in range(3):
                sigma = rational_diag_spd(rng, p)
                m = rational_matrix(rng, p, n, span=2, max_den=2)
                params = WishartParams(n, p, sigma, m)
                for i in range(1, min(p, 2) + 1):
                    assert expected_esf_closed_form(params, i) == wick_expected_esf(params, i), (
                        p,
                        n,
                        i,
                    )
                    checked += 1
    _report(
        "c05",
        f"closed form equals the pairing expansion on {checked} instances "
        "(inner elementary symmetric order bound to the outer index)",
    )


def test_c06_singleton_cross_term_identity():
    rng = Random(271828)
    checked = 0
    for _ in range(10):
        p = rng.randint(1, 4)
        n = rng.randint(p, 5)
        m = rational_vector(rng, p)
        for i in range(0, min(p, n) + 1):
            for j in range(0, i + 1):
                lhs, rhs = singleton_cross_term_identity(p, n, i, j, m)
                assert lhs == rhs, (p, n, i, j)
                checked += 1
    _report("c06", f"cross-term counting identity exact on {checked} (p, n, i, j) cases")


def test_c07_first_cumulant_worked_form():
    params = WishartParams.symbolic(3, 2)
    c1 = trace_cumulant(params, 1)
    y, x, th = params.y_vars, params.x_vars, params.theta_syms
    expected = UmbralPolynomial.zero()
    for l in range(2):
        for j in range(3):
            expected = expected + x[j] ** 2 * y[l] ** 2 * th[l]
    for l in range(2):
        for j in range(3):
            mval = params.m[l][j]
            expected = expected + y[l] ** 2 * mval * mval * x[j] ** 2
    assert c1 == expected
    assert len(dict(c1.terms())) == 12  # 6 latent + 6 mean monomials, none merged
    _report("c07", "first cumulant for n=3, p=2 matches the printed polynomial term for term")


def test_c08_trace_moment_vs_pairings():
    rng = Random(5772156)
    checked = 0
    for _ in range(5):
        sigma = rational_diag_spd(rng, 2)
        m = rational_matrix(rng, 2, 2, span=2, max_den=2)
        params = WishartParams(2, 2, sigma, m)
        yw = rational_vector(rng, 2, span=2, max_den=2)
        xw = rational_vector(rng, 2, span=2, max_den=2)
        for i in (1, 2):
            poly = substitute_all(trace_moment(params, i), params.y_vars + params.x_vars, yw + xw)
            assert poly.as_scalar() == wick_trace_moment(params, yw, xw, i), (i, yw, xw)
            checked += 1
    # a dense covariance, central and with a dense mean, at unequal weights
    rng = Random(186)
    for central in (True, False):
        sigma = rational_full_spd(rng, 2)
        m = None if central else rational_matrix(rng, 2, 2, span=2, max_den=2)
        params = WishartParams(2, 2, sigma, m)
        yw = rational_vector(rng, 2, span=2, max_den=2)
        xw = rational_vector(rng, 2, span=2, max_den=2)
        assert sigma[0][1] and (central or all(map(all, m)))
        assert 0 < yw[0] ** 2 != yw[1] ** 2 > 0 and 0 < xw[0] ** 2 != xw[1] ** 2 > 0
        for i in (1, 2):
            poly = substitute_all(trace_moment(params, i), params.y_vars + params.x_vars, yw + xw)
            assert poly.as_scalar() == wick_trace_moment(params, yw, xw, i), (central, i, yw, xw)
            checked += 1
    _report(
        "c08",
        f"squared-trace moments equal the pairing expansion on {checked} cases, "
        "4 of them on a dense covariance",
    )


def test_c09_quadratic_form_cumulants():
    rng = Random(1618033)
    for p in (1, 2, 3):
        theta = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(p)]
        sigma = tuple(
            tuple(theta[r] if r == c else Fraction(0) for c in range(p)) for r in range(p)
        )
        mvec = rational_vector(rng, p, span=2, max_den=2)
        # the law trace_cumulant applies, on the one column left by the column
        # weights (1, 0, ..., 0): WishartParams needs n >= p, so n = p, with
        # unit row weights and mvec as the first column of the mean
        params = WishartParams(p, p, sigma, [[v] + [0] * (p - 1) for v in mvec])
        weights = [1] * p + [1] + [0] * (p - 1)
        variables = params.y_vars + params.x_vars
        kappas = [
            substitute_all(trace_cumulant(params, k), variables, weights).as_scalar()
            for k in range(1, 5)
        ]

        # (i) kernel moments of the quadratic-form construction, Bell-mapped
        parts = [gaussian(mu, variance=theta[l], name=f"acc{p}{l}") for l, mu in enumerate(mvec)]
        total = UmbralPolynomial.zero()
        for g in parts:
            total = total + g * g
        for k in range(1, 5):
            assert evaluate(total.pow(k)).as_scalar() == complete_bell(kappas[:k]), (p, k)

        # (ii) Monte Carlo sample cumulants, batched k-statistics
        samples, batches = 1_000_000, 100
        rng_np = np.random.default_rng(4000 + p)
        scale = np.sqrt(np.array([float(t) for t in theta]))
        mean = np.array([float(v) for v in mvec])
        draws = mean + scale * rng_np.standard_normal((samples, p))
        q = np.sum(draws**2, axis=1)
        per_batch = q.reshape(batches, samples // batches)
        for k in range(1, 5):
            stats = np.array([k_statistics(chunk, k) for chunk in per_batch])
            est = float(np.mean(stats))
            stderr = float(np.std(stats, ddof=1) / math.sqrt(batches))
            assert abs(est - float(kappas[k - 1])) <= 4 * stderr, (p, k, est, kappas[k - 1])
    _report(
        "c09",
        "trace_cumulant on one column matches Gaussian-umbra moments through the "
        "Bell map exactly and Monte Carlo k-statistics within 4 standard errors "
        "(p = 1..3, 1e6 samples)",
    )


def test_c10_combinatorial_core():
    rng = Random(1287)
    for _ in range(100):
        p = rng.randint(1, 6)
        y = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p)]
        for i in range(0, min(p, 6) + 1):
            direct = elementary_symmetric(y, i)
            assert elementary_symmetric_via_bell(y, i) == direct
            assert elementary_symmetric_via_cycle_classes(y, i) == direct
    for i in range(1, 9):
        parts = enumerate_partitions(i)
        assert sum(cycle_class_size(q) for q in parts) == math.factorial(i)
        for q in parts:
            factor = 1
            for part, mult in q.parts:
                factor *= math.factorial(part - 1) ** mult
            assert bell_coefficient(q) * factor == cycle_class_size(q)
    _report(
        "c10",
        "elementary symmetric routes agree on 100 random vectors; partition identities "
        "hold through weight 8",
    )


def test_c11_monte_carlo_calibration():
    instances = [(2, 4, 1), (2, 4, 2), (3, 5, 3)]
    for p, n, i in instances:
        params = WishartParams(n, p, linalg.identity(p))
        exact = float(
            Fraction(falling_factorial(n, i) * falling_factorial(p, i), math.factorial(i))
        )
        hits = 0
        for seed in range(100):
            est = mc_expected_esf(params, i, samples=100_000, seed=seed)
            if abs(est.value - exact) <= 4 * est.stderr:
                hits += 1
        assert hits >= 96, (p, n, i, hits)
    _report(
        "c11",
        "seeded estimates within 4 standard errors on at least 96 of 100 seeds "
        f"for {len(instances)} identity-covariance instances",
    )


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wishart_esf", *args], capture_output=True, text=True
    )


def test_c12_determinism(tmp_path):
    first = _run_cli(["selftest", "--json"])
    second = _run_cli(["selftest", "--json"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["passed"] is True

    sigma_path = tmp_path / "I2.csv"
    sigma_path.write_text("1,0\n0,1\n")
    args = [
        "compute",
        "--method",
        "mc",
        "--n",
        "3",
        "--p",
        "2",
        "--sigma",
        str(sigma_path),
        "--i",
        "1..2",
        "--samples",
        "50000",
        "--seed",
        "90210",
        "--no-timing",
    ]
    runs = [_run_cli(args) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    _report("c12", "self test and seeded sampling reports are byte-identical across runs")
