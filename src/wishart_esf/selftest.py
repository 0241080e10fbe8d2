"""Embedded desk-scale self checks, runnable from the CLI.

Each check is small, deterministic, and finishes in well under a second; the
full battery is the smoke-test counterpart of the pytest acceptance suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import combinatorics as comb
from . import linalg, oracles, wishart
from .matrix import UmbralMatrix
from .umbra import UmbralPolynomial, evaluate, indeterminates, singletons

__all__ = ["CheckResult", "run_selftest"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check_kernel_esf_law() -> str:
    p = 4
    ys = indeterminates("w", p)
    chi = singletons(p, prefix="st")
    combo = UmbralPolynomial.zero()
    for c, yv in zip(chi, ys):
        combo = combo + c * yv
    for i in range(0, p + 2):
        got = evaluate(combo.pow(i))
        expected = math.factorial(i) * UmbralPolynomial.coerce(
            comb.elementary_symmetric(ys, i)
        ) if i <= p else UmbralPolynomial.zero()
        assert got == expected
    return "singleton-weighted sums evaluate to i! times elementary symmetric polynomials"


def _check_central_identity_grid() -> str:
    for p in range(1, 4):
        for n in range(p, 5):
            params = wishart.WishartParams(n, p, linalg.identity(p))
            for i in range(1, p + 1):
                value = wishart.expected_esf_umbral(params, i)
                expected = Fraction(
                    comb.falling_factorial(n, i) * comb.falling_factorial(p, i),
                    math.factorial(i),
                )
                assert value == expected
    return "identity-covariance values match falling-factorial products"


def _check_routes_central() -> str:
    sigma_diag = ((Fraction(1), 0), (0, Fraction(2)))
    sigma_full = ((Fraction(5), Fraction(2)), (Fraction(2), Fraction(5)))
    for sigma in (sigma_diag, sigma_full):
        params = wishart.WishartParams(4, 2, sigma)
        for i in (1, 2):
            assert wishart.expected_esf_umbral(params, i) == wishart.expected_esf_closed_form(
                params, i
            )
    return "kernel and closed-form routes agree on central models"


def _check_routes_noncentral() -> str:
    sigma = ((Fraction(1, 4), 0, 0), (0, Fraction(1, 4), 0), (0, 0, Fraction(1, 4)))
    m = ((Fraction(1), 0, 0, 0), (0, Fraction(-2), 0, 0), (0, 0, Fraction(1, 2), 0))
    params = wishart.WishartParams(4, 3, sigma, m)
    for i in (1, 2, 3):
        assert wishart.expected_esf_umbral(params, i) == wishart.expected_esf_closed_form(
            params, i
        )
    return "kernel and closed-form routes agree on scaled-identity noncentral models"


def _check_first_cumulant_shape() -> str:
    params = wishart.WishartParams.symbolic(3, 2)
    c1 = wishart.trace_cumulant(params, 1)
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
    return "first cumulant matches its printed polynomial form"


def _check_closed_form_vs_pairings() -> str:
    sigma = ((Fraction(1), 0), (0, Fraction(2)))
    m = ((Fraction(1, 2), Fraction(1)), (Fraction(-1), Fraction(1, 3)))
    params = wishart.WishartParams(2, 2, sigma, m)
    for i in (1, 2):
        assert wishart.expected_esf_closed_form(params, i) == oracles.wick_expected_esf(params, i)
    return "closed form matches the exact pairing expansion"


def _check_matrix_identities() -> str:
    th = indeterminates("lam", 3)
    chi_mat = UmbralMatrix.diag(singletons(3, prefix="dm"))
    d_theta = UmbralMatrix.diag(th)
    product_trace = chi_mat.matmul(d_theta).trace()
    for i in range(0, 4):
        got = evaluate(product_trace.pow(i))
        want = math.factorial(i) * UmbralPolynomial.coerce(comb.elementary_symmetric(th, i))
        assert got == want
    assert evaluate(chi_mat.det()).as_scalar() == 1
    return "diagonal singleton matrices carve out elementary symmetric traces"


def _check_mc_reproducibility() -> str:
    params = wishart.WishartParams(3, 2, linalg.identity(2))
    a = oracles.mc_expected_esf(params, 2, samples=2000, seed=42)
    b = oracles.mc_expected_esf(params, 2, samples=2000, seed=42)
    assert a == b
    assert abs(a.value - 6.0) <= 4 * a.stderr
    return "seeded sampling is reproducible and lands near the exact value"


_CHECKS = [
    ("kernel-esf-law", _check_kernel_esf_law),
    ("central-identity-grid", _check_central_identity_grid),
    ("routes-central", _check_routes_central),
    ("routes-noncentral", _check_routes_noncentral),
    ("first-cumulant-shape", _check_first_cumulant_shape),
    ("closed-form-vs-pairings", _check_closed_form_vs_pairings),
    ("matrix-identities", _check_matrix_identities),
    ("mc-reproducibility", _check_mc_reproducibility),
]


def run_selftest(name_filter: str | None = None) -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the table
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
