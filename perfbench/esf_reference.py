"""Exact reference values for E[e_i(W)], W = X X^T, X ~ N(M, Sigma, I_n).

Uses the identity

    E[e_i(W)] = sum_{k=0..i} (n-k)_(i-k) * [t^k] e_i(Sigma + t M M^T),

with e_i of a matrix taken from its characteristic polynomial
(Faddeev-LeVerrier over ``Fraction``) and the polynomial in ``t`` recovered
by exact Lagrange interpolation at t = 0..i.  Shares no code with
``wishart_esf``, so it is an independent check of both of its routes.
"""

from __future__ import annotations

from fractions import Fraction


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def esf_all(a) -> list[Fraction]:
    """[e_0(A), ..., e_p(A)]: elementary symmetric functions of the
    eigenvalues of a square rational matrix, via Faddeev-LeVerrier."""
    p = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    # det(tI - A) = sum_k c[k] t^(p-k); e_k = (-1)^k c[k]
    c = [Fraction(1)] + [Fraction(0)] * p
    m = [[Fraction(0)] * p for _ in range(p)]
    for k in range(1, p + 1):
        for r in range(p):
            m[r][r] += c[k - 1]
        am = _matmul(a, m)
        c[k] = -sum(am[r][r] for r in range(p)) / k
        m = am
    return [c[k] if k % 2 == 0 else -c[k] for k in range(p + 1)]


def _falling(n: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= n - j
    return out


def _interpolate(values: list[Fraction]) -> list[Fraction]:
    """Coefficients (lowest degree first) of the polynomial of degree
    < len(values) taking ``values[j]`` at t = j."""
    d = len(values)
    coeffs = [Fraction(0)] * d
    for j, yj in enumerate(values):
        if yj == 0:
            continue
        basis = [Fraction(1)]
        denom = 1
        for q in range(d):
            if q == j:
                continue
            # multiply basis by (t - q)
            basis = [Fraction(0)] + basis
            for idx in range(len(basis) - 1):
                basis[idx] -= q * basis[idx + 1]
            denom *= j - q
        for idx, b in enumerate(basis):
            coeffs[idx] += yj * b / denom
    return coeffs


def expected_esf_profile(n: int, sigma, m=None) -> list[Fraction]:
    """[E e_1(W), ..., E e_p(W)] exactly, for rational ``sigma`` (p x p) and
    mean ``m`` (p x n, or None for the central model)."""
    p = len(sigma)
    sigma = [[Fraction(x) for x in row] for row in sigma]
    if m is None:
        e = esf_all(sigma)
        return [_falling(n, i) * e[i] for i in range(1, p + 1)]
    m = [[Fraction(x) for x in row] for row in m]
    mmt = _matmul(m, [list(col) for col in zip(*m)])
    # e_i(Sigma + t MM^T) at t = 0..p, one characteristic polynomial per t
    at_t = [
        esf_all([[sigma[r][c] + t * mmt[r][c] for c in range(p)] for r in range(p)])
        for t in range(p + 1)
    ]
    out = []
    for i in range(1, p + 1):
        coeffs = _interpolate([at_t[t][i] for t in range(i + 1)])
        out.append(sum(_falling(n - k, i - k) * coeffs[k] for k in range(i + 1)))
    return out
