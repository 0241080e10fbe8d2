"""Noncentral Wishart parameters, squared-trace cumulants, and the two routes
to the expected elementary symmetric functions of the latent roots.

Both routes use ``E[e_i(W)] = sum_k a_k [t^k] e_i(Sigma + t M M^T)``, where
the coefficients ``a_k`` depend only on ``n`` and ``i``.  The umbral route
reads them off the symbolic kernel run on a canonical problem: the cumulant
sequence of the weighted squared trace ``tr[(D_y X D_x)(D_y X D_x)^T]``,
assembled into moments through complete Bell polynomials, with 1,0,1,0,...
umbrae plugged into the weights, so that the evaluation functional deletes
every monomial that does not contribute to an elementary symmetric function.
It takes ``[t^k] e_i`` from the traces of the powers of the polynomial
matrix ``Sigma + t M M^T`` and Newton's identities.  The closed-form route
uses ``a_k = (n-k)_(i-k)`` and the division-free characteristic polynomial.
Both are exact, and correctly rounded in float mode.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .combinatorics import (
    complete_bell,
    elementary_symmetric,
    falling_factorial,
)
from .matrix import UmbralMatrix
from .umbra import (
    Indeterminate,
    UmbralPolynomial,
    deltas,
    evaluate,
    falling,
    indeterminates,
    singletons,
)

__all__ = [
    "WishartParams",
    "central_cumulant",
    "mean_cumulant",
    "trace_cumulant",
    "trace_moment",
    "expected_esf_umbral",
    "expected_esf_closed_form",
    "noncentral_chisq_cumulant",
    "singleton_cross_term_identity",
]

SYMMETRY_TOL = 1e-12


class WishartParams:
    """Degrees of freedom, dimension, row covariance and mean of ``W = X X^T``.

    ``sigma`` must be symmetric positive definite with ``n >= p``; ``m`` is a
    ``p x n`` mean matrix or ``None`` for the central case.  Entries decide
    the arithmetic mode: all int/Fraction means exact rational, any float
    means floating point.  ``symbolic()`` builds a validation-free variant
    whose diagonal covariance entries and mean entries are indeterminates,
    for inspecting cumulants as printable polynomials.
    """

    def __init__(self, n: int, p: int, sigma, m=None, *, validate: bool = True) -> None:
        self.n = int(n)
        self.p = int(p)
        self.sigma = linalg.freeze(sigma)
        self.m = linalg.freeze(m) if m is not None else None
        self.symbolic_mode = any(
            isinstance(x, UmbralPolynomial) for row in self.sigma for x in row
        )
        if validate and not self.symbolic_mode:
            self._validate()

    @classmethod
    def symbolic(cls, n: int, p: int) -> "WishartParams":
        theta = indeterminates("th", p)
        sigma = [
            [theta[r]._lift() if r == c else UmbralPolynomial.zero() for c in range(p)]
            for r in range(p)
        ]
        m = [
            [Indeterminate(f"m{r + 1}{c + 1}")._lift() for c in range(n)] for r in range(p)
        ]
        params = cls(n, p, sigma, m, validate=False)
        params._theta_syms = theta
        return params

    def _validate(self) -> None:
        if self.p < 1 or self.n < self.p:
            raise ValueError("need n >= p >= 1")
        if not all(math.isfinite(x) for row in self.sigma + (self.m or ()) for x in row):
            raise ValueError("covariance and mean entries must be finite")
        if linalg.shape(self.sigma) != (self.p, self.p):
            raise ValueError("covariance must be p x p")
        tol = 0.0 if self.mode == "rational" else SYMMETRY_TOL * max(
            [1.0] + [abs(x) for row in self.sigma for x in row]
        )
        if not linalg.is_symmetric(self.sigma, tol):
            raise ValueError("covariance must be symmetric")
        if not linalg.is_positive_definite(self.sigma):
            raise ValueError("covariance must be positive definite")
        if self.m is not None and linalg.shape(self.m) != (self.p, self.n):
            raise ValueError("mean must be p x n")

    # -- structure ------------------------------------------------------------

    @cached_property
    def mode(self) -> str:
        if self.symbolic_mode:
            return "symbolic"
        return "rational" if linalg.is_rational_matrix(self.sigma + (self.m or ())) else "float"

    @property
    def sigma_is_diagonal(self) -> bool:
        return linalg.is_diagonal(self.sigma)

    @cached_property
    def y_vars(self) -> list[Indeterminate]:
        return indeterminates("y", self.p)

    @cached_property
    def x_vars(self) -> list[Indeterminate]:
        return indeterminates("x", self.n)

    @cached_property
    def theta_syms(self) -> list[Indeterminate]:
        if hasattr(self, "_theta_syms"):
            return self._theta_syms
        return indeterminates("th", self.p)

    def omega(self) -> tuple:
        """Noncentrality matrix ``sigma^{-1} M M^T``."""
        if self.m is None:
            raise ValueError("central model has no noncentrality matrix")
        mmt = linalg.mat_mul(self.m, linalg.transpose(self.m))
        return linalg.mat_mul(linalg.inverse(self.sigma), mmt)

    def __repr__(self) -> str:
        return f"WishartParams(n={self.n}, p={self.p}, mode={self.mode})"


# -- cumulants of the weighted squared trace ---------------------------------


def _lift_all(values: Sequence) -> list[UmbralPolynomial]:
    return [UmbralPolynomial.coerce(v) for v in values]


def _power(value, k: int, prune: bool):
    if isinstance(value, UmbralPolynomial):
        return value.pow(k, prune=prune)
    return value**k


def _central_terms(
    k: int, yv: Sequence, xv: Sequence, theta: Sequence, prune: bool = True
) -> UmbralPolynomial:
    # (k-1)! 2^(k-1) * (sum_j x_j^(2k)) * (sum_l y_l^(2k) theta_l^k)
    xs = UmbralPolynomial.zero()
    for x in xv:
        xs = xs + _power(x, 2 * k, prune)
    ys = UmbralPolynomial.zero()
    for y, th in zip(yv, theta):
        ys = ys + _power(y, 2 * k, prune) * _power(th, k, prune)
    factor = math.factorial(k - 1) * 2 ** (k - 1)
    return xs.mul(ys, prune=prune).scale(factor)


def _mean_terms(
    k: int,
    yv: Sequence,
    xv: Sequence,
    m: Sequence[Sequence] | None,
    sigma: Sequence[Sequence],
    prune: bool = True,
) -> UmbralPolynomial:
    if m is None or all(
        not isinstance(x, UmbralPolynomial) and x == 0 for row in m for x in row
    ):
        return UmbralPolynomial.zero()
    p, n = len(m), len(m[0])
    if k == 1:
        total = UmbralPolynomial.zero()
        for l in range(p):
            for j in range(n):
                mlj = m[l][j]
                if not isinstance(mlj, UmbralPolynomial) and mlj == 0:
                    continue
                term = _power(yv[l], 2, prune).mul(_power(xv[j], 2, prune), prune=prune)
                term = term.mul(_power(mlj, 2, prune), prune=prune)
                total = total + term
        return total
    # k > 1: block-diagonal structure of the Kronecker factor reduces the
    # quadratic form to one p x p polynomial matrix power per column.
    st_entries = []
    for a in range(p):
        row = []
        for b in range(p):
            sab = sigma[a][b]
            if not isinstance(sab, UmbralPolynomial) and sab == 0:
                row.append(UmbralPolynomial.zero())
            else:
                row.append(
                    UmbralPolynomial.coerce(yv[a]).mul(
                        UmbralPolynomial.coerce(yv[b]), prune=prune
                    )
                    * sab
                )
        st_entries.append(row)
    st = UmbralMatrix.from_rows(st_entries)
    st_k = st.matpow(k - 1, prune=prune)
    total = UmbralPolynomial.zero()
    for j in range(n):
        col = []
        for l in range(p):
            mlj = m[l][j]
            if not isinstance(mlj, UmbralPolynomial) and mlj == 0:
                col.append(UmbralPolynomial.zero())
            else:
                col.append(
                    UmbralPolynomial.coerce(yv[l]).mul(
                        UmbralPolynomial.coerce(xv[j]), prune=prune
                    )
                    * mlj
                )
        quad = UmbralPolynomial.zero()
        for a in range(p):
            if col[a].is_zero:
                continue
            for b in range(p):
                if col[b].is_zero:
                    continue
                quad = quad + col[a].mul(st_k.get(a, b), prune=prune).mul(col[b], prune=prune)
        if quad.is_zero:
            continue
        total = total + _power(xv[j], 2 * (k - 1), prune).mul(quad, prune=prune)
    factor = math.factorial(k) * 2 ** (k - 1)
    return total.scale(factor)


def central_cumulant(params: WishartParams, k: int) -> UmbralPolynomial:
    """k-th cumulant of the weighted squared trace for the central part: a
    polynomial in the weight indeterminates ``y``, ``x`` with latent-root
    coefficients, the diagonal of a diagonal covariance and the symbols
    ``theta_syms`` otherwise."""
    if k < 1:
        raise ValueError("cumulant order must be positive")
    if params.sigma_is_diagonal:
        theta = [params.sigma[l][l] for l in range(params.p)]
    else:
        theta = _lift_all(params.theta_syms)
    yv = _lift_all(params.y_vars)
    xv = _lift_all(params.x_vars)
    return _central_terms(k, yv, xv, theta)


def mean_cumulant(params: WishartParams, k: int) -> UmbralPolynomial:
    """Mean contribution to the k-th cumulant; identically zero when the mean
    matrix vanishes."""
    if k < 1:
        raise ValueError("cumulant order must be positive")
    yv = _lift_all(params.y_vars)
    xv = _lift_all(params.x_vars)
    return _mean_terms(k, yv, xv, params.m, params.sigma)


def trace_cumulant(params: WishartParams, k: int) -> UmbralPolynomial:
    return central_cumulant(params, k) + mean_cumulant(params, k)


def trace_moment(params: WishartParams, i: int) -> UmbralPolynomial:
    """i-th raw moment of the weighted squared trace: the complete Bell
    polynomial in the first ``i`` cumulants, computed over the polynomial
    ring."""
    if i < 1:
        raise ValueError("moment order must be positive")
    cumulants = [trace_cumulant(params, k) for k in range(1, i + 1)]
    return complete_bell(cumulants)


# -- the symbolic route to expected elementary symmetric functions -----------


def guard_order(route):
    """Shared entry of the routes to ``E[e_i(W)]``.

    Rejects symbolic parameter sets and negative orders, answers ``i = 0``
    (one) and ``i > p`` (zero) without calling the route, and returns a value
    whose type follows ``params.mode``: a float in float mode, a ``Fraction``
    in rational mode.
    """

    @functools.wraps(route)
    def guarded(params: WishartParams, i: int):
        if params.symbolic_mode:
            raise ValueError("symbolic parameter sets cannot be evaluated numerically")
        if i < 0:
            raise ValueError("order must be nonnegative")
        value = route(params, i) if 1 <= i <= params.p else int(i == 0)
        return float(value) if params.mode == "float" else Fraction(value)

    return guarded


def _canonical_kernel(n: int, i: int, j: int) -> int:
    """``i! E[e_i(W)]`` for the canonical problem: identity covariance, ``i``
    rows, and the ``i x n`` mean with ones at the first ``j`` diagonal places.

    Under 1,0,1,0,... weights every cumulant past the first vanishes, so the
    Bell combination is ``c_1^i``.  Each of the ``j`` mean pairs keeps a delta
    umbra for its row and one for its column.  The mean-free rows are
    exchangeable, and so are the free columns: the sum of the squared
    weights of ``k`` of them is the dot-product umbra ``k.chi`` of Di Nardo &
    Senato (Eur. J. Combin. 27, 2006), one ``falling(k)`` umbra with the
    falling factorials ``(k)_r`` as moments.
    """
    ys = [y.mul(y) for y in _lift_all(deltas(j, prefix="dy"))]
    xs = [x.mul(x) for x in _lift_all(deltas(j, prefix="dx"))]
    pairs = sum((y.mul(x) for y, x in zip(ys, xs)), UmbralPolynomial.zero())
    if i > j:
        ys.append(falling(i - j, name="fy")._lift())
    if n > j:
        xs.append(falling(n - j, name="fx")._lift())
    c1 = sum(ys, UmbralPolynomial.zero()).mul(sum(xs, UmbralPolynomial.zero())) + pairs
    return evaluate(complete_bell([c1] + [0] * (i - 1))).as_scalar()


def _esf_from_traces(sums: list[list[int]], i: int) -> list[int]:
    """Coefficients, lowest degree first, of ``e_i`` of the latent roots of an
    integer matrix polynomial, from the traces ``sums`` of its first ``i``
    powers by Newton's identities ``k e_k = sum_r (-1)^(r-1) e_(k-r) p_r``;
    ``e_k`` has integer coefficients, so the division by ``k`` is exact."""
    degree = len(sums[0]) - 1
    e = [[1]]
    for k in range(1, i + 1):
        acc = [0] * (k * degree + 1)
        for r in range(1, k + 1):
            sign = 1 if r % 2 else -1
            for u, x in enumerate(e[k - r]):
                for v, y in enumerate(sums[r - 1]):
                    acc[u + v] += sign * x * y
        e.append([c // k for c in acc])
    return e[i]


@guard_order
def expected_esf_umbral(params: WishartParams, i: int):
    """Expected i-th elementary symmetric function of the latent roots of
    ``W = X X^T`` via the symbolic kernel, one path for every input:
    ``E[e_i(W)] = s^-i sum_k a_k [t^k] e_i(A + t B)``, where ``A = s Sigma``
    and ``B = s M M^T`` are integer matrices and ``a_k`` depends on ``n``
    and ``i`` only.

    The kernel run on the canonical problem with ``j`` unit mean pairs gives
    ``v_j = i! sum_k C(j, k) a_k``, since ``e_i(I + t diag(1^j, 0)) =
    (1 + t)^j``; binomial inversion recovers ``i! a_k`` for ``k`` up to the
    degree of ``e_i(A + t B)`` in ``t``, so central input needs one run.
    ``[t^k] e_i`` comes from the traces of the powers of ``A + t B`` and
    Newton's identities, with no eigensolver and no factorization.  Float
    input is cleared like rational input, so the value is exact, and
    correctly rounded in float mode.
    """
    n, p = params.n, params.p
    m = [[Fraction(x).as_integer_ratio() for x in row] for row in params.m or ((0,) * n,) * p]
    sigma = [[Fraction(x).as_integer_ratio() for x in row] for row in params.sigma]
    # clear the mean's denominators first, so that M M^T is an integer product
    d = math.lcm(*(q for row in m for _, q in row))
    mi = [[u * (d // q) for u, q in row] for row in m]
    s = math.lcm(d * d, *(q for row in sigma for _, q in row))
    a = [[u * (s // q) for u, q in row] for row in sigma]
    b = [[s // (d * d) * x for x in row] for row in linalg.mat_mul(mi, linalg.transpose(mi))]
    esf = _esf_from_traces(linalg.power_sums([a, b] if any(map(any, b)) else [a], i), i)
    while esf[-1] == 0:
        esf.pop()
    values = [_canonical_kernel(n, i, j) for j in range(len(esf))]
    total = 0
    for k, c in enumerate(esf):
        # i! a_k by binomial inversion of the runs j <= k
        total += c * sum((-1) ** (k - j) * math.comb(k, j) * values[j] for j in range(k + 1))
    return Fraction(total, math.factorial(i) * s**i)


# -- closed forms -------------------------------------------------------------


def _integer_polynomial(values: list[int]) -> list[int]:
    """Coefficients, lowest degree first, of the integer polynomial of degree
    below ``len(values)`` that takes ``values[t]`` at ``t = 0, 1, ...``.

    Newton's forward differences: ``f(t) = sum_j D^j f(0) (t)_j / j!``, and
    ``j!`` divides ``D^j f(0)`` when ``f`` has integer coefficients.
    """
    coeffs = [0] * len(values)
    basis = [1]  # the falling factorial (t)_j, lowest degree first
    for j in range(len(values)):
        step = values[0] // math.factorial(j)
        for k, b in enumerate(basis):
            coeffs[k] += step * b
        values = [b - a for a, b in zip(values, values[1:])]
        basis = [x - j * y for x, y in zip([0] + basis, basis + [0])]
    return coeffs


@guard_order
def expected_esf_closed_form(params: WishartParams, i: int):
    """Expected i-th elementary symmetric function of the latent roots via
    ``E[e_i(W)] = sum_k (n-k)_(i-k) [t^k] e_i(Sigma + t M M^T)``, one path
    for every regime.

    Denominators are cleared once (``Fraction`` is exact for floats too):
    with ``s`` the common denominator of ``Sigma`` and ``M M^T``,
    ``e_i(s Sigma + t s M M^T)`` is an integer polynomial of degree at most
    ``i`` in ``t``, recovered exactly from :func:`linalg.charpoly` at
    ``t = 0..i``.  The value is exact, and in float mode it is the correctly
    rounded value for the float inputs.
    """
    n = params.n
    m = [[Fraction(x) for x in row] for row in params.m or ((0,) * n,) * params.p]
    mmt = linalg.mat_mul(m, linalg.transpose(m))
    sigma = [[Fraction(x) for x in row] for row in params.sigma]
    s = math.lcm(*(x.denominator for a in (sigma, mmt) for row in a for x in row))
    values = [
        linalg.charpoly(
            [[int(s * (x + t * y)) for x, y in zip(r1, r2)] for r1, r2 in zip(sigma, mmt)]
        )[i]
        for t in range(i + 1)
    ]
    coeffs = _integer_polynomial(values)
    return Fraction(sum(falling_factorial(n - k, i - k) * c for k, c in enumerate(coeffs)), s**i)


# -- scalar quadratic form cumulants ------------------------------------------


def noncentral_chisq_cumulant(sigma, m: Sequence, k: int):
    """k-th cumulant of ``|X|^2`` for ``X ~ N(m, sigma)``:
    ``(k-1)! 2^{k-1} [tr(sigma^k) + k m^T sigma^{k-1} m]``."""
    if k < 1:
        raise ValueError("cumulant order must be positive")
    sigma = linalg.freeze(sigma)
    power_k = linalg.mat_pow(sigma, k)
    power_km1 = linalg.mat_pow(sigma, k - 1)
    quad = linalg.quadratic_form(m, power_km1, m)
    return math.factorial(k - 1) * 2 ** (k - 1) * (linalg.trace(power_k) + k * quad)


# -- the cross-term identity behind the scalar-covariance expansion ----------


def singleton_cross_term_identity(p: int, n: int, i: int, j: int, m: Sequence):
    """Kernel evaluation of the double singleton cross-term sum against its
    counting formula ``C(n-j, i-j) C(p-j, i-j) e_j(m^2)``.

    Returns the pair ``(kernel value, counting value)``; the two must agree.
    """
    if not (0 <= j <= i <= min(p, n)):
        raise ValueError("need 0 <= j <= i <= min(p, n)")
    if len(m) != p:
        raise ValueError("m must have length p")
    chi = singletons(p, prefix="cy")
    chit = singletons(n, prefix="cx")
    total = UmbralPolynomial.zero()
    for fixed in itertools.combinations(range(p), j):
        anchor = UmbralPolynomial.one()
        skip = False
        for kk in fixed:
            weight = m[kk] * m[kk]
            if weight == 0:
                skip = True
                break
            anchor = anchor.mul(chi[kk]._lift()).mul(chit[kk]._lift()).scale(weight)
        if skip:
            continue
        rest_rows = [t for t in range(p) if t not in fixed]
        rest_cols = [s for s in range(n) if s not in fixed]
        sum_rows = UmbralPolynomial.zero()
        for combo in itertools.combinations(rest_rows, i - j):
            term = UmbralPolynomial.one()
            for t in combo:
                term = term.mul(chi[t]._lift())
            sum_rows = sum_rows + term
        sum_cols = UmbralPolynomial.zero()
        for combo in itertools.combinations(rest_cols, i - j):
            term = UmbralPolynomial.one()
            for s in combo:
                term = term.mul(chit[s]._lift())
            sum_cols = sum_cols + term
        total = total + anchor.mul(sum_rows).mul(sum_cols)
    kernel_value = evaluate(total).as_scalar()
    counting_value = (
        math.comb(n - j, i - j)
        * math.comb(p - j, i - j)
        * elementary_symmetric([v * v for v in m], j)
    )
    return kernel_value, counting_value
