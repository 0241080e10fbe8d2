"""Noncentral Wishart parameters, squared-trace cumulants, and the two routes
to the expected elementary symmetric functions of the latent roots.

The symbolic route builds the cumulant sequence of the weighted squared trace
``tr[(D_y X D_x)(D_y X D_x)^T]``, assembles its moments through complete Bell
polynomials, plugs 1,0,1,0,... umbrae into the weights, and lets the
evaluation functional delete every monomial that does not contribute to an
elementary symmetric function.  The columns the mean does not touch share one
falling-factorial umbra, and cumulants past the first, which those weights
delete, are never built.  The closed-form route is one identity,
``E[e_i(W)] = sum_k (n-k)_(i-k) [t^k] e_i(Sigma + t M M^T)``, evaluated with
the division-free characteristic polynomial.  The two agree exactly in
rational regimes and to float precision where an SVD is unavoidable.
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
    divide_by_factorial,
    elementary_symmetric,
    elementary_symmetric_from_power_sums,
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
    def mean_is_zero(self) -> bool:
        return self.m is None or all(x == 0 for row in self.m for x in row)

    @property
    def sigma_is_diagonal(self) -> bool:
        return linalg.is_diagonal(self.sigma)

    @property
    def sigma_scalar(self):
        """sigma^2 if the covariance is a scalar multiple of the identity."""
        return linalg.scalar_identity_value(self.sigma)

    @property
    def mean_is_rect_diagonal(self) -> bool:
        if self.m is None:
            return False
        return all(
            self.m[r][c] == 0 for r in range(self.p) for c in range(self.n) if r != c
        )

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

    def resolve_theta(self) -> tuple[list, bool]:
        """Latent-root weights for the central cumulant: exact numbers when
        the covariance is diagonal or splits rationally, floats otherwise for
        float inputs, and symbolic indeterminates as the exact fallback.

        Returns ``(values, symbolic_flag)``.  Resolved on first use and kept
        with the parameters.
        """
        values, symbolic = self._latent_roots
        return list(values), symbolic

    @cached_property
    def _latent_roots(self) -> tuple[tuple, bool]:
        if self.symbolic_mode:
            return tuple(s._lift() for s in self.theta_syms), False
        if self.sigma_is_diagonal:
            return tuple(self.sigma[i][i] for i in range(self.p)), False
        if self.mode == "rational":
            eigs = linalg.rational_eigenvalues(self.sigma)
            if eigs is not None:
                return tuple(eigs), False
            return tuple(s._lift() for s in self.theta_syms), True
        import numpy as np

        w = np.linalg.eigvalsh(np.array(linalg.to_float(self.sigma), dtype=float))
        return tuple(float(x) for x in w), False

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
    k: int, yv: Sequence, xv: Sequence, theta: Sequence, prune: bool = True, free=None
) -> UmbralPolynomial:
    # (k-1)! 2^(k-1) * (sum_j x_j^(2k)) * (sum_l y_l^(2k) theta_l^k); ``free``
    # stands for sum x_j^2 over further delta columns, whose x_j^(2k) vanish
    # for k >= 2, so it enters the first cumulant only
    xs = UmbralPolynomial.zero() if free is None or k > 1 else free
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
    coefficients."""
    if k < 1:
        raise ValueError("cumulant order must be positive")
    theta, symbolic = params.resolve_theta()
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
    in rational mode unless the route had to rotate through a float
    factorization.
    """

    @functools.wraps(route)
    def guarded(params: WishartParams, i: int):
        if params.symbolic_mode:
            raise ValueError("symbolic parameter sets cannot be evaluated numerically")
        if i < 0:
            raise ValueError("order must be nonnegative")
        value = route(params, i) if 1 <= i <= params.p else int(i == 0)
        if params.mode == "float" or isinstance(value, float):
            return float(value)
        return Fraction(value)

    return guarded


def _delta_core(
    n: int,
    p: int,
    theta: Sequence,
    m: Sequence[Sequence] | None,
    sigma: Sequence[Sequence],
    i: int,
):
    """Evaluation of the Bell combination with fresh 1,0,1,0,... umbrae plugged
    into both weight families.  Returns a scalar, or a polynomial in whatever
    symbolic latent-root weights were passed in.

    Columns that the mean does not touch are exchangeable, and under delta
    weights their sum ``sum_j x_j^2`` is the dot-product umbra ``n.chi`` of
    Di Nardo & Senato (Eur. J. Combin. 27, 2006), with the falling factorials
    as moments: one ``falling`` umbra stands for all of them, and only the
    columns the mean touches keep a delta umbra each.  Every term of the
    k-th cumulant carries some ``x_j^(2k)``, and the free columns' part of it
    vanishes for k >= 2, so a cumulant whose column powers no delta umbra can
    carry is never built.

    Rational inputs run on integer coefficients: with ``c`` the common
    denominator of the latent roots (and, with a mean, of ``sigma`` and
    ``m``), the k-th cumulant is homogeneous of degree ``2k`` under
    ``theta, sigma -> c^2 theta, c^2 sigma`` and ``m -> c m``, so the
    scaled Bell combination is ``c^(2i)`` times the original.
    """
    numeric = [x for x in theta if not isinstance(x, UmbralPolynomial)]
    if m is not None:
        numeric += [x for rows in (sigma, m) for row in rows for x in row]
    scale = 1
    if all(isinstance(x, (int, Fraction)) for x in numeric):
        scale = math.lcm(*(Fraction(x).denominator for x in numeric))
        theta = [_times(x, scale * scale) for x in theta]
        if m is not None:
            sigma = [[_times(x, scale * scale) for x in row] for row in sigma]
            m = [[_times(x, scale) for x in row] for row in m]
    touched = [j for j in range(n) if any(row[j] != 0 for row in m)] if m is not None else []
    m = [[row[j] for j in touched] for row in m] if touched else None
    dn = deltas(len(touched), prefix="dx")
    yv = _lift_all(deltas(p, prefix="dy"))
    xv = _lift_all(dn)
    free = falling(n - len(touched), name="fx")._lift() if len(touched) < n else None
    cumulants = [
        _central_terms(k, yv, xv, theta, free=free) + _mean_terms(k, yv, xv, m, sigma)
        if k == 1 or any(d.max_power >= 2 * k for d in dn)
        else 0
        for k in range(1, i + 1)
    ]
    value = evaluate(complete_bell(cumulants))
    return value.scale(Fraction(1, scale ** (2 * i)))


def _times(x, s: int):
    """``s x`` as an int for a rational ``x`` that ``s`` clears, or a scaled
    polynomial."""
    if isinstance(x, UmbralPolynomial):
        return x.scale(s)
    return (x * s).numerator


def _extract_esf_multiple(value: UmbralPolynomial, theta: Sequence[Indeterminate], i: int):
    """Verify that an evaluated kernel result is a constant multiple of the
    i-th elementary symmetric polynomial in the given symbols and return that
    constant.  Anything else is a kernel defect and raises."""
    expected_subsets = {frozenset(c) for c in itertools.combinations(theta, i)}
    seen: dict[frozenset, object] = {}
    for (ub, ind), c in value.terms():
        if ub:
            raise ArithmeticError("kernel result still contains formal variables")
        subset = frozenset(v for v, _ in ind)
        if subset not in expected_subsets or any(e != 1 for _, e in ind):
            raise ArithmeticError("kernel result is not an elementary symmetric multiple")
        seen[subset] = c
    if len(seen) != len(expected_subsets):
        raise ArithmeticError("kernel result misses elementary symmetric monomials")
    coeffs = set(seen.values())
    if len(coeffs) != 1:
        raise ArithmeticError("kernel result has uneven coefficients")
    return coeffs.pop()


def _umbral_central(params: WishartParams, i: int):
    theta, symbolic = params.resolve_theta()
    value = _delta_core(params.n, params.p, theta, None, params.sigma, i)
    if symbolic:
        coeff = _extract_esf_multiple(value, params.theta_syms, i)
        # e_i(sigma) = e_i(c sigma) / c^i with c sigma an integer matrix
        c = math.lcm(*(x.denominator for row in params.sigma for x in row))
        sums = linalg.power_sums([[int(c * x) for x in row] for row in params.sigma], i)
        esf_value = Fraction(elementary_symmetric_from_power_sums(sums, i), c**i)
        return divide_by_factorial(coeff * esf_value, i)
    return divide_by_factorial(value.as_scalar(), i)


def _scaled_identity_core(n: int, p: int, s2, mvals: Sequence, i: int):
    sigma = tuple(tuple(s2 if r == c else 0 for c in range(p)) for r in range(p))
    m = tuple(
        tuple(mvals[r] if (r == c and r < len(mvals)) else 0 for c in range(n))
        for r in range(p)
    )
    value = _delta_core(n, p, [s2] * p, m, sigma, i)
    return divide_by_factorial(value.as_scalar(), i)


def _umbral_scaled_identity(params: WishartParams, i: int, s2):
    if params.mean_is_rect_diagonal:
        mvals = [params.m[l][l] for l in range(params.p)]
        return _scaled_identity_core(params.n, params.p, s2, mvals, i)
    mvals = linalg.singular_values(params.m)
    return _scaled_identity_core(params.n, params.p, float(s2), mvals, i)


def _umbral_minor_sum(params: WishartParams, i: int):
    """Sum over the i x i principal blocks: rotate each block to identity
    covariance and weight its scaled-identity value by the block's det."""
    total = 0.0
    for subset in itertools.combinations(range(params.p), i):
        sigma = linalg.submatrix(params.sigma, subset, subset)
        m = tuple(params.m[r] for r in subset)
        rotated = linalg.mat_mul(linalg.sym_inv_sqrt(sigma), linalg.to_float(m))
        core = _scaled_identity_core(params.n, i, 1.0, linalg.singular_values(rotated), i)
        total += float(linalg.det(sigma)) * core
    return total


@guard_order
def expected_esf_umbral(params: WishartParams, i: int):
    """Expected i-th elementary symmetric function of the latent roots of
    ``W = X X^T``, via the symbolic kernel.

    Exact (``Fraction``) whenever the inputs are rational and no singular
    value decomposition is needed: central models with any rational
    covariance, and scalar-identity covariance with a rectangular-diagonal
    mean.  Other regimes rotate through float SVDs.
    """
    if params.mean_is_zero:
        return _umbral_central(params, i)
    s2 = params.sigma_scalar
    if s2 is not None:
        return _umbral_scaled_identity(params, i, s2)
    return _umbral_minor_sum(params, i)


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
