"""Noncentral Wishart parameters, the cumulants of the weighted squared trace
(one quadratic-form law on every covariance), and the two routes to the
expected elementary symmetric functions of the latent roots.

Both routes use ``E[e_i(W)] = sum_k a_k [t^k] e_i(Sigma + t M M^T)``, where
the coefficients ``a_k`` depend only on ``n`` and ``i``.  The umbral route
reads each one off one symbolic kernel run, on a canonical problem whose
expectation is ``a_k`` itself: the cumulant sequence of the weighted squared
trace ``tr[(D_y X D_x)(D_y X D_x)^T]``, assembled into moments through
complete Bell polynomials, with 1,0,1,0,... umbrae plugged into the weights,
so that the evaluation functional deletes every monomial that does not
contribute to an elementary symmetric function.
Both routes clear denominators once, in one integer pencil
``A + t B = s (Sigma + t M M^T)``.  The umbral route takes ``[t^k] e_i``
from the traces of its powers and Newton's identities; the closed-form route
uses ``a_k = (n-k)_(i-k)`` and one division-free characteristic polynomial
of the Kronecker-packed matrix ``A + 2^K B``.  Both are exact, and correctly
rounded in float mode.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from fractions import Fraction
from functools import cached_property
from operator import index, mul

from . import linalg
from .combinatorics import complete_bell, falling_factorial
from .matrix import UmbralMatrix
from .umbra import Indeterminate, UmbralPolynomial, evaluate, falling, indeterminates

__all__ = [
    "WishartParams",
    "trace_cumulant",
    "trace_moment",
    "expected_esf_umbral",
    "expected_esf_closed_form",
]

SYMMETRY_TOL = 1e-12


class WishartParams:
    """Degrees of freedom, dimension, row covariance and mean of ``W = X X^T``.

    ``sigma`` must be symmetric positive definite with ``n >= p``; ``m`` is a
    ``p x n`` mean matrix or ``None`` for the central case.  The entries
    decide ``mode``, set once: ``"rational"`` when every entry is an int or
    ``Fraction``, ``"float"`` when any entry is a float, and ``"symbolic"``
    for the validation-free variant ``symbolic()`` builds, whose diagonal
    covariance entries and mean entries are indeterminates, for inspecting
    cumulants as printable polynomials.  A numeric covariance is read in its
    own frame; the latent-root form belongs to ``symbolic()``, whose
    ``Sigma = diag(theta)`` with a free mean is the rotated frame.  A numpy
    integer entry makes a float model, which reads it once, as a Python int
    (:func:`read_entries`).
    """

    def __init__(self, n: int, p: int, sigma, m=None) -> None:
        self.n = index(n)
        self.p = index(p)
        self.sigma = linalg.freeze(sigma)
        self.m = linalg.freeze(m) if m is not None else None
        if any(isinstance(x, UmbralPolynomial) for row in self.sigma for x in row):
            self.mode = "symbolic"
        else:
            rational = linalg.is_rational_matrix(self.sigma + (self.m or ()))
            self.mode = "rational" if rational else "float"
            if not rational:
                self.sigma = read_entries(self.sigma)
                self.m = read_entries(self.m) if self.m is not None else None
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
        params = cls(n, p, sigma, m)
        params.theta_syms = theta
        return params

    def _validate(self) -> None:
        if self.p < 1 or self.n < self.p:
            raise ValueError("need n >= p >= 1")
        if not linalg.has_shape(self.sigma, self.p, self.p):
            raise ValueError("covariance must be p x p")
        if self.m is not None and not linalg.has_shape(self.m, self.p, self.n):
            raise ValueError("mean must be p x n")
        entries = [x for row in self.sigma + (self.m or ()) for x in row]
        # exact entries are finite; in rational mode they may lie beyond the float range
        if not all(isinstance(x, (int, Fraction)) or math.isfinite(x) for x in entries):
            raise ValueError("covariance and mean entries must be finite")
        tol = 0.0
        if self.mode == "float":
            try:
                sizes = [abs(float(x)) for x in entries]
            except OverflowError:
                raise ValueError(
                    "an exact entry exceeds the float range; rational input "
                    "(--mode rational) reads every entry exactly"
                ) from None
            # the first p * p entries are the covariance's
            tol = SYMMETRY_TOL * max(sizes[: self.p * self.p])
        if not linalg.is_symmetric(self.sigma, tol):
            raise ValueError("covariance must be symmetric")
        if not linalg.is_positive_definite(self.sigma):
            raise ValueError("covariance must be positive definite")

    # -- structure ------------------------------------------------------------

    @cached_property
    def y_vars(self) -> list[Indeterminate]:
        return indeterminates("y", self.p)

    @cached_property
    def x_vars(self) -> list[Indeterminate]:
        return indeterminates("x", self.n)

    def __repr__(self) -> str:
        return f"WishartParams(n={self.n}, p={self.p}, mode={self.mode})"


def read_entries(rows) -> tuple:
    """``rows`` as a tuple of tuples, every integral entry read through
    ``operator.index``: a numpy integer becomes a Python int, whose products
    do not wrap at 64 bits.  Other entries pass unchanged."""
    return tuple(tuple(index(x) if isinstance(x, numbers.Integral) else x for x in r) for r in rows)


# -- cumulants of the weighted squared trace ---------------------------------


def trace_cumulant(params: WishartParams, k: int) -> UmbralPolynomial:
    """k-th cumulant of the weighted squared trace ``tr[(D_y X D_x)(D_y X D_x)^T]``,
    a polynomial in the weight indeterminates ``y``, ``x``.

    Column ``j`` contributes ``x_j^2 |D_y X_j|^2`` with ``X_j ~ N(m_j, Sigma)``
    independent, a noncentral quadratic form, so
    ``kappa_k = (k-1)! 2^(k-1) sum_j x_j^(2k) [tr((D Sigma)^k) + k m_j^T H m_j]``
    with ``D = diag(y^2)`` and ``H = (D Sigma)^(k-1) D``: one polynomial
    matrix power, shared by the central part ``tr(H Sigma)`` and every column.
    """
    k = index(k)
    if k < 1:
        raise ValueError("cumulant order must be positive")
    d = UmbralMatrix.diag([y**2 for y in params.y_vars])
    sigma = UmbralMatrix.from_rows(params.sigma)
    h = d.matmul(sigma).matpow(k - 1).matmul(d)
    central = h.matmul(sigma).trace()
    total = UmbralPolynomial.zero()
    for j, x in enumerate(params.x_vars):
        part = central
        if params.m is not None:
            col = UmbralMatrix.from_rows([[row[j]] for row in params.m])
            part = part + col.transpose().matmul(h.matmul(col)).get(0, 0).scale(k)
        total = total + (x ** (2 * k)).mul(part)
    return total.scale(math.factorial(k - 1) * 2 ** (k - 1))


def trace_moment(params: WishartParams, i: int) -> UmbralPolynomial:
    """i-th raw moment of the weighted squared trace,
    ``B_i(kappa_1, ..., kappa_i)``: the complete Bell polynomial in the
    cumulants of :func:`trace_cumulant`, computed over the polynomial ring,
    for any covariance and mean."""
    if i < 1:
        raise ValueError("moment order must be positive")
    cumulants = [trace_cumulant(params, k) for k in range(1, i + 1)]
    return complete_bell(cumulants)


# -- the symbolic route to expected elementary symmetric functions -----------


def numeric_order(params: WishartParams, i: int) -> int:
    """The order ``i`` of every numeric method as an ``int``: symbolic sets and
    negative orders raise ``ValueError``, non-integer orders ``TypeError``."""
    if params.mode == "symbolic":
        raise ValueError("symbolic parameter sets cannot be evaluated numerically")
    i = index(i)
    if i < 0:
        raise ValueError("order must be nonnegative")
    return i


def mode_value(params: WishartParams, value):
    """``value`` in the type that ``params.mode`` asks for: a float in float
    mode, a ``Fraction`` in rational mode.  A value that is not finite, or a
    float-mode value beyond the float range, raises ``OverflowError``."""
    try:
        # Fraction() refuses an infinite float (OverflowError) and NaN (ValueError)
        value = Fraction(value)
        return float(value) if params.mode == "float" else value
    except (OverflowError, ValueError):
        raise OverflowError(
            "the value exceeds the float range; rational input "
            "(--mode rational) gives it exactly"
        ) from None


def guard_order(route):
    """Shared entry of the routes to ``E[e_i(W)]``.

    Reads the order through :func:`numeric_order`, answers ``i = 0`` (one)
    and ``i > p`` (zero) without calling the route, and returns the value
    through :func:`mode_value`.
    """

    @functools.wraps(route)
    def guarded(params: WishartParams, i: int):
        i = numeric_order(params, i)
        value = route(params, i) if 1 <= i <= params.p else int(i == 0)
        return mode_value(params, value)

    return guarded


def _canonical_kernel(n: int, i: int, k: int) -> int:
    """``i! a_k`` from one kernel run on a canonical problem whose
    ``E[e_i(W)]`` is ``a_k``: ``i`` rows, ``n`` columns, covariance
    ``diag(0^k, 1^(i-k))`` and a mean with ones at the first ``k`` diagonal
    places, so ``Sigma + t M M^T = diag(t^k, 1^(i-k))`` and ``e_i = t^k``.  A
    zero-variance row is a deterministic row, and the moment identity is
    polynomial in ``Sigma``.

    Under 1,0,1,0,... weights the Bell combination is ``c_1^i``, with
    ``c_1 = (sum_c x_c^2)(sum_(r>k) y_r^2) + sum_(l<=k) y_l^2 x_l^2``.  A pair
    row's ``y_l^2`` stands only next to ``x_l^2``, which survives at most
    once in a monomial, so it evaluates to 1 and is dropped.  The ``k`` pair
    columns, the ``i-k`` free rows and the ``n-k`` free columns are then
    exchangeable families; the squared weights of ``r`` of them sum to the
    dot-product umbra ``r.chi`` of Di Nardo & Senato (Eur. J. Combin. 27,
    2006), one ``falling(r)`` umbra.  So ``c_1 = (f_y + 1) g + f_y f_x``,
    built with one product as ``f_y (g + f_x) + g``, and pruning leaves one
    monomial of ``c_1^i``, ``C(i, k) g^k f_y^(i-k) f_x^(i-k)``, which
    evaluates to ``i! (n-k)_(i-k)``.
    """
    g = falling(k, name="g")._lift()
    fy = falling(i - k, name="fy")._lift()
    fx = falling(n - k, name="fx")._lift()
    c1 = fy.mul(g + fx) + g
    return evaluate(c1.pow(i)).as_scalar()


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


def _integer_pencil(params: WishartParams) -> tuple[int, list[list[int]], list[list[int]]]:
    """``(s, A, B)``: the integer matrices ``A = s Sigma`` and ``B = s M M^T``,
    read from each entry's integer ratio, so exact for float entries too.

    With ``d`` the common denominator of the mean and ``M_i = d M``, the upper
    triangle of ``B = (s / d^2) M_i M_i^T`` comes from row dot products of
    ``M_i``.  A central model reads only ``Sigma``; its ``B`` is zero."""
    m = [[x.as_integer_ratio() for x in row] for row in params.m or ()]
    sigma = [[x.as_integer_ratio() for x in row] for row in params.sigma]
    # clear the mean's denominators first, so that M M^T is an integer product
    d = math.lcm(*(q for row in m for _, q in row))
    mi = [[u * (d // q) for u, q in row] for row in m]
    s = math.lcm(d * d, *(q for row in sigma for _, q in row))
    a = [[u * (s // q) for u, q in row] for row in sigma]
    b = [[0] * params.p for _ in a]
    for r, c in itertools.combinations_with_replacement(range(len(mi)), 2):
        b[r][c] = b[c][r] = s // (d * d) * sum(map(mul, mi[r], mi[c]))
    return s, a, b


@guard_order
def expected_esf_umbral(params: WishartParams, i: int):
    """Expected i-th elementary symmetric function of the latent roots of
    ``W = X X^T`` via the symbolic kernel, one path for every input:
    ``E[e_i(W)] = s^-i sum_k a_k [t^k] e_i(A + t B)``, where ``A = s Sigma``
    and ``B = s M M^T`` are the integer matrices of :func:`_integer_pencil`
    and ``a_k`` depends on ``n`` and ``i`` only.

    Each nonzero ``[t^k] e_i`` takes one kernel run, on a canonical problem
    whose ``E[e_i(W)]`` is ``a_k`` itself (:func:`_canonical_kernel`), so
    central input needs one run.  ``[t^k] e_i`` comes from the traces of the
    powers of ``A + t B`` and Newton's identities, with no eigensolver and no
    factorization.  Float input is cleared like rational input, so the value
    is exact, and correctly rounded in float mode.
    """
    s, a, b = _integer_pencil(params)
    esf = _esf_from_traces(linalg.power_sums([a, b] if any(map(any, b)) else [a], i), i)
    total = sum(c * _canonical_kernel(params.n, i, k) for k, c in enumerate(esf) if c)
    return Fraction(total, math.factorial(i) * s**i)


# -- closed forms -------------------------------------------------------------


def _pencil_esf(a: list[list[int]], b: list[list[int]], i: int) -> list[int]:
    """Coefficients, lowest degree first, of ``e_i(A + t B)``, ``i >= 1``, for
    square integer matrices, from one :func:`linalg.charpoly` run.

    Kronecker substitution (Kronecker 1882): ``e_i(A + 2^K B)`` is read as
    ``i + 1`` balanced base-``2^K`` digits.  Each ``|[t^k] e_i|`` is at most
    ``e_i`` of the row sums of ``|A| + |B|``, so below ``T^i``, ``T`` the sum
    of the entries' absolute values; ``K = i bit_length(T) + 1`` fits a sign.
    """
    width = i * sum(abs(x) + abs(y) for r in zip(a, b) for x, y in zip(*r)).bit_length() + 1
    packed = [[x + (y << width) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
    # offset every digit by half its range, so the balanced digits read as plain ones
    half = 1 << (width - 1)
    value = linalg.charpoly(packed, i)[i] + sum(half << width * k for k in range(i + 1))
    if value >> width * (i + 1):
        raise ArithmeticError("e_i of the packed pencil exceeds its digit bound")
    return [(value >> width * k) % (1 << width) - half for k in range(i + 1)]


@guard_order
def expected_esf_closed_form(params: WishartParams, i: int):
    """Expected i-th elementary symmetric function of the latent roots via
    ``E[e_i(W)] = sum_k (n-k)_(i-k) [t^k] e_i(Sigma + t M M^T)``, one path
    for every regime.

    The coefficients of ``e_i(A + t B)``, for the integer pencil of
    :func:`_integer_pencil`, come from one characteristic polynomial, stopped
    at ``e_i``, of the Kronecker-packed ``A + 2^K B`` (:func:`_pencil_esf`); a
    central model's ``B`` is zero, so it packs to ``A``.  The one division,
    by ``s^i``, comes last.  Exact, and correctly rounded in float mode.
    """
    s, a, b = _integer_pencil(params)
    esf = _pencil_esf(a, b, i)
    total = sum(falling_factorial(params.n - k, i - k) * c for k, c in enumerate(esf))
    return Fraction(total, s**i)
