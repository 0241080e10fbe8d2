"""Shared deterministic generators and statistics helpers for the suite."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from random import Random

import pytest

from wishart_esf import linalg, oracles
from wishart_esf.cli import format_scalar
from wishart_esf.combinatorics import complete_bell, elementary_symmetric
from wishart_esf.umbra import Umbra, UmbralPolynomial, evaluate, singletons

# a float covariance symmetric only within the tolerance WishartParams allows:
# its (1, 0) entry is two ulps above its (0, 1) entry
NEARLY_SYMMETRIC_SIGMA = (
    (4e5, 1e5, -2e5),
    (1e5 * (1 + 4e-16), 3e5, 5e4),
    (-2e5, 5e4, 6e5),
)
NEARLY_SYMMETRIC_MEAN = ((0.5, -1.0, 0.25, 3.0), (2.0, 0.0, 1.5, -0.75), (1.0, 1.0, -2.0, 0.5))


def rational(rng: Random, span: int = 3, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def positive_rational(rng: Random, span: int = 4, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, span), rng.randint(1, max_den))


def rational_vector(rng: Random, size: int, span: int = 3, max_den: int = 4) -> list[Fraction]:
    return [rational(rng, span, max_den) for _ in range(size)]


def rational_matrix(rng: Random, rows: int, cols: int, span: int = 2, max_den: int = 3):
    return tuple(tuple(rational(rng, span, max_den) for _ in range(cols)) for _ in range(rows))


def rational_diag_spd(rng: Random, p: int):
    return tuple(
        tuple(positive_rational(rng) if r == c else Fraction(0) for c in range(p))
        for r in range(p)
    )


def rational_full_spd(rng: Random, p: int):
    """L^T L + I with small rational L: symmetric positive definite, exact."""
    low = rational_matrix(rng, p, p, span=2, max_den=2)
    out = [[Fraction(0)] * p for _ in range(p)]
    for r in range(p):
        for c in range(p):
            out[r][c] = sum(low[k][r] * low[k][c] for k in range(p))
        out[r][r] += 1
    return tuple(tuple(row) for row in out)


def rect_diag_matrix(values, rows: int, cols: int):
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for idx, v in enumerate(values):
        out[idx][idx] = v
    return tuple(tuple(row) for row in out)


def float_matrix(rng: Random, rows: int, cols: int, span: float = 2.0):
    return tuple(
        tuple(rng.uniform(-span, span) for _ in range(cols)) for _ in range(rows)
    )


def float_spd(rng: Random, p: int):
    low = [[rng.uniform(-1.0, 1.0) for _ in range(p)] for _ in range(p)]
    out = [[0.0] * p for _ in range(p)]
    for r in range(p):
        for c in range(p):
            out[r][c] = sum(low[k][r] * low[k][c] for k in range(p))
        out[r][r] += 1.0
    return tuple(tuple(row) for row in out)


# -- k-statistics (unbiased cumulant estimators) --------------------------------


def k_statistics(values, order: int) -> float:
    """Classical k-statistic of the given order (1..4) from a sample."""
    import numpy as np

    x = np.asarray(values, dtype=float)
    n = len(x)
    s1 = float(np.sum(x))
    s2 = float(np.sum(x**2))
    s3 = float(np.sum(x**3))
    s4 = float(np.sum(x**4))
    if order == 1:
        return s1 / n
    if order == 2:
        return (n * s2 - s1**2) / (n * (n - 1))
    if order == 3:
        return (2 * s1**3 - 3 * n * s1 * s2 + n**2 * s3) / (n * (n - 1) * (n - 2))
    if order == 4:
        num = (
            -6 * s1**4
            + 12 * n * s1**2 * s2
            - 3 * n * (n - 1) * s2**2
            - 4 * n * (n + 1) * s1 * s3
            + n**2 * (n + 1) * s4
        )
        return num / (n * (n - 1) * (n - 2) * (n - 3))
    raise ValueError("k-statistics implemented for orders 1..4")


# -- reference kernel operations ------------------------------------------------


def merged_powers(a: tuple, b: tuple) -> tuple:
    """Reference monomial product: exponents of shared variables add, and
    the factors stay sorted by ident."""
    powers = dict(a)
    for v, e in b:
        powers[v] = powers.get(v, 0) + e
    return tuple(sorted(powers.items(), key=lambda item: item[0].ident))


def reference_mul(a: UmbralPolynomial, b: UmbralPolynomial, prune: bool = True) -> UmbralPolynomial:
    """``a * b`` by merging the ``(variable, exponent)`` tuples of every term
    pair, dropping over-range umbra powers under ``prune``; without it, the
    exact product over the formal polynomials."""
    out: dict = {}
    for (ua, ia), ca in a.terms():
        for (ub, ib), cb in b.terms():
            u = merged_powers(ua, ub)
            if prune and any(v.max_power is not None and e > v.max_power for v, e in u):
                continue
            key = (u, merged_powers(ia, ib))
            s = out.get(key, 0) + ca * cb
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return UmbralPolynomial(out)


def unpruned_pow(base: UmbralPolynomial, k: int) -> UmbralPolynomial:
    result = UmbralPolynomial.one()
    for _ in range(k):
        result = reference_mul(result, base, prune=False)
    return result


def substitute(poly: UmbralPolynomial, indet, replacement) -> UmbralPolynomial:
    """Ring-homomorphic substitution of ``replacement`` (a scalar, variable or
    polynomial) for the indeterminate ``indet``, with unpruned products, so
    umbra powers it introduces are kept whole."""
    power = UmbralPolynomial.coerce(replacement)
    out = UmbralPolynomial.zero()
    for (ub, ind), c in poly.terms():
        rest = UmbralPolynomial({(ub, tuple((v, e) for v, e in ind if v is not indet)): c})
        out = out + reference_mul(rest, unpruned_pow(power, dict(ind).get(indet, 0)), prune=False)
    return out


def substitute_all(poly: UmbralPolynomial, variables, values) -> UmbralPolynomial:
    for v, value in zip(variables, values):
        poly = substitute(poly, v, value)
    return poly


# -- side identities: partitions, Bell weights and special umbrae ----------------


@dataclass(frozen=True)
class Partition:
    """An integer partition in multiplicity form: ``((part, multiplicity), ...)``.

    Parts are strictly increasing and every multiplicity is positive, so the
    representation is canonical and hashable.  The empty tuple is the single
    partition of 0.
    """

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = 0
        for part, mult in self.parts:
            if part <= previous or mult < 1:
                raise ValueError(f"malformed partition {self.parts!r}")
            previous = part

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        counts: dict[int, int] = {}
        for part in parts:
            if part < 1:
                raise ValueError("parts must be positive integers")
            counts[part] = counts.get(part, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @property
    def weight(self) -> int:
        return sum(part * mult for part, mult in self.parts)

    @property
    def length(self) -> int:
        """Number of parts counted with multiplicity."""
        return sum(mult for _, mult in self.parts)


def enumerate_partitions(i: int) -> list[Partition]:
    """All partitions of ``i``, each exactly once, lexicographic in the
    ascending part list; ``i = 0`` yields the single empty partition."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    found: list[Partition] = []

    def grow(remaining: int, minimum: int, acc: list[int]) -> None:
        if remaining == 0:
            found.append(Partition.from_parts(acc))
            return
        for part in range(minimum, remaining + 1):
            acc.append(part)
            grow(remaining - part, part, acc)
            acc.pop()

    grow(i, 1, [])
    return found


def bell_coefficient(partition: Partition) -> int:
    """Weight of a partition's term in the complete Bell polynomial:
    ``i! / (r_1! r_2! ... (1!)^{r_1} (2!)^{r_2} ...)``."""
    den = 1
    for part, mult in partition.parts:
        den *= math.factorial(mult) * math.factorial(part) ** mult
    return math.factorial(partition.weight) // den


def cycle_class_size(partition: Partition) -> int:
    """Number of permutations of ``weight`` symbols whose cycle lengths form
    this partition: ``i! / (1^{r_1} r_1! 2^{r_2} r_2! ...)``."""
    den = 1
    for part, mult in partition.parts:
        den *= part**mult * math.factorial(mult)
    return math.factorial(partition.weight) // den


def power_sum(y, k: int):
    """``s_k = sum_j y_j^k`` for ``k >= 1``."""
    if k < 1:
        raise ValueError("k must be positive")
    return sum(v**k for v in y)


def divide_by_factorial(value, i: int):
    """``value / i!``, exact (a ``Fraction``) for int and ``Fraction`` values."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value, math.factorial(i))
    return value / math.factorial(i)


def elementary_symmetric_from_power_sums(sums, i: int):
    """Elementary symmetric value from the power sums ``[s_1, ..., s_i]``
    via the Bell-polynomial identity."""
    if i == 0:
        return 1
    if len(sums) < i:
        raise ValueError("need power sums up to order i")
    args = [(-1) ** (k - 1) * math.factorial(k - 1) * sums[k - 1] for k in range(1, i + 1)]
    return divide_by_factorial(complete_bell(args), i)


def elementary_symmetric_via_bell(y, i: int):
    """Same value as ``elementary_symmetric``, computed from power sums."""
    if i == 0:
        return 1
    return elementary_symmetric_from_power_sums([power_sum(y, k) for k in range(1, i + 1)], i)


def diagonal_joint_moment(y, partition: Partition):
    """Product of power sums ``prod_k s_k(y)^{r_k}`` over the partition: the
    joint moment of ``diag(y)`` for any permutation of that cycle class."""
    term = 1
    for part, mult in partition.parts:
        term = term * power_sum(y, part) ** mult
    return term


def elementary_symmetric_via_cycle_classes(y, i: int):
    """Same value as ``elementary_symmetric``, as a signed partition sum
    weighted by cycle-class sizes."""
    if i == 0:
        return 1
    total = 0
    for partition in enumerate_partitions(i):
        sign = (-1) ** (i - partition.length)
        total = total + sign * cycle_class_size(partition) * diagonal_joint_moment(y, partition)
    return divide_by_factorial(total, i)


def deltas(count: int = 1, prefix: str = "dlt") -> list[Umbra]:
    """Fresh umbrae with moments 1, 0, 1, 0, 0, ... (only orders 0 and 2 live)."""
    return [
        Umbra(lambda k: 1 if k == 2 else 0, name=f"{prefix}{i + 1}", max_power=2)
        for i in range(count)
    ]


def gaussian(mean=0, std=None, *, variance=None, name: str | None = None) -> Umbra:
    """Umbra carrying the raw moments of a normal distribution, from the
    recurrence ``m_j = mean m_(j-1) + (j-1) variance m_(j-2)``.

    Pass ``variance`` directly to stay exact when the standard deviation is
    irrational but the variance is rational.
    """
    if variance is None:
        variance = 0 if std is None else std * std

    def mom(k: int):
        prev, cur = 1, mean
        for j in range(2, k + 1):
            prev, cur = cur, mean * cur + (j - 1) * variance * prev
        return cur

    return Umbra(mom, name=name or "g")


def similar(a, b, order: int) -> bool:
    """Moment-wise similarity up to the given truncation order: the k-th
    powers of both sides evaluate identically for every ``k <= order``."""
    if order < 1:
        raise ValueError("order must be at least 1")
    pa = UmbralPolynomial.coerce(a)
    pb = UmbralPolynomial.coerce(b)
    power_a = power_b = UmbralPolynomial.one()
    for _ in range(order):
        power_a = power_a.mul(pa)
        power_b = power_b.mul(pb)
        if evaluate(power_a) != evaluate(power_b):
            return False
    return True


def noncentral_chisq_cumulant(sigma, m, k: int):
    """k-th cumulant of ``|X|^2`` for ``X ~ N(m, sigma)``:
    ``(k-1)! 2^{k-1} [tr(sigma^k) + k m^T sigma^{k-1} m]``, the reference for
    ``trace_cumulant``.  Numpy integers are read as Python ints, whose
    products do not wrap at 64 bits."""
    if k < 1:
        raise ValueError("cumulant order must be positive")
    sigma = [[int(x) if isinstance(x, numbers.Integral) else x for x in row] for row in sigma]
    m = [int(x) if isinstance(x, numbers.Integral) else x for x in m]
    if not linalg.has_shape(sigma, len(m), len(m)):
        raise ValueError("need a p x p covariance and a mean of length p")
    v = m  # sigma^(k-1) m
    for _ in range(k - 1):
        v = [sum(map(mul, row, v)) for row in sigma]
    quad = sum(map(mul, m, v))
    trace_k = linalg.power_sums([sigma], k)[-1][0]
    return math.factorial(k - 1) * 2 ** (k - 1) * (trace_k + k * quad)


def singleton_cross_term_identity(p: int, n: int, i: int, j: int, m):
    """Kernel evaluation of the double singleton cross-term sum against its
    counting formula ``C(n-j, i-j) C(p-j, i-j) e_j(m^2)``.

    Returns the pair ``(kernel value, counting value)``; the two must agree.
    """
    if not (0 <= j <= i <= min(p, n)):
        raise ValueError("need 0 <= j <= i <= min(p, n)")
    if len(m) != p:
        raise ValueError("m must have length p")
    chi = [c._lift() for c in singletons(p, prefix="cy")]
    chit = [c._lift() for c in singletons(n, prefix="cx")]
    total = UmbralPolynomial.zero()
    for fixed in itertools.combinations(range(p), j):
        anchor = UmbralPolynomial.one()
        for kk in fixed:
            anchor = anchor.mul(chi[kk]).mul(chit[kk]).scale(m[kk] * m[kk])
        rows = elementary_symmetric([c for t, c in enumerate(chi) if t not in fixed], i - j)
        cols = elementary_symmetric([c for s, c in enumerate(chit) if s not in fixed], i - j)
        total = total + anchor.mul(rows).mul(cols)
    kernel_value = evaluate(total).as_scalar()
    counting_value = (
        math.comb(n - j, i - j)
        * math.comb(p - j, i - j)
        * elementary_symmetric([v * v for v in m], j)
    )
    return kernel_value, counting_value


# -- oracles and I/O used as tools ------------------------------------------------


def perfect_matchings(m: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of ``{0, ..., m-1}``, deterministic order.

    There are (m-1)!! of them; ``m`` odd raises ``ValueError``.
    """
    if m < 0 or m % 2:
        raise ValueError("no pair partition of an odd set")
    if m == 0:
        return [()]
    out: list[tuple[tuple[int, int], ...]] = []

    def pair_up(free: list[int], acc: list[tuple[int, int]]) -> None:
        if not free:
            out.append(tuple(acc))
            return
        first = free[0]
        for idx in range(1, len(free)):
            acc.append((first, free[idx]))
            pair_up(free[1:idx] + free[idx + 1 :], acc)
            acc.pop()

    pair_up(list(range(m)), [])
    return out


def mc_trace_moment(params, i: int, y, x, samples: int, seed: int) -> oracles.Estimate:
    """Seeded Monte Carlo estimate of the i-th moment of the weighted squared
    trace at numeric weights, on the sample stream of the package's
    estimator."""
    import numpy as np

    weights = np.outer(np.array([float(v) for v in y]) ** 2, np.array([float(v) for v in x]) ** 2)
    chunks = []
    # each batch is a view that the next one overwrites: reduce it to q first
    for xs in oracles._sample_batches(params, samples, seed):
        q = np.einsum("aj,baj->b", weights, xs**2)
        with np.errstate(over="ignore"):
            chunks.append(q**i)
    return _exact_summary(np.concatenate(chunks), seed)


def allocating_mc_esf(params, i: int, samples: int, seed: int) -> oracles.Estimate:
    """Reference for the bits of ``mc_expected_esf`` at ``1 <= i <= p``: the
    same stream and recurrence with fresh arrays for every 4,096-row batch, the
    Faddeev-LeVerrier recurrence started from ``M_0 = 0`` (its first step
    multiplies by the identity), and the per-sample values concatenated and
    then summed exactly in one go."""
    import numpy as np

    rng = np.random.default_rng(seed)
    low = np.array(linalg.cholesky_lower(params.sigma), dtype=float)
    mean = np.zeros((params.p, params.n)) if params.m is None else np.array(linalg.to_float(params.m))
    eye = np.eye(params.p)
    chunks = []
    for start in range(0, samples, 4096):
        z = rng.standard_normal((min(4096, samples - start), params.p, params.n))
        x = mean + np.matmul(low, z)
        w = np.matmul(x, np.transpose(x, (0, 2, 1)))
        am, c = np.zeros_like(w), np.ones(len(w))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, i + 1):
                am = np.matmul(w, am + c[:, None, None] * eye)
                c = -np.trace(am, axis1=1, axis2=2) / k
        chunks.append(-c if i % 2 else c)
    return _exact_summary(np.concatenate(chunks), seed)


def _exact_summary(values, seed: int) -> oracles.Estimate:
    """The estimator's summary of all the values at once: their exact sums."""
    moments = oracles._ExactMoments()
    moments.add(values)
    return moments.estimate(seed)


def bareiss_det(a) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): each step divides exactly by the previous
    pivot, so every entry stays an integer minor of ``a``."""
    a = [list(row) for row in a]
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def esf_by_column_subsets(n: int, sigma, m, i: int) -> Fraction:
    """Exact ``E[e_i(W)]`` without the reduction both routes share:

        sum over column sets T, |T| <= min(i, n), of
        (-1)^(i-|T|) C(n-|T|, i-|T|) e_i(|T| Sigma + M_T M_T^T).

    By Cauchy-Binet ``e_i(X X^T)`` is a sum of squared i x i minors; the
    expected square of a minor with independent columns ``N(m_c, Sigma)`` is
    a mixed discriminant of the ``Sigma + m_c m_c^T`` (Bapat, LAA 126, 1989),
    which polarization over T turns into the sum above.  One scale ``s``
    clears every denominator, and ``e_i`` of each integer matrix
    ``s (|T| Sigma + M_T M_T^T)`` is its sum of principal minors, each by
    :func:`bareiss_det`: no t-pencil, no a_k, no kernel, no ``linalg`` and no
    ``Fraction`` until the one division by ``s^i``.  Entries are read
    exactly, floats included; ``m`` may be ``None``."""
    sigma = [[Fraction(x) for x in row] for row in sigma]
    m = [[Fraction(x) for x in row] for row in m] if m is not None else [[Fraction(0)] * n for _ in sigma]
    d = math.lcm(*(x.denominator for row in m for x in row))
    s = math.lcm(d * d, *(x.denominator for row in sigma for x in row))
    a = [[int(x * s) for x in row] for row in sigma]
    mi = [[int(x * d) for x in row] for row in m]
    total = 0
    for size in range(min(i, n) + 1):
        weight = (-1) ** (i - size) * math.comb(n - size, i - size)
        for cols in itertools.combinations(range(n), size):
            b = [
                [size * x + s // (d * d) * sum(r1[j] * r2[j] for j in cols) for x, r2 in zip(row, mi)]
                for row, r1 in zip(a, mi)
            ]
            for rows in itertools.combinations(range(len(b)), i):
                total += weight * bareiss_det([[b[r][c] for c in rows] for r in rows])
    return Fraction(total, s**i)


def integer_polynomial(values: list[int]) -> list[int]:
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


def write_matrix_csv(path: str, matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(format_scalar(v) for v in row) + "\n")


@pytest.fixture
def rng() -> Random:
    return Random(0xC0FFEE)
