"""Scalar matrix helpers.

Exact paths work on tuples of tuples holding ints / ``Fraction``s and never
touch an eigensolver.  Elementary symmetric functions of latent roots come
from the division-free characteristic polynomial, :func:`charpoly`, for the
closed form, and from the traces of the powers of a matrix polynomial,
:func:`power_sums`, for the umbral route.  The Cholesky factor the Monte
Carlo oracle samples with is a thin numpy wrapper; so are the SVD and the
symmetric inverse square root, which no route calls any more.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

ORTHOGONALITY_TOL = 1e-10


def freeze(rows: Sequence[Sequence]) -> tuple:
    return tuple(tuple(r) for r in rows)


def shape(a: Sequence[Sequence]) -> tuple[int, int]:
    return (len(a), len(a[0]))


def identity(k: int) -> tuple:
    return tuple(tuple(1 if r == c else 0 for c in range(k)) for r in range(k))


def transpose(a: Sequence[Sequence]) -> tuple:
    return tuple(tuple(a[r][c] for r in range(len(a))) for c in range(len(a[0])))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_pow(a: Sequence[Sequence], k: int) -> tuple:
    if len(a) != len(a[0]):
        raise ValueError("matrix power needs a square matrix")
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def trace(a: Sequence[Sequence]):
    return sum(a[i][i] for i in range(len(a)))


def submatrix(a: Sequence[Sequence], rows: Sequence[int], cols: Sequence[int]) -> tuple:
    return tuple(tuple(a[r][c] for c in cols) for r in rows)


def det(a: Sequence[Sequence]):
    """Determinant by Gaussian elimination with largest-pivot selection;
    exact for rational entries (ints are eliminated as ``Fraction``s),
    ordinary floating arithmetic otherwise."""
    n = len(a)
    if n != len(a[0]):
        raise ValueError("determinant needs a square matrix")
    work = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]
    result = 1
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col]))
        if work[pivot_row][col] == 0:
            return 0 * result
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            result = -result
        pivot = work[col][col]
        result = result * pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            if factor == 0:
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return result


def inverse(a: Sequence[Sequence]) -> tuple:
    """Gauss-Jordan inverse; raises on singular input."""
    n = len(a)
    if n != len(a[0]):
        raise ValueError("inverse needs a square matrix")
    work = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]
    work = [row + [1 if r == c else 0 for c in range(n)] for r, row in enumerate(work)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col]))
        if work[pivot_row][col] == 0:
            raise ValueError("singular matrix")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor == 0:
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def charpoly(a: Sequence[Sequence]) -> list:
    """``[e_0, ..., e_p]``: the elementary symmetric functions of the latent
    roots of a square matrix, the coefficients of ``det(t I + A)``.

    Berkowitz's division-free recurrence (IPL 18 (1984) 147-150) grows the
    characteristic polynomial one leading block at a time, using ring
    operations only: integer entries give integers, ``Fraction``s stay exact.
    """
    p = len(a)
    if p != len(a[0]):
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [1]  # det(t I - A_r) of the leading r x r block, leading term first
    for r in range(p):
        # first column of the Toeplitz factor, R and S the new row and column:
        # 1, -a_rr, -R S, -R A_r S, ...
        col = [1, -a[r][r]]
        v = [a[k][r] for k in range(r)]
        for _ in range(r):
            col.append(-sum(x * y for x, y in zip(a[r], v)))
            v = [sum(x * y for x, y in zip(a[k], v)) for k in range(r)]
        coeffs = [sum(col[j - k] * c for k, c in enumerate(coeffs[: j + 1])) for j in range(r + 2)]
    return [-c if k % 2 else c for k, c in enumerate(coeffs)]


# kept for the benchmark tracer and the tests only; no library route calls it
def principal_minor_sum(a: Sequence[Sequence], i: int):
    """Sum of all i-by-i principal minors, i.e. the i-th elementary symmetric
    function of the latent roots; 1 for ``i = 0``, 0 for ``i`` above the
    dimension.  Enumerates every subset: a reference for :func:`charpoly`
    in the tests, not a production path."""
    n = len(a)
    if i < 0:
        raise ValueError("order must be nonnegative")
    if i == 0:
        return 1
    if i > n:
        return 0
    total = 0
    for subset in itertools.combinations(range(n), i):
        total = total + det(submatrix(a, subset, subset))
    return total


def power_sums(coeffs: Sequence[Sequence[Sequence]], kmax: int) -> list:
    """Traces of the powers of the matrix polynomial ``A(t) = sum_d t^d A_d``,
    given as ``coeffs = [A_0, A_1, ...]``: ``[tr A(t), ..., tr A(t)^kmax]``,
    each a list of coefficients in ``t``, lowest degree first.  A plain
    matrix ``A`` is ``[A]``.

    Only the powers up to ``ceil(kmax / 2)`` are formed, since
    ``tr(A^(a+b)) = sum_(r,c) (A^a)_(rc) (A^b)_(cr)``.
    """
    powers = [list(coeffs)]
    while 2 * len(powers) < kmax:
        terms = [[] for _ in range(len(powers[-1]) + len(coeffs) - 1)]
        for a, x in enumerate(powers[-1]):
            for b, y in enumerate(coeffs):
                terms[a + b].append(mat_mul(x, y))
        powers.append([tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats)) for mats in terms])
    out = [[trace(c) for c in coeffs]]
    for k in range(2, kmax + 1):
        left, right = powers[(k + 1) // 2 - 1], powers[k // 2 - 1]
        sums = [0] * (len(left) + len(right) - 1)
        for a, x in enumerate(left):
            for b, y in enumerate(right):
                sums[a + b] += sum(u * v for row, col in zip(x, zip(*y)) for u, v in zip(row, col))
        out.append(sums)
    return out


def quadratic_form(v: Sequence, a: Sequence[Sequence], w: Sequence):
    return sum(v[r] * sum(a[r][c] * w[c] for c in range(len(w))) for r in range(len(v)))


def is_rational_matrix(a: Sequence[Sequence]) -> bool:
    return all(isinstance(x, (int, Fraction)) for row in a for x in row)


def to_float(a: Sequence[Sequence]) -> tuple:
    return tuple(tuple(float(x) for x in row) for row in a)


def is_symmetric(a: Sequence[Sequence], tol: float = 0.0) -> bool:
    n = len(a)
    if n != len(a[0]):
        return False
    for r in range(n):
        for c in range(r + 1, n):
            diff = a[r][c] - a[c][r]
            if tol == 0.0:
                if diff != 0:
                    return False
            elif abs(diff) > tol:
                return False
    return True


def is_diagonal(a: Sequence[Sequence]) -> bool:
    return all(a[r][c] == 0 for r in range(len(a)) for c in range(len(a[0])) if r != c)


def is_positive_definite(a: Sequence[Sequence]) -> bool:
    """Whether a symmetric matrix is positive definite: every pivot of its
    symmetric elimination ``A = L D L^T`` is positive.

    The k-th pivot is ``D_k / D_{k-1}``, the ratio of leading principal
    minors, so on exact entries (ints are eliminated as ``Fraction``s) the
    test is Sylvester's criterion.  On floats the pivots scale linearly with
    the matrix and ``L`` not at all, so a tiny scale does not underflow.
    """
    low: list[list] = []
    pivots: list = []
    for r, row in enumerate(a):
        row = [Fraction(x) if isinstance(x, int) else x for x in row]
        new: list = []
        for c in range(r):
            acc = row[c] - sum(x * y * d for x, y, d in zip(new, low[c], pivots))
            new.append(acc / pivots[c])
        pivot = row[r] - sum(x * x * d for x, d in zip(new, pivots))
        if not pivot > 0:
            return False
        low.append(new)
        pivots.append(pivot)
    return True


def _divisors(n: int, limit: int = 4000) -> list[int] | None:
    n = abs(n)
    if n == 0:
        return None
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
            if len(small) + len(large) > limit:
                return None
        d += 1
        if d > 2_000_000:
            return None
    return small + large[::-1]


# kept for the benchmark tracer and the tests only; no library route calls it
def rational_eigenvalues(a: Sequence[Sequence]) -> list[Fraction] | None:
    """All eigenvalues as exact rationals if the characteristic polynomial
    splits over the rationals, else ``None``.

    Coefficients come from :func:`charpoly`; candidate roots from the
    rational root theorem with deflation.
    """
    if not is_rational_matrix(a):
        return None
    p = len(a)
    # char(t) = sum_i (-1)^i e_i t^(p-i), leading coefficient 1
    coeffs = [Fraction((-1) ** i * e) for i, e in enumerate(charpoly(a))]
    scale = math.lcm(*(c.denominator for c in coeffs))

    def poly_value(cs: list[Fraction], x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in cs:
            acc = acc * x + c
        return acc

    def deflate(cs: list[Fraction], root: Fraction) -> list[Fraction]:
        out = [cs[0]]
        for c in cs[1:-1]:
            out.append(c + out[-1] * root)
        return out

    current = [c * scale for c in coeffs]  # integral; current[0] multiplies t^p
    roots: list[Fraction] = []
    while len(current) > 1:
        while current[-1] == 0:
            roots.append(Fraction(0))
            current = current[:-1]
            if len(current) == 1:
                break
        if len(current) == 1:
            break
        num_divs = _divisors(int(current[-1]))
        den_divs = _divisors(int(current[0]))
        if num_divs is None or den_divs is None:
            return None
        found = None
        for num in num_divs:
            for den in den_divs:
                for sign in (1, -1):
                    cand = Fraction(sign * num, den)
                    if poly_value(current, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        roots.append(found)
        current = deflate(current, found)
    return sorted(roots, reverse=True) if len(roots) == p else None


# -- float-only factorizations (numpy) ---------------------------------------


def _require_orthogonal(q) -> None:
    import numpy as np

    deviation = np.abs(q.T @ q - np.eye(q.shape[1])).max()
    if deviation > ORTHOGONALITY_TOL:
        raise ArithmeticError("orthogonality tolerance exceeded")


# kept for the benchmark tracer and the tests only; no library route calls it
def singular_values(m: Sequence[Sequence]) -> list[float]:
    """Singular values of a real matrix, largest first, orthogonality of the
    computed factors verified."""
    import numpy as np

    arr = np.array(to_float(m), dtype=float)
    u, s, vt = np.linalg.svd(arr)
    _require_orthogonal(u)
    _require_orthogonal(vt.T)
    return [float(x) for x in s]


# kept for the benchmark tracer and the tests only; no library route calls it
def sym_inv_sqrt(s: Sequence[Sequence]) -> tuple:
    """Symmetric inverse square root of a positive definite matrix."""
    import numpy as np

    arr = np.array(to_float(s), dtype=float)
    w, v = np.linalg.eigh(arr)
    if (w <= 0).any():
        raise ValueError("inverse square root undefined")
    _require_orthogonal(v)
    root = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    return tuple(tuple(float(x) for x in row) for row in root)


def cholesky_lower(s: Sequence[Sequence]) -> tuple:
    import numpy as np

    arr = np.array(to_float(s), dtype=float)
    try:
        low = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not positive definite") from exc
    return tuple(tuple(float(x) for x in row) for row in low)
