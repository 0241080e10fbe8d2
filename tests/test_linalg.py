"""Exact linear algebra: the division-free characteristic polynomial against
principal-minor enumeration, the traces of matrix-polynomial powers against
repeated products, exact elimination of integer entries, and the
positive-definiteness pivots against Sylvester's criterion."""

from fractions import Fraction

import pytest

from wishart_esf import linalg

from conftest import bareiss_det, rational_matrix

# integer covariance whose elimination in floating point is off in the last bit
INTEGER_SIGMA = (
    (4, 0, 0, 2, -1),
    (0, 7, -1, 3, -1),
    (0, -1, 5, -1, 0),
    (2, 3, -1, 7, -3),
    (-1, -1, 0, -3, 5),
)


class TestCharpoly:
    def test_matches_principal_minor_sums(self, rng):
        for _ in range(30):
            p = rng.randint(1, 6)
            a = rational_matrix(rng, p, p, span=4, max_den=3)  # not symmetric
            assert linalg.charpoly(a) == [linalg.principal_minor_sum(a, i) for i in range(p + 1)]

    def test_integer_entries_give_integers(self):
        e = linalg.charpoly(INTEGER_SIGMA)
        assert e == [1, 28, 284, 1327, 2876, 2316]
        assert all(type(x) is int for x in e)

    def test_truncated_is_a_prefix(self, rng):
        for _ in range(20):
            p = rng.randint(1, 8)
            rat = rational_matrix(rng, p, p, span=4, max_den=3)  # not symmetric
            ints = tuple(tuple(rng.randint(-6, 6) for _ in range(p)) for _ in range(p))
            sym = tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(rat, zip(*rat)))
            for a in (rat, ints, sym):
                full = linalg.charpoly(a)
                for top in range(p + 1):
                    assert linalg.charpoly(a, top) == full[: top + 1], (a, top)

    def test_truncated_integer_entries_give_integers(self):
        for top in range(6):
            e = linalg.charpoly(INTEGER_SIGMA, top)
            assert e == [1, 28, 284, 1327, 2876, 2316][: top + 1]
            assert all(type(x) is int for x in e)

    def test_top_above_dimension_gives_every_coefficient(self):
        assert linalg.charpoly(INTEGER_SIGMA, 9) == linalg.charpoly(INTEGER_SIGMA)

    def test_negative_top_is_rejected(self):
        with pytest.raises(ValueError):
            linalg.charpoly(INTEGER_SIGMA, -1)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            linalg.charpoly(((1, 2),))


def naive_power_traces(coeffs, kmax):
    """``tr A(t)^k`` for ``k = 1..kmax`` by repeated products of the matrix
    polynomial, coefficient by coefficient in ``t``."""
    p = len(coeffs[0])

    def product(x, y):
        return [[sum(x[r][j] * y[j][c] for j in range(p)) for c in range(p)] for r in range(p)]

    power, out = list(coeffs), []
    for k in range(1, kmax + 1):
        if k > 1:
            nxt = [[[0] * p for _ in range(p)] for _ in range(len(power) + len(coeffs) - 1)]
            for a, x in enumerate(power):
                for b, y in enumerate(coeffs):
                    z = product(x, y)
                    for r in range(p):
                        for c in range(p):
                            nxt[a + b][r][c] += z[r][c]
            power = nxt
        out.append([linalg.trace(x) for x in power])
    return out


class TestPowerSums:
    def test_matches_repeated_products(self, rng):
        # Fraction, int and symmetrised Fraction coefficients, mixed
        for p in range(1, 7):
            for degree in range(3):
                kinds = [
                    rational_matrix(rng, p, p),  # not symmetric
                    tuple(tuple(rng.randint(-5, 5) for _ in range(p)) for _ in range(p)),
                ]
                sym = rational_matrix(rng, p, p)
                kinds.append(tuple(tuple(x + y for x, y in zip(r, c)) for r, c in zip(sym, zip(*sym))))
                coeffs = [kinds[(degree + d) % 3] for d in range(degree + 1)]
                want = naive_power_traces(coeffs, 7)
                for kmax in range(1, 8):
                    assert linalg.power_sums(coeffs, kmax) == want[:kmax], (coeffs, kmax)

    def test_one_by_one(self):
        coeffs = [((Fraction(1, 2),),), ((3,),), ((-2,),)]  # 1/2 + 3t - 2t^2
        for kmax in range(1, 8):
            want = naive_power_traces(coeffs, kmax)
            assert linalg.power_sums(coeffs, kmax) == want
        assert linalg.power_sums([((2,),)], 3) == [[2], [4], [8]]

    def test_integer_entries_give_integers(self):
        sums = linalg.power_sums([INTEGER_SIGMA, linalg.identity(5)], 6)
        assert sums == naive_power_traces([INTEGER_SIGMA, linalg.identity(5)], 6)
        assert all(type(x) is int for s in sums for x in s)

    def test_order_zero_is_empty(self):
        assert linalg.power_sums([((2,),)], 0) == []
        assert linalg.power_sums([INTEGER_SIGMA, INTEGER_SIGMA], 0) == []

    def test_negative_order_is_rejected(self):
        with pytest.raises(ValueError):
            linalg.power_sums([((2,),)], -1)


class TestExactElimination:
    def test_integer_determinant_is_exact(self):
        assert linalg.det(INTEGER_SIGMA) == 2316

    def test_integer_inverse_is_exact(self):
        inverse = linalg.inverse(INTEGER_SIGMA)
        product = tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*inverse))
            for row in INTEGER_SIGMA
        )
        assert product == linalg.identity(5)


class TestBareissDet:
    """The column-subset oracle's fraction-free determinant against the top
    coefficient of the division-free characteristic polynomial."""

    def test_matches_charpoly_on_integer_matrices(self, rng):
        for _ in range(60):
            size = rng.randint(1, 6)
            a = tuple(tuple(rng.randint(-9, 9) for _ in range(size)) for _ in range(size))
            assert bareiss_det(a) == linalg.charpoly(a)[-1], a

    def test_zero_leading_pivot_swaps_rows(self):
        a = ((0, 2, 1), (3, 1, 4), (1, 5, 9))
        assert bareiss_det(a) == linalg.charpoly(a)[-1] == -32
        b = ((0, 0, 2, 1), (0, 3, 1, 4), (5, 1, 5, 9), (2, 6, 5, 3))
        assert bareiss_det(b) == linalg.charpoly(b)[-1] != 0

    def test_singular(self):
        dependent = ((1, 2, 3), (4, 5, 6), (5, 7, 9))  # third row is the sum of the others
        no_pivot = ((0, 1, 2), (0, 3, 4), (0, 5, 6))  # no row to swap in
        for a in (dependent, no_pivot):
            assert bareiss_det(a) == linalg.charpoly(a)[-1] == 0

    def test_empty_matrix(self):
        assert bareiss_det([]) == 1


def leading_minors_positive(a) -> bool:
    """Sylvester's criterion, the reference for the elimination pivots."""
    return all(linalg.det(linalg.submatrix(a, range(k), range(k))) > 0 for k in range(1, len(a) + 1))


class TestPositiveDefinite:
    def test_exact_pivots_follow_sylvester(self, rng):
        verdicts = set()
        for _ in range(200):
            p = rng.randint(1, 5)
            a = rational_matrix(rng, p, p, span=3, max_den=3)
            shift = rng.choice((0, 1, 2, 4, 8))
            sym = tuple(
                tuple(a[r][c] + a[c][r] + (shift if r == c else 0) for c in range(p)) for r in range(p)
            )
            expected = leading_minors_positive(sym)
            verdicts.add(expected)
            assert linalg.is_positive_definite(sym) is expected
        assert verdicts == {True, False}

    def test_exact_singular_and_indefinite_rejected(self):
        assert linalg.is_positive_definite(INTEGER_SIGMA)
        assert not linalg.is_positive_definite(((1, 1), (1, 1)))
        assert not linalg.is_positive_definite(((1, 2), (2, 1)))
        assert not linalg.is_positive_definite(((0, 0), (0, 1)))
        assert not linalg.is_positive_definite(((1, 0), (0, 0)))
