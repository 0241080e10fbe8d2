"""Exact linear algebra: the division-free characteristic polynomial against
principal-minor enumeration, exact elimination of integer entries, and the
positive-definiteness pivots against Sylvester's criterion."""

import pytest

from wishart_esf import linalg

from conftest import rational_matrix

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


class TestExactElimination:
    def test_integer_determinant_is_exact(self):
        assert linalg.det(INTEGER_SIGMA) == 2316

    def test_integer_inverse_is_exact(self):
        inverse = linalg.inverse(INTEGER_SIGMA)
        assert linalg.mat_mul(INTEGER_SIGMA, inverse) == linalg.identity(5)


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
