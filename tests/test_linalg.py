"""Exact linear algebra: the division-free characteristic polynomial against
principal-minor enumeration, and exact elimination of integer entries."""

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

    def test_requires_square(self):
        with pytest.raises(ValueError):
            linalg.charpoly(((1, 2),))


class TestExactElimination:
    def test_integer_determinant_is_exact(self):
        assert linalg.det(INTEGER_SIGMA) == 2316

    def test_integer_inverse_is_exact(self):
        inverse = linalg.inverse(INTEGER_SIGMA)
        assert linalg.mat_mul(INTEGER_SIGMA, inverse) == linalg.identity(5)
