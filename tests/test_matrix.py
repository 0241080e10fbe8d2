import math
from fractions import Fraction

import pytest

from wishart_esf import linalg
from wishart_esf.combinatorics import elementary_symmetric
from wishart_esf.matrix import UmbralMatrix
from wishart_esf.umbra import UmbralPolynomial, evaluate, indeterminates, singletons

from conftest import deltas, rational_full_spd, rational_matrix, similar


class TestBasicAlgebra:
    def test_identity_trace(self):
        for p in (1, 3, 5):
            assert UmbralMatrix.identity(p).trace() == p

    def test_trace_cyclic(self, rng):
        a = UmbralMatrix.from_rows(rational_matrix(rng, 2, 3))
        b = UmbralMatrix.from_rows(rational_matrix(rng, 3, 2))
        assert (a @ b).trace() == (b @ a).trace()

    def test_double_transpose(self, rng):
        a = UmbralMatrix.from_rows(rational_matrix(rng, 2, 3))
        assert a.transpose().transpose() == a

    def test_dimension_mismatch(self):
        a = UmbralMatrix.identity(2)
        b = UmbralMatrix.from_rows([[0, 0]] * 3)
        with pytest.raises(ValueError):
            a.matmul(b)
        with pytest.raises(ValueError):
            UmbralMatrix.from_rows([[0, 0, 0]] * 2).trace()


class TestDiagonalBuilders:
    def test_singleton_diag_trace_powers_give_esf(self):
        theta = indeterminates("th", 3)
        chi_mat = UmbralMatrix.diag(singletons(3, prefix="sm"))
        t = chi_mat.matmul(UmbralMatrix.diag(theta)).trace()
        for i in range(0, 4):
            got = evaluate(t.pow(i))
            want = math.factorial(i) * UmbralPolynomial.coerce(elementary_symmetric(theta, i))
            assert got == want

    def test_delta_square_matrix_similar_to_singleton_matrix(self):
        d = deltas(2, prefix="md")
        chi = singletons(2, prefix="mc")
        dmat = UmbralMatrix.diag(d)
        square = dmat.matmul(dmat)
        cmat = UmbralMatrix.diag(chi)
        for r in range(2):
            for c in range(2):
                left, right = square.get(r, c), cmat.get(r, c)
                if left == 0 and right == 0:
                    continue
                assert similar(left, right, 6)


class TestDeterminant:
    def test_identity(self):
        assert UmbralMatrix.identity(3).det() == 1

    def test_singleton_diagonal(self):
        chi_mat = UmbralMatrix.diag(singletons(4, prefix="dd"))
        assert evaluate(chi_mat.det()).as_scalar() == 1

    def test_singleton_times_scalar_matrix(self, rng):
        sigma = rational_matrix(rng, 3, 3)
        chi_mat = UmbralMatrix.diag(singletons(3, prefix="ds"))
        product = chi_mat.matmul(UmbralMatrix.from_rows(sigma))
        got = evaluate(product.det()).as_scalar()
        direct = UmbralMatrix.from_rows(sigma).det().as_scalar()
        assert got == direct

    def test_rank_deficient(self):
        m = UmbralMatrix.from_rows([[1, 2], [2, 4]])
        assert m.det() == 0

    def test_seven_by_seven_matches_elimination(self, rng):
        sigma = rational_full_spd(rng, 7)
        assert UmbralMatrix.from_rows(sigma).det().as_scalar() == linalg.det(sigma)

    def test_seven_by_seven_singleton_product(self, rng):
        sigma = rational_full_spd(rng, 7)
        chi_mat = UmbralMatrix.diag(singletons(7, prefix="d7"))
        product = chi_mat.matmul(UmbralMatrix.from_rows(sigma))
        assert evaluate(product.det()).as_scalar() == linalg.det(sigma)


class TestEigenbasisConjugation:
    def test_rotated_delta_conjugation_recovers_esf(self):
        # rational orthogonal rotation (3/5, 4/5) and rational spectrum
        q = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
        theta = (Fraction(1), Fraction(2))
        sigma = [
            [
                sum(q[r][k] * theta[k] * q[c][k] for k in range(2))
                for c in range(2)
            ]
            for r in range(2)
        ]
        d = deltas(2, prefix="rc")
        dmat = UmbralMatrix.diag(d)
        q_mat = UmbralMatrix.from_rows(q)
        rotated = dmat.matmul(q_mat.transpose())
        conj = rotated.matmul(UmbralMatrix.from_rows(sigma)).matmul(rotated.transpose())
        t = conj.trace()
        for i in range(0, 3):
            got = evaluate(t.pow(i)).as_scalar()
            want = math.factorial(i) * elementary_symmetric(theta, i)
            assert got == want

    def test_rotation_gram_similar_to_singleton_matrix(self):
        q = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
        d = deltas(2, prefix="rg")
        rotated = UmbralMatrix.diag(d).matmul(UmbralMatrix.from_rows(q).transpose())
        gram = rotated.matmul(rotated.transpose())
        chi = singletons(2, prefix="rx")
        cmat = UmbralMatrix.diag(chi)
        for r in range(2):
            for c in range(2):
                left, right = gram.get(r, c), cmat.get(r, c)
                if left == 0 and right == 0:
                    continue
                assert similar(left, right, 6)
