import gc
import math
import weakref
from fractions import Fraction
from operator import mul
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishart_esf import linalg, umbra, wishart
from wishart_esf.combinatorics import complete_bell, elementary_symmetric, falling_factorial
from wishart_esf.oracles import wick_expected_esf, wick_trace_moment
from wishart_esf.umbra import UmbralPolynomial, evaluate, falling
from wishart_esf.wishart import (
    WishartParams,
    expected_esf_closed_form,
    expected_esf_umbral,
    trace_cumulant,
    trace_moment,
)

from conftest import (
    NEARLY_SYMMETRIC_MEAN,
    NEARLY_SYMMETRIC_SIGMA,
    bell_coefficient,
    deltas,
    enumerate_partitions,
    esf_by_column_subsets,
    float_matrix,
    float_spd,
    gaussian,
    integer_polynomial,
    noncentral_chisq_cumulant,
    rational_diag_spd,
    rational_full_spd,
    rational_matrix,
    rational_vector,
    rect_diag_matrix,
    reference_mul,
    singleton_cross_term_identity,
    substitute_all,
    unpruned_pow,
)


class TestParams:
    def test_requires_n_at_least_p(self):
        with pytest.raises(ValueError):
            WishartParams(1, 2, linalg.identity(2))

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            WishartParams(3, 2, ((1, 1), (0, 1)))

    def test_requires_positive_definite(self):
        with pytest.raises(ValueError):
            WishartParams(3, 2, ((1, 2), (2, 1)))

    def test_float_positive_definiteness_does_not_depend_on_scale(self):
        # the 3x3 leading minor of the 1e-160 matrix underflows to 0
        base = ((2.0, 1.0, 0.0), (1.0, 2.0, 0.0), (0.0, 0.0, 3.0))
        indefinite = ((1.0, 2.0, 0.0), (2.0, 1.0, 0.0), (0.0, 0.0, 3.0))
        for scale in (1e-160, 1.0, 1e160):
            params = WishartParams(4, 3, [[x * scale for x in row] for row in base])
            assert params.mode == "float"
            with pytest.raises(ValueError, match="positive definite"):
                WishartParams(4, 3, [[x * scale for x in row] for row in indefinite])
        with pytest.raises(ValueError, match="positive definite"):
            WishartParams(3, 2, ((1.0, 1.0), (1.0, 1.0)))

    def test_symmetry_tolerance_scales_with_covariance(self):
        # 4e-16 relative is a few ulps at 1e5, far above an absolute 1e-12
        params = WishartParams(3, 2, ((2e5, 1e5), (1e5 * (1 + 4e-16), 3e5)))
        assert params.mode == "float"
        with pytest.raises(ValueError, match="symmetric"):
            WishartParams(3, 2, ((2e5, 1e5), (1.0001e5, 3e5)))
        with pytest.raises(ValueError, match="symmetric"):
            WishartParams(3, 2, ((2.0, 1.0), (1.0 + 1e-9, 3.0)))

    def test_symmetry_is_judged_at_the_covariance_scale(self):
        # the same matrices at every scale: an asymmetry of half the diagonal is
        # refused and one of two ulps accepted, below unit scale too
        asymmetric = ((2.0, 0.0), (1.0, 2.0))
        nearly = ((2.0, 1.0), (1.0 * (1 + 4e-16), 2.0))
        for scale in (1e-20, 1.0, 1e20):
            with pytest.raises(ValueError, match="symmetric"):
                WishartParams(3, 2, [[x * scale for x in row] for row in asymmetric])
            params = WishartParams(3, 2, [[x * scale for x in row] for row in nearly])
            assert params.mode == "float" and params.sigma[1][0] != params.sigma[0][1]
        assert WishartParams(4, 3, NEARLY_SYMMETRIC_SIGMA).mode == "float"

    def test_dimensions_must_be_integers(self):
        import numpy as np

        with pytest.raises(TypeError):
            WishartParams(3.9, 2, linalg.identity(2))
        with pytest.raises(TypeError):
            WishartParams("4", 2, linalg.identity(2))
        with pytest.raises(TypeError):
            WishartParams(3, 2.0, linalg.identity(2))
        params = WishartParams(np.int64(3), np.int32(2), linalg.identity(2))
        assert (params.n, params.p) == (3, 2) and type(params.n) is int
        assert WishartParams.symbolic(3, 2).n == 3

    def test_mode_detection(self):
        assert WishartParams(3, 2, linalg.identity(2)).mode == "rational"
        assert WishartParams(3, 2, ((1.0, 0.0), (0.0, 1.0))).mode == "float"

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            WishartParams(3, 2, ((1.0, float("nan")), (float("nan"), 2.0)))
        with pytest.raises(ValueError, match="finite"):
            WishartParams(3, 2, ((1.0, 0.0), (0.0, 1.0)), ((float("inf"), 0, 0), (0, 1, 0)))

    def test_exact_entries_beyond_float_range(self):
        import numpy as np

        big = 10**400
        params = WishartParams(3, 2, ((big, 0), (0, 1)))
        assert params.mode == "rational"
        for route in (expected_esf_closed_form, expected_esf_umbral, wick_expected_esf):
            assert route(params, 1) == 3 * (big + 1)
            assert route(params, 2) == 6 * big
        assert WishartParams(3, 2, ((Fraction(big, 3), 0), (0, 1))).mode == "rational"
        # a non-finite float is still rejected, numpy scalars included
        for bad in (np.float32("inf"), np.float64("nan")):
            with pytest.raises(ValueError, match="finite"):
                WishartParams(3, 2, ((big, 0), (0, bad)))

    def test_float_mode_with_exact_entry_beyond_float_range(self):
        # a float elsewhere makes the model float mode, where 10^400 has no
        # float: a ValueError naming rational mode, not an OverflowError
        big = 10**400
        with pytest.raises(ValueError, match="--mode rational"):
            WishartParams(3, 2, ((big, 0.5), (0.5, 1.0)))
        with pytest.raises(ValueError, match="--mode rational"):
            WishartParams(3, 2, ((1.0, 0.5), (0.5, 1.0)), ((Fraction(big, 3), 0, 0), (0, 1, 0)))

    def test_mean_shape_checked(self):
        with pytest.raises(ValueError):
            WishartParams(3, 2, linalg.identity(2), ((1, 0), (0, 1)))

    def test_every_row_is_shape_checked(self):
        # every row, not only the first: a ragged matrix must not reach a route
        with pytest.raises(ValueError, match="mean must be p x n"):
            WishartParams(3, 2, linalg.identity(2), ((1, 0, 0), (0,)))
        with pytest.raises(ValueError, match="mean must be p x n"):
            WishartParams(3, 2, linalg.identity(2), ((1, 0, 0), (0, 1, 0, 0)))
        for sigma in (((1, 0), (0,)), ((1, 0), (0, 1, 0)), (), ((), ())):
            with pytest.raises(ValueError, match="covariance must be p x p"):
                WishartParams(3, 2, sigma)


def _mean_indeterminates(params):
    # symbolic() lifts each mean entry from one indeterminate
    return [v for row in params.m for entry in row for (_, ind), _ in entry.terms() for v, _ in ind]


class TestCumulants:
    def test_numpy_integer_order(self):
        params = WishartParams.symbolic(2, 2)
        got, want = trace_cumulant(params, np.int64(2)), trace_cumulant(params, 2)
        assert got == want and str(got) == str(want)
        assert {type(c) for _, c in got.terms()} == {int}

    def test_central_cumulant_printed_form(self):
        # with the mean at zero, symbolic()'s Sigma = diag(theta) gives the
        # latent-root form (k-1)! 2^(k-1) sum_j x_j^(2k) sum_l y_l^(2k) theta_l^k
        params = WishartParams.symbolic(3, 2)
        means = _mean_indeterminates(params)
        y, x, th = params.y_vars, params.x_vars, params.theta_syms
        for k, factor in ((1, 1), (2, 2), (3, 8)):
            want = UmbralPolynomial.zero()
            for j in range(3):
                for l in range(2):
                    want = want + x[j] ** (2 * k) * y[l] ** (2 * k) * th[l] ** k
            got = substitute_all(trace_cumulant(params, k), means, [0] * len(means))
            assert got == want.scale(factor), k

    def test_dense_covariance_is_read_in_its_own_frame(self):
        # no latent roots: a dense covariance, even one whose roots are
        # rational (7 and 3 here) or float, gives sum_j sum_a x_j^2 y_a^2 sigma_aa
        # at k = 1 and 2 sum_j x_j^4 tr((D Sigma)^2) at k = 2, D = diag(y^2)
        split = ((Fraction(5), Fraction(2)), (Fraction(2), Fraction(5)))
        for sigma in (split, ((2.0, 0.5), (0.5, 1.0))):
            params = WishartParams(3, 2, sigma)
            y, x = params.y_vars, params.x_vars
            want1 = want2 = UmbralPolynomial.zero()
            for j in range(3):
                for a in range(2):
                    want1 = want1 + x[j] ** 2 * y[a] ** 2 * sigma[a][a]
                    for b in range(2):
                        want2 = want2 + x[j] ** 4 * y[a] ** 2 * y[b] ** 2 * (2 * sigma[a][b] ** 2)
            q1, q2 = trace_cumulant(params, 1), trace_cumulant(params, 2)
            assert q1 == want1 and q2 == want2
            assert "th" not in str(q1) + str(q2)
        params = WishartParams(3, 2, split)
        (y1, y2), x = params.y_vars, params.x_vars
        per_column = 50 * y1**4 + 16 * y1**2 * y2**2 + 50 * y2**4
        assert trace_cumulant(params, 2) == sum((x[j] ** 4 * per_column for j in range(3)), 0)

    def test_central_cumulant_at_unit_weights(self):
        n, p = 3, 2
        params = WishartParams(n, p, linalg.identity(p))
        weights = params.y_vars + params.x_vars
        q1 = substitute_all(trace_cumulant(params, 1), weights, [1] * len(weights))
        assert q1.as_scalar() == n * p

    def test_central_cumulant_zero_covariance_scale(self):
        params = WishartParams.symbolic(2, 2)
        # from k = 2 on every term carries a latent root, the mean's too
        for k in (2, 3):
            qk = substitute_all(trace_cumulant(params, k), params.theta_syms, [0] * 2)
            assert qk == 0

    def test_mean_cumulant_printed_form(self):
        # at k = 1, zero latent roots leave the mean part sum y_l^2 m_lj^2 x_j^2
        params = WishartParams.symbolic(3, 2)
        qt1 = substitute_all(trace_cumulant(params, 1), params.theta_syms, [0] * 2)
        y, x = params.y_vars, params.x_vars
        want = UmbralPolynomial.zero()
        for l in range(2):
            for j in range(3):
                mval = params.m[l][j]
                want = want + y[l] ** 2 * mval * mval * x[j] ** 2
        assert qt1 == want

    def test_mean_cumulant_zero_mean(self):
        # an explicit zero mean adds nothing; the two models have their own
        # weight indeterminates, with the same names
        central = WishartParams(3, 2, linalg.identity(2))
        zero_mean = WishartParams(3, 2, linalg.identity(2), ((0, 0, 0), (0, 0, 0)))
        for k in (1, 2, 3):
            assert str(trace_cumulant(zero_mean, k)) == str(trace_cumulant(central, k))

    def test_mean_cumulant_scalar_case(self):
        # p = n = 1, covariance (s2), mean (mval): order-2 value
        # 2 (s2^2 + 2 s2 mval^2) y^4 x^4, the mean part 4 y^4 x^4 s2 mval^2
        s2, mval = Fraction(3), Fraction(5)
        params = WishartParams(1, 1, ((s2,),), ((mval,),))
        q2 = trace_cumulant(params, 2)
        y, x = params.y_vars[0], params.x_vars[0]
        assert q2 == (2 * s2**2 + 4 * s2 * mval**2) * (y**4 * x**4)

    def test_mean_cumulant_dense_covariance_and_mean(self):
        # away from the diagonal, at rational weights: the k-th cumulant is
        # sum_j x_j^(2k) times the k-th cumulant of |D_y X_j|^2,
        # X_j ~ N(m_j, Sigma), and its mean part is what a mean-free model
        # of the same covariance lacks
        rng = Random(12)
        for _ in range(8):
            p = rng.randint(1, 3)
            n = rng.randint(p, 4)
            sigma = rational_full_spd(rng, p)
            m = rational_matrix(rng, p, n)
            params = WishartParams(n, p, sigma, m)
            central = WishartParams(n, p, sigma)
            yw = rational_vector(rng, p, span=2, max_den=2)
            xw = rational_vector(rng, n, span=2, max_den=2)
            s = [[yw[a] * sigma[a][b] * yw[b] for b in range(p)] for a in range(p)]
            for k in range(1, 5):
                full, mean_free = (
                    substitute_all(trace_cumulant(q, k), q.y_vars + q.x_vars, yw + xw).as_scalar()
                    for q in (params, central)
                )
                columns = [
                    noncentral_chisq_cumulant(s, [yw[l] * m[l][j] for l in range(p)], k)
                    for j in range(n)
                ]
                assert full == sum(xw[j] ** (2 * k) * c for j, c in enumerate(columns)), (p, n, k)
                central_part = noncentral_chisq_cumulant(s, [0] * p, k)
                assert full - mean_free == sum(
                    xw[j] ** (2 * k) * (c - central_part) for j, c in enumerate(columns)
                ), (p, n, k)

    def test_float_cumulant_coefficients_are_floats(self):
        # unit float entries scale by 1.0, which must not leave int coefficients
        params = WishartParams(3, 2, ((1.0, 0.0), (0.0, 2.0)), ((1.0, 0, 0), (0, 0.5, 0)))
        assert str(trace_cumulant(params, 2)) == (
            "6.0*y1^4*x1^4 + 2.0*y1^4*x2^4 + 2.0*y1^4*x3^4"
            " + 8.0*y2^4*x1^4 + 10.0*y2^4*x2^4 + 8.0*y2^4*x3^4"
        )
        for k in (1, 2, 3):
            assert all(type(c) is float for _, c in trace_cumulant(params, k).terms())

    def test_cumulant_additivity_and_mean_kill(self):
        # cumulants of independent columns add: a p=2, n=4 model is its two
        # 2-column halves, the second mean-free, at numeric weights
        rng = Random(9)
        for _ in range(3):
            sigma = rational_full_spd(rng, 2)
            m = rational_matrix(rng, 2, 2)
            whole = WishartParams(4, 2, sigma, [list(row) + [0, 0] for row in m])
            first, second = WishartParams(2, 2, sigma, m), WishartParams(2, 2, sigma)
            yw = rational_vector(rng, 2, span=2, max_den=2)
            xw = rational_vector(rng, 4, span=2, max_den=2)
            for k in (1, 2, 3):
                got, a, b = (
                    substitute_all(trace_cumulant(q, k), q.y_vars + q.x_vars, yw + x).as_scalar()
                    for q, x in ((whole, xw), (first, xw[:2]), (second, xw[2:]))
                )
                assert got == a + b, k

    def test_cumulant_bidegree(self):
        params = WishartParams(
            3,
            2,
            ((Fraction(1), 0), (0, Fraction(2))),
            ((Fraction(1), Fraction(1, 2), 0), (0, Fraction(2), Fraction(1))),
        )
        y_vars = set(params.y_vars)
        x_vars = set(params.x_vars)
        for k in (1, 2, 3):
            ck = trace_cumulant(params, k)
            for (ub, ind), _ in ck.terms():
                assert not ub
                ydeg = sum(e for v, e in ind if v in y_vars)
                xdeg = sum(e for v, e in ind if v in x_vars)
                assert ydeg == 2 * k
                assert xdeg == 2 * k


class TestTraceMoment:
    def test_first_moment_is_first_cumulant(self):
        params = WishartParams.symbolic(3, 2)
        assert trace_moment(params, 1) == trace_cumulant(params, 1)

    def test_scalar_second_moment(self):
        theta = Fraction(5)
        params = WishartParams(1, 1, ((theta,),))
        got = trace_moment(params, 2)
        y, x = params.y_vars[0], params.x_vars[0]
        assert got == 3 * theta**2 * (y**4 * x**4)

    def test_trace_moment_vs_pairing_oracle(self):
        rng = Random(2024)
        for _ in range(4):
            sigma = rational_diag_spd(rng, 2)
            m = rational_matrix(rng, 2, 2, span=2, max_den=2)
            params = WishartParams(2, 2, sigma, m)
            yw = rational_vector(rng, 2, span=2, max_den=2)
            xw = rational_vector(rng, 2, span=2, max_den=2)
            for i in (1, 2):
                poly = substitute_all(trace_moment(params, i), params.y_vars + params.x_vars, yw + xw)
                assert poly.as_scalar() == wick_trace_moment(params, yw, xw, i)
        # a dense covariance, central and with a dense mean, at unequal weights
        rng = Random(125)
        for central in (True, False):
            sigma = rational_full_spd(rng, 2)
            m = None if central else rational_matrix(rng, 2, 2, span=2, max_den=2)
            params = WishartParams(2, 2, sigma, m)
            yw = rational_vector(rng, 2, span=2, max_den=2)
            xw = rational_vector(rng, 2, span=2, max_den=2)
            assert sigma[0][1] and (central or all(map(all, m)))
            assert 0 < yw[0] ** 2 != yw[1] ** 2 > 0 and 0 < xw[0] ** 2 != xw[1] ** 2 > 0
            for i in (1, 2):
                poly = substitute_all(trace_moment(params, i), params.y_vars + params.x_vars, yw + xw)
                assert poly.as_scalar() == wick_trace_moment(params, yw, xw, i), (central, i)


class TestDeltaPruning:
    def test_bell_combination_collapses_to_first_cumulant_power(self):
        # with 1,0,1,0,... umbrae substituted, every partition term except
        # the all-ones one dies at evaluation; checked with unpruned products
        rng = Random(11)
        for p, n in ((2, 2), (2, 3), (3, 4), (4, 4)):
            sigma_diag = rational_diag_spd(rng, p)
            mvals = rational_vector(rng, p, span=2, max_den=2)
            params = WishartParams(n, p, sigma_diag, rect_diag_matrix(mvals, p, n))
            weights = params.y_vars + params.x_vars
            delta_weights = deltas(p) + deltas(n)
            for i in range(1, min(p, 3) + 1):
                cumulants = [
                    substitute_all(trace_cumulant(params, k), weights, delta_weights)
                    for k in range(1, i + 1)
                ]
                bell = UmbralPolynomial.zero()
                for q in enumerate_partitions(i):
                    term = UmbralPolynomial.constant(bell_coefficient(q))
                    for part, mult in q.parts:
                        for _ in range(mult):
                            term = reference_mul(term, cumulants[part - 1], prune=False)
                    bell = bell + term
                assert evaluate(bell) == evaluate(unpruned_pow(cumulants[0], i))

    def test_delta_weights_give_the_model_expectation(self):
        # the paper's mechanism on the model itself, not on a canonical
        # problem: with 1,0,1,0,... umbrae in the weights, evaluating the
        # i-th moment of the weighted squared trace leaves i! E[e_i(W)]
        rng = Random(4)
        for _ in range(12):
            p = rng.randint(1, 5)
            n = rng.randint(p, 6)
            sigma = rational_diag_spd(rng, p)
            m = rect_diag_matrix(rational_vector(rng, p, span=2, max_den=3), p, n)
            params = WishartParams(n, p, sigma, m)
            weights = params.y_vars + params.x_vars
            delta_weights = deltas(p) + deltas(n)
            for i in range(1, p + 1):
                cumulants = [
                    substitute_all(trace_cumulant(params, k), weights, delta_weights)
                    for k in range(1, i + 1)
                ]
                got = evaluate(complete_bell(cumulants)).as_scalar()
                assert got == math.factorial(i) * expected_esf_closed_form(params, i), (p, n, i)


class TestUmbralRoute:
    def test_identity_covariance_identity(self):
        for p in range(1, 5):
            for n in range(max(p, 4), 7):
                params = WishartParams(n, p, linalg.identity(p))
                for i in range(1, p + 1):
                    got = expected_esf_umbral(params, i)
                    want = Fraction(
                        falling_factorial(n, i) * falling_factorial(p, i), math.factorial(i)
                    )
                    assert got == want

    def test_central_diagonal_exact(self, rng):
        for _ in range(6):
            p = rng.randint(1, 4)
            n = rng.randint(p, 6)
            sigma = rational_diag_spd(rng, p)
            params = WishartParams(n, p, sigma)
            for i in range(1, p + 1):
                want = falling_factorial(n, i) * linalg.principal_minor_sum(sigma, i)
                assert expected_esf_umbral(params, i) == want

    def test_central_full_exact_symbolic_latents(self, rng):
        for _ in range(4):
            p = rng.randint(2, 4)
            n = rng.randint(p, 6)
            sigma = rational_full_spd(rng, p)
            params = WishartParams(n, p, sigma)
            for i in range(1, p + 1):
                want = falling_factorial(n, i) * linalg.principal_minor_sum(sigma, i)
                assert expected_esf_umbral(params, i) == want

    def test_scalar_mean_instance(self):
        params = WishartParams(1, 1, ((Fraction(1),),), ((Fraction(3),),))
        assert expected_esf_umbral(params, 1) == 10
        assert wick_expected_esf(params, 1) == 10

    def test_kernel_coefficients_are_falling_factorials(self):
        # the canonical problem for coefficient k has E[e_i(W)] = a_k itself,
        # so each run must give i! a_k = i! (n-k)_(i-k) directly
        for n in range(1, 17):
            for i in range(n + 1):
                for k in range(i + 1):
                    want = math.factorial(i) * falling_factorial(n - k, i - k)
                    assert wishart._canonical_kernel(n, i, k) == want, (n, i, k)

    def test_kernel_power_chain_runs_without_mul(self, monkeypatch):
        # building c_1 multiplies weights; raising it to the i-th power must
        # not fall back to one mul per step
        packed_pow = UmbralPolynomial.pow
        orders = []

        def refuse(*args, **kwargs):
            raise AssertionError("pow called mul")

        def guarded_pow(poly, k):
            orders.append(k)
            with monkeypatch.context() as patch:
                patch.setattr(UmbralPolynomial, "mul", refuse)
                return packed_pow(poly, k)

        monkeypatch.setattr(UmbralPolynomial, "pow", guarded_pow)
        assert wishart._canonical_kernel(6, 5, 5) == 120
        assert orders == [5]

    def test_numpy_and_int_entries(self):
        import numpy as np

        sigma, m = [[2, 1], [1, 3]], [[1, 0, 0, 0], [0, 2, 0, 0]]
        floating = expected_esf_umbral(WishartParams(4, 2, np.array(sigma), np.array(m)), 2)
        assert type(floating) is float and floating == 97.0
        exact = expected_esf_umbral(WishartParams(4, 2, sigma, m), 2)
        assert type(exact) is Fraction and exact == 97

    def test_orders_outside_range(self):
        params = WishartParams(3, 2, linalg.identity(2))
        assert expected_esf_umbral(params, 0) == 1
        assert expected_esf_umbral(params, 3) == 0

    @pytest.mark.parametrize("route", [expected_esf_umbral, expected_esf_closed_form, wick_expected_esf])
    def test_orders_must_be_integers(self, route):
        import numpy as np

        params = WishartParams(3, 2, linalg.identity(2))
        # above p such an order used to read as zero
        for order in (2.5, 3.0, Fraction(3), 2.0):
            with pytest.raises(TypeError):
                route(params, order)
        assert route(params, np.int64(2)) == route(params, 2) == 6

    def test_umbrae_of_a_finished_computation_are_freed(self, monkeypatch):
        falling_refs = []

        def recording_falling(count, name):
            fresh = falling(count, name=name)
            falling_refs.append(weakref.ref(fresh))
            return fresh

        monkeypatch.setattr(wishart, "falling", recording_falling)
        cases = [
            WishartParams(3, 2, ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)))),
            WishartParams(3, 2, linalg.identity(2), ((Fraction(1), 0, 0), (0, Fraction(2), 0))),
            WishartParams(3, 2, ((2.0, 0.5), (0.5, 1.0)), ((1.0, 0.5, 0.0), (0.0, 1.0, 2.0))),
        ]
        for params in cases:
            for i in (1, 2):
                expected_esf_umbral(params, i)
        gc.collect()
        assert falling_refs and all(ref() is None for ref in falling_refs)

    def test_rationally_split_covariance_stays_exact(self):
        sigma = ((Fraction(5), Fraction(2)), (Fraction(2), Fraction(5)))
        params = WishartParams(4, 2, sigma)
        assert expected_esf_umbral(params, 2) == falling_factorial(4, 2) * 21


class TestClosedForm:
    def test_central_diagonal_example(self):
        sigma = ((Fraction(1), 0), (0, Fraction(2)))
        params = WishartParams(3, 2, sigma)
        assert expected_esf_closed_form(params, 2) == 12

    def test_scaled_identity_against_pairings(self, rng):
        for s2 in (Fraction(1), Fraction(1, 4), Fraction(9)):
            sigma = tuple(
                tuple(s2 if r == c else Fraction(0) for c in range(2)) for r in range(2)
            )
            m = rational_matrix(rng, 2, 3, span=2, max_den=2)
            params = WishartParams(3, 2, sigma, m)
            for i in (1, 2):
                assert expected_esf_closed_form(params, i) == wick_expected_esf(params, i)

    def test_full_order_against_pairings(self, rng):
        for _ in range(4):
            sigma = rational_full_spd(rng, 2)
            m = rational_matrix(rng, 2, 3, span=2, max_den=2)
            params = WishartParams(3, 2, sigma, m)
            assert expected_esf_closed_form(params, 2) == wick_expected_esf(params, 2)

    def test_general_form_index_binding_vs_pairings(self, rng):
        # the inner elementary symmetric order follows the outer
        # falling-factorial index; exact pairing expansion pins it down
        for _ in range(6):
            p = rng.randint(1, 2)
            n = rng.randint(p, 3)
            sigma = rational_diag_spd(rng, p)
            m = rational_matrix(rng, p, n, span=2, max_den=2)
            params = WishartParams(n, p, sigma, m)
            for i in range(1, p + 1):
                assert expected_esf_closed_form(params, i) == wick_expected_esf(params, i)


@st.composite
def rational_instances(draw):
    """Rational parameters in every regime: diagonal, scalar-identity or dense
    covariance, with a zero, rectangular-diagonal, rank-1, zero-row or dense
    mean."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(p, p + 2))
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    low = [[draw(entries) for _ in range(p)] for _ in range(p)]
    dense = tuple(
        tuple(sum(low[k][r] * low[k][c] for k in range(p)) + (r == c) for c in range(p))
        for r in range(p)
    )
    s2 = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
    sigma = draw(
        st.sampled_from(
            [
                dense,
                tuple(tuple(s2 if r == c else 0 for c in range(p)) for r in range(p)),
                tuple(tuple(dense[r][c] if r == c else 0 for c in range(p)) for r in range(p)),
            ]
        )
    )
    full = [[draw(entries) for _ in range(n)] for _ in range(p)]
    u = [draw(entries) for _ in range(p)]
    zero_row = draw(st.integers(0, p - 1))
    m = draw(
        st.sampled_from(
            [
                None,
                rect_diag_matrix([draw(entries) for _ in range(p)], p, n),
                tuple(tuple(u[r] * full[0][c] for c in range(n)) for r in range(p)),
                tuple(tuple(0 if r == zero_row else x for x in full[r]) for r in range(p)),
                tuple(map(tuple, full)),
            ]
        )
    )
    return WishartParams(n, p, sigma, m)


class TestIntegerPencil:
    def test_pencil_is_the_scaled_model(self, rng):
        import numpy as np

        # float entries whose exponents spread over 1e-150..1
        spread_sigma = [[1.0, 0, 0, 0.1], [0, 3e-50, 0, 0], [0, 0, 2.5e-150, 0], [0.1, 0, 0, 0.7]]
        spread_m = [
            [1e-120, 0.5, 0, 0, 0],
            [0, 0, 3.25e-7, 0, 0],
            [0, 0, 0, 1e-90, 0],
            [0.3, 0, 0, 0, 2.0],
        ]
        cases = [
            WishartParams(5, 3, rational_full_spd(rng, 3), rational_matrix(rng, 3, 5)),
            WishartParams(4, 3, float_spd(rng, 3), float_matrix(rng, 3, 4)),
            WishartParams(5, 4, spread_sigma, spread_m),
            WishartParams(4, 2, np.array([[2, 1], [1, 3]]), np.array([[1, 0, 0, 0], [0, 2, 0, 5]])),
            WishartParams(4, 3, rational_full_spd(rng, 3)),
        ]
        for params in cases:
            s, a, b = wishart._integer_pencil(params)
            m = [[Fraction(x) for x in row] for row in params.m or [[0] * params.n] * params.p]
            mmt = [[sum(x * y for x, y in zip(r1, r2)) for r2 in m] for r1 in m]
            assert type(s) is int and s > 0
            assert [[s * Fraction(x) for x in row] for row in params.sigma] == a
            assert [[s * x for x in row] for row in mmt] == b
            assert all(type(x) is int for mat in (a, b) for row in mat for x in row)

    def test_large_numpy_integers_do_not_wrap(self):
        # numpy int64 entries must be read as Python ints: at 3e9 the
        # pencil's products pass 2^63
        import numpy as np

        big = 3_000_000_000
        params = WishartParams(2, 2, np.array([[big, 0], [0, big]]), np.array([[big, 0], [0, 1]]))
        want = float(big**3 + 3 * big**2 + big)
        assert expected_esf_umbral(params, 2) == want
        assert expected_esf_closed_form(params, 2) == want

    def test_closed_form_builds_no_fraction_per_entry(self, rng, monkeypatch):
        # work guard: the pencil is integer, so the closed form makes one
        # Fraction for its final division and guard_order one more
        made = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        params = WishartParams(9, 7, rational_full_spd(rng, 7), rational_matrix(rng, 7, 9))
        want = expected_esf_closed_form(params, 4)
        monkeypatch.setattr(wishart, "Fraction", CountingFraction)
        assert expected_esf_closed_form(params, 4) == want
        assert len(made) <= 2


class TestClosedFormWork:
    """Work guards: one order costs what that order needs."""

    @staticmethod
    def _count_charpoly(monkeypatch):
        calls = []
        full = linalg.charpoly

        def counting(a, top=None):
            calls.append(top)
            return full(a, top)

        monkeypatch.setattr(linalg, "charpoly", counting)
        return calls

    def test_central_profile_makes_one_call_per_order(self, rng, monkeypatch):
        # with B = 0, e_i(A + tB) is constant in t: one point per order
        params = WishartParams(9, 7, rational_full_spd(rng, 7))
        want = [expected_esf_closed_form(params, i) for i in range(9)]
        calls = self._count_charpoly(monkeypatch)
        assert [expected_esf_closed_form(params, i) for i in range(9)] == want
        assert calls == list(range(1, 8))

    def test_noncentral_profile_stops_at_the_order(self, rng, monkeypatch):
        # one run per order on the packed pencil A + 2^K B, stopped at e_i
        params = WishartParams(9, 7, rational_full_spd(rng, 7), rational_matrix(rng, 7, 9))
        want = [expected_esf_closed_form(params, i) for i in range(9)]
        calls = self._count_charpoly(monkeypatch)
        assert [expected_esf_closed_form(params, i) for i in range(9)] == want
        assert calls == list(range(1, 8))


def symmetric_integers(rng, p: int, bound: int):
    low = [[rng.randint(-bound, bound) for _ in range(p)] for _ in range(p)]
    return [[low[min(r, c)][max(r, c)] for c in range(p)] for r in range(p)]


def interpolated_esf(a, b, i: int) -> list[int]:
    """Coefficients of ``e_i(A + t B)`` from ``charpoly`` at ``t = 0..i``."""
    values = [
        linalg.charpoly([[x + t * y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)], i)[i]
        for t in range(i + 1)
    ]
    return integer_polynomial(values)


class TestPencilDecode:
    """The coefficients of ``e_i(A + t B)`` read off one run on the packed
    pencil ``A + 2^K B`` against interpolation of ``charpoly`` at ``t = 0..i``."""

    def test_packed_digits_match_interpolation(self, rng):
        signs = set()
        for _ in range(60):
            p = rng.randint(1, 6)
            # symmetric and indefinite; a zero B is the central pencil
            a = symmetric_integers(rng, p, rng.choice((3, 2**20, 2**64)))
            b = symmetric_integers(rng, p, rng.choice((0, 3, 2**20, 2**64)))
            for i in range(1, p + 1):
                coeffs = wishart._pencil_esf(a, b, i)
                assert coeffs == interpolated_esf(a, b, i), (a, b, i)
                signs.update((c > 0) - (c < 0) for c in coeffs)
        assert signs == {-1, 0, 1}

    def test_entries_at_two_to_the_64(self):
        # every entry at +-2^64, the widest the random draws reach
        big = 2**64
        for p in range(1, 7):
            a = [[big] * p for _ in range(p)]
            b = [[-big if r == c else big for c in range(p)] for r in range(p)]
            for i in range(1, p + 1):
                assert wishart._pencil_esf(a, b, i) == interpolated_esf(a, b, i)

    def test_value_above_the_top_digit_raises(self, monkeypatch):
        a, b = [[2, 1], [1, 3]], [[1, 0], [0, 1]]
        full = linalg.charpoly

        def shifted(m, top=None):
            e = full(m, top)
            return e[:-1] + [e[-1] + (1 << 10_000)]

        monkeypatch.setattr(linalg, "charpoly", shifted)
        with pytest.raises(ArithmeticError):
            wishart._pencil_esf(a, b, 2)


class TestUmbralWork:
    """Work guards: one product per kernel run, and a central pencil that
    reads only the covariance."""

    def test_kernel_run_makes_one_product(self, monkeypatch):
        packed_mul = UmbralPolynomial.mul
        calls = []

        def counting(poly, other):
            calls.append(1)
            return packed_mul(poly, other)

        monkeypatch.setattr(UmbralPolynomial, "mul", counting)
        for i in range(1, 7):
            for k in range(i + 1):
                calls.clear()
                assert wishart._canonical_kernel(7, i, k) == math.factorial(i) * falling_factorial(7 - k, i - k)
                assert len(calls) == 1, (i, k)

    def test_central_pencil_reads_only_the_covariance(self, rng, monkeypatch):
        params = WishartParams(6, 4, rational_full_spd(rng, 4))
        want = wishart._integer_pencil(params)
        read = []
        ratio = wishart._integer_ratio

        def counting(x):
            read.append(x)
            return ratio(x)

        monkeypatch.setattr(wishart, "_integer_ratio", counting)
        assert wishart._integer_pencil(params) == want
        assert len(read) == 16


class TestColumnCollapse:
    """The columns the mean leaves untouched share one falling-factorial
    umbra, and cumulants past the first are not built under delta weights."""

    def test_central_p8_n10_equals_closed_form(self):
        rng = Random(8)
        for sigma in (rational_diag_spd(rng, 8), rational_full_spd(rng, 8)):
            params = WishartParams(10, 8, sigma)
            for i in range(1, 9):
                assert expected_esf_umbral(params, i) == expected_esf_closed_form(params, i)

    def test_scalar_identity_mean_with_untouched_columns(self):
        # columns 2, 5 and 6 are free: one from a zero diagonal entry, two past p
        s2 = Fraction(3, 2)
        sigma = tuple(tuple(s2 if r == c else Fraction(0) for c in range(4)) for r in range(4))
        m = rect_diag_matrix((Fraction(2), Fraction(0), Fraction(-1, 3), Fraction(5, 2)), 4, 6)
        params = WishartParams(6, 4, sigma, m)
        for i in range(1, 5):
            value = expected_esf_umbral(params, i)
            assert type(value) is Fraction and value == expected_esf_closed_form(params, i)

    def test_float_general_noncentral_minor_sum(self):
        # dense covariance and a dense mean with a zero column: both routes are
        # exact on the float inputs, so both values are correctly rounded
        sigma = ((2.0, 0.5, -0.25), (0.5, 1.5, 0.125), (-0.25, 0.125, 1.0))
        m = ((1.0, 0.0, -0.5, 0.25), (0.5, 0.0, 1.0, -1.0), (0.0, 0.0, 0.75, 2.0))
        params = WishartParams(4, 3, sigma, m)
        for i in range(1, 4):
            u = expected_esf_umbral(params, i)
            assert type(u) is float and u == expected_esf_closed_form(params, i)

    def test_central_expansion_stays_small(self, monkeypatch):
        # deterministic work guard: a delta umbra per column forms about
        # 3.5 million operand term pairs here, the collapsed rows and columns 8
        pairs = []
        original = UmbralPolynomial.mul

        def counting(self, other):
            pairs.append(len(self.terms()) * len(UmbralPolynomial.coerce(other).terms()))
            return original(self, other)

        monkeypatch.setattr(UmbralPolynomial, "mul", counting)
        params = WishartParams(10, 8, rational_diag_spd(Random(8), 8))
        expected_esf_umbral(params, 8)
        assert 0 < sum(pairs) <= 10_000

    def test_noncentral_expansion_stays_small(self, monkeypatch):
        # deterministic work guard on the packed pair loop of mul and pow:
        # canonical runs with a delta umbra per mean pair form about 4.3
        # million term pairs here, one run per coefficient 830
        pairs = []
        original = umbra._product

        def counting(left, right, guard):
            left = list(left)
            pairs.append(len(left) * len(right))
            return original(left, right, guard)

        monkeypatch.setattr(umbra, "_product", counting)
        sigma = tuple(tuple(Fraction(3, 2) if r == c else 0 for c in range(8)) for r in range(8))
        m = rect_diag_matrix([Fraction(l + 1, 2) for l in range(8)], 8, 10)
        params = WishartParams(10, 8, sigma, m)
        assert expected_esf_umbral(params, 8) == expected_esf_closed_form(params, 8)
        assert 0 < sum(pairs) <= 2_000


class TestRouteAgreement:
    @given(rational_instances())
    @settings(max_examples=25, deadline=None)
    def test_closed_form_equals_umbral_exactly(self, params):
        for i in range(1, params.p + 1):
            closed = expected_esf_closed_form(params, i)
            assert isinstance(closed, Fraction)
            assert expected_esf_umbral(params, i) == closed

    def test_integer_covariance_stays_exact(self):
        sigma = (
            (4, 0, 0, 2, -1),
            (0, 7, -1, 3, -1),
            (0, -1, 5, -1, 0),
            (2, 3, -1, 7, -3),
            (-1, -1, 0, -3, 5),
        )
        params = WishartParams(6, 5, sigma)
        closed = expected_esf_closed_form(params, 5)
        assert closed == 1667520 and isinstance(closed, Fraction)
        assert expected_esf_umbral(params, 5) == closed

    def test_covariance_symmetric_within_tolerance(self):
        # both routes read the accepted covariance as given, like the oracle
        sigma = NEARLY_SYMMETRIC_SIGMA
        assert sigma[1][0] != sigma[0][1]
        for m in (None, NEARLY_SYMMETRIC_MEAN):
            params = WishartParams(4, 3, sigma, m)
            assert params.mode == "float"
            for i in range(1, 4):
                want = float(esf_by_column_subsets(4, sigma, m, i))
                assert expected_esf_closed_form(params, i) == want, (m, i)
                assert expected_esf_umbral(params, i) == want, (m, i)

    def test_value_type_follows_mode(self):
        # unit float entries keep the kernel's coefficients integer inside the route
        floats = WishartParams(3, 2, ((1.0, 0.0), (0.0, 1.0)))
        exact = WishartParams(3, 2, linalg.identity(2))
        for route in (expected_esf_umbral, expected_esf_closed_form, wick_expected_esf):
            for i, want in ((0, 1), (1, 6), (2, 6), (3, 0)):
                value = route(floats, i)
                assert type(value) is float and value == want, (route.__name__, i)
                value = route(exact, i)
                assert type(value) is Fraction and value == want, (route.__name__, i)

    def test_coprime_denominators_stay_exact(self):
        # the kernel clears these denominators and divides them back out
        third = Fraction(1, 3)
        central = ((Fraction(1, 7), 0, 0), (0, Fraction(2, 11), 0), (0, 0, Fraction(3, 13)))
        s2 = Fraction(3, 7)
        scalar = tuple(tuple(s2 if r == c else 0 for c in range(3)) for r in range(3))
        mean = rect_diag_matrix((Fraction(2, 5), Fraction(1, 9), Fraction(4, 5) + third), 3, 4)
        for sigma, m in ((central, None), (scalar, mean)):
            exact = WishartParams(4, 3, sigma, m)
            floats = WishartParams(
                4,
                3,
                [[float(x) for x in row] for row in sigma],
                None if m is None else [[float(x) for x in row] for row in m],
            )
            for i in range(4):
                closed = expected_esf_closed_form(exact, i)
                value = expected_esf_umbral(exact, i)
                assert type(value) is Fraction and value == closed
                approx = expected_esf_umbral(floats, i)
                assert type(approx) is float
                assert abs(approx - closed) <= 1e-8 * max(1, abs(closed))

    def test_rational_regimes_agree_exactly(self, rng):
        for _ in range(5):
            p = rng.randint(1, 3)
            n = rng.randint(p, 5)
            sigma = rational_diag_spd(rng, p)
            params = WishartParams(n, p, sigma)
            for i in range(1, p + 1):
                assert expected_esf_umbral(params, i) == expected_esf_closed_form(params, i)

    def test_scaled_identity_with_rect_diag_mean_exact(self, rng):
        for s2 in (Fraction(1), Fraction(1, 4), Fraction(9)):
            p = rng.randint(1, 3)
            n = rng.randint(p, 5)
            sigma = tuple(
                tuple(s2 if r == c else Fraction(0) for c in range(p)) for r in range(p)
            )
            m = rect_diag_matrix(rational_vector(rng, p, span=3, max_den=2), p, n)
            params = WishartParams(n, p, sigma, m)
            for i in range(1, p + 1):
                assert expected_esf_umbral(params, i) == expected_esf_closed_form(params, i)

    def test_float_svd_regimes_agree_to_tolerance(self, rng):
        # dense float covariance and mean: both routes are exact on the float
        # inputs, so both give the correctly rounded value
        from conftest import float_matrix, float_spd

        for _ in range(3):
            p = rng.randint(2, 3)
            n = rng.randint(p, 4)
            sigma = float_spd(rng, p)
            m = float_matrix(rng, p, n)
            params = WishartParams(n, p, sigma, m)
            for i in range(1, p + 1):
                u = expected_esf_umbral(params, i)
                assert type(u) is float and u == expected_esf_closed_form(params, i)

    def test_rational_general_noncentral_is_exact(self, rng):
        for _ in range(3):
            p = rng.randint(2, 4)
            n = rng.randint(p, p + 2)
            params = WishartParams(n, p, rational_full_spd(rng, p), rational_matrix(rng, p, n))
            for i in range(1, p + 1):
                value = expected_esf_umbral(params, i)
                assert type(value) is Fraction and value == expected_esf_closed_form(params, i)

    def test_no_factorization_on_any_regime(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the umbral route called a factorization")

        for name in ("rational_eigenvalues", "singular_values", "sym_inv_sqrt"):
            monkeypatch.setattr(linalg, name, refuse)
        rng = Random(3)
        dense = rational_full_spd(rng, 3)
        scalar = tuple(tuple(Fraction(2) if r == c else 0 for c in range(3)) for r in range(3))
        means = (None, rect_diag_matrix((1, 0, Fraction(1, 2)), 3, 4), rational_matrix(rng, 3, 4))
        for sigma in (rational_diag_spd(rng, 3), scalar, dense):
            for m in means:
                for floats in (False, True):
                    if floats:
                        sigma_in = [[float(x) for x in row] for row in sigma]
                        m_in = m and [[float(x) for x in row] for row in m]
                    else:
                        sigma_in, m_in = sigma, m
                    params = WishartParams(4, 3, sigma_in, m_in)
                    for i in range(4):
                        assert expected_esf_umbral(params, i) == expected_esf_closed_form(params, i)


def mean_of_rank(rng: Random, p: int, n: int, rank: int, scale):
    """``A B`` with ``A`` p x rank and ``B`` rank x n, both with an identity
    block on top, so the product has rank exactly ``rank``; ``scale`` maps a
    small integer to an entry."""

    a = [[scale(int(r == c) if r < rank else rng.randint(-3, 3)) for c in range(rank)] for r in range(p)]
    b = [[scale(int(r == c) if c < rank else rng.randint(-3, 3)) for c in range(n)] for r in range(rank)]
    return tuple(tuple(sum(a[r][t] * b[t][c] for t in range(rank)) for c in range(n)) for r in range(p))


class TestColumnSubsetOracle:
    """Both routes against an exact oracle that shares neither their
    ``t``-pencil reduction nor their coefficients ``a_k``."""

    def test_oracle_matches_pairings(self):
        rng = Random(70)
        for p, n in ((1, 3), (2, 2), (2, 3)):
            for _ in range(3):
                sigma, m = rational_full_spd(rng, p), rational_matrix(rng, p, n)
                params = WishartParams(n, p, sigma, m)
                for i in range(p + 1):
                    if p * n * i <= 12:
                        assert esf_by_column_subsets(n, sigma, m, i) == wick_expected_esf(params, i)

    def test_routes_match_on_whole_profiles_by_mean_rank(self):
        # dense covariance; means of every rank 0..p up to p = 5, and of ranks
        # 0, 1 and p at p = 6 and 7, where the oracle's minors are up to 7 x 7;
        # exact and float entries, the float ones small dyadic multiples so
        # that A B has rank exactly r
        rng = Random(7)
        for p in range(1, 8):
            n = p + 1
            for rank in range(p + 1) if p <= 5 else (0, 1, p):
                for floats in (False, True):
                    if floats:
                        sigma = float_spd(rng, p)
                        m = mean_of_rank(rng, p, n, rank, lambda k: k / 8)
                    else:
                        sigma = rational_full_spd(rng, p)
                        m = mean_of_rank(rng, p, n, rank, lambda k: Fraction(k, rng.randint(1, 3)))
                    exact = [[Fraction(x) for x in row] for row in m]
                    gram = [[sum(map(mul, r1, r2)) for r2 in exact] for r1 in exact]
                    assert linalg.principal_minor_sum(gram, rank) != 0
                    assert linalg.principal_minor_sum(gram, rank + 1) == 0
                    params = WishartParams(n, p, sigma, m)
                    for i in range(p + 1):
                        want = esf_by_column_subsets(n, sigma, m, i)
                        if floats:
                            want = float(want)
                        assert expected_esf_umbral(params, i) == want, (p, rank, floats, i)
                        assert expected_esf_closed_form(params, i) == want, (p, rank, floats, i)


class TestQuadraticFormCumulants:
    def test_first_cumulant_is_trace_plus_norm(self, rng):
        for _ in range(5):
            p = rng.randint(1, 3)
            sigma = rational_full_spd(rng, p)
            m = rational_vector(rng, p)
            got = noncentral_chisq_cumulant(sigma, m, 1)
            assert got == linalg.trace(sigma) + sum(v * v for v in m)

    def test_identity_covariance_zero_mean(self):
        for p in (1, 2, 3):
            sigma = linalg.identity(p)
            for k in range(1, 5):
                got = noncentral_chisq_cumulant(sigma, [0] * p, k)
                assert got == math.factorial(k - 1) * 2 ** (k - 1) * p

    def test_second_cumulant_diagonal(self):
        sigma = ((Fraction(2), 0), (0, Fraction(5)))
        assert noncentral_chisq_cumulant(sigma, [0, 0], 2) == 2 * (4 + 25)

    def test_numpy_integers_do_not_wrap(self):
        import numpy as np

        sigma = [[3_000_000_000, 0], [0, 3_000_000_000]]
        want = 36_000_000_012_000_000_000
        assert noncentral_chisq_cumulant(sigma, [1, 0], 2) == want
        got = noncentral_chisq_cumulant(np.array(sigma), np.array([1, 0]), 2)
        assert type(got) is int and got == want

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="length p"):
            noncentral_chisq_cumulant(linalg.identity(2), [1, 2, 3], 2)
        with pytest.raises(ValueError, match="p x p"):
            noncentral_chisq_cumulant(((1, 0, 0), (0, 1, 0)), [1, 2], 2)

    def test_generating_coefficients_match_bell_map(self):
        sigma = ((Fraction(1), 0), (0, Fraction(4)))
        m = (Fraction(1), Fraction(-1, 2))
        parts = [gaussian(mu, variance=sigma[l][l], name=f"gq{l}") for l, mu in enumerate(m)]
        total = UmbralPolynomial.zero()
        for g in parts:
            total = total + g * g
        kappas = [noncentral_chisq_cumulant(sigma, m, k) for k in range(1, 5)]
        for k in range(0, 5):
            assert evaluate(total.pow(k)) == complete_bell(kappas[:k])


class TestCrossTermIdentity:
    def test_no_fixed_pairs_counts_subsets(self):
        for p, n, i in ((2, 3, 2), (3, 4, 2), (4, 5, 3)):
            lhs, rhs = singleton_cross_term_identity(p, n, i, 0, [1] * p)
            assert lhs == rhs == math.comb(n, i) * math.comb(p, i)

    def test_all_fixed_gives_esf(self, rng):
        for _ in range(5):
            p = rng.randint(1, 4)
            n = rng.randint(p, 5)
            m = rational_vector(rng, p)
            i = rng.randint(0, min(p, n))
            lhs, rhs = singleton_cross_term_identity(p, n, i, i, m)
            assert lhs == rhs == elementary_symmetric([v * v for v in m], i)

    def test_zero_mean_vanishes(self):
        lhs, rhs = singleton_cross_term_identity(3, 4, 2, 1, [0, 0, 0])
        assert lhs == rhs == 0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            singleton_cross_term_identity(2, 3, 3, 1, [1, 1])
