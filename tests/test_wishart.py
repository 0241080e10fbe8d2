import gc
import math
import weakref
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishart_esf import linalg, wishart
from wishart_esf.combinatorics import (
    bell_coefficient,
    complete_bell,
    elementary_symmetric,
    enumerate_partitions,
    falling_factorial,
)
from wishart_esf.oracles import wick_expected_esf, wick_trace_moment
from wishart_esf.umbra import UmbralPolynomial, deltas, evaluate, falling, gaussian, gf_coefficients
from wishart_esf.wishart import (
    WishartParams,
    central_cumulant,
    expected_esf_closed_form,
    expected_esf_umbral,
    mean_cumulant,
    noncentral_chisq_cumulant,
    singleton_cross_term_identity,
    trace_cumulant,
    trace_moment,
)
from wishart_esf.wishart import _central_terms, _mean_terms

from conftest import (
    rational_diag_spd,
    rational_full_spd,
    rational_matrix,
    rational_vector,
    rect_diag_matrix,
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

    def test_mode_detection(self):
        assert WishartParams(3, 2, linalg.identity(2)).mode == "rational"
        assert WishartParams(3, 2, ((1.0, 0.0), (0.0, 1.0))).mode == "float"

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            WishartParams(3, 2, ((1.0, float("nan")), (float("nan"), 2.0)))
        with pytest.raises(ValueError, match="finite"):
            WishartParams(3, 2, ((1.0, 0.0), (0.0, 1.0)), ((float("inf"), 0, 0), (0, 1, 0)))

    def test_mean_shape_checked(self):
        with pytest.raises(ValueError):
            WishartParams(3, 2, linalg.identity(2), ((1, 0), (0, 1)))

    def test_noncentrality_matrix(self):
        sigma = ((Fraction(2), 0), (0, Fraction(4)))
        m = ((Fraction(2), 0, 0), (0, Fraction(2), 0))
        params = WishartParams(3, 2, sigma, m)
        assert params.omega() == ((Fraction(2), 0), (0, Fraction(1)))


class TestCumulants:
    def test_central_cumulant_printed_form(self):
        params = WishartParams.symbolic(3, 2)
        q1 = central_cumulant(params, 1)
        y, x, th = params.y_vars, params.x_vars, params.theta_syms
        want = UmbralPolynomial.zero()
        for j in range(3):
            for l in range(2):
                want = want + x[j] ** 2 * y[l] ** 2 * th[l]
        assert q1 == want

    def test_central_cumulant_of_dense_covariance_prints_theta(self):
        # latent roots are never computed: a dense covariance, even one whose
        # roots are rational (7 and 3 here) or float, keeps its theta symbols
        split = ((Fraction(5), Fraction(2)), (Fraction(2), Fraction(5)))
        for sigma in (split, ((2.0, 0.5), (0.5, 1.0))):
            params = WishartParams(3, 2, sigma)
            y, x, th = params.y_vars, params.x_vars, params.theta_syms
            want = UmbralPolynomial.zero()
            for j in range(3):
                for l in range(2):
                    want = want + x[j] ** 2 * y[l] ** 2 * th[l]
            q1 = central_cumulant(params, 1)
            assert q1 == want
            assert str(q1) == str(want) and "th1" in str(q1)

    def test_central_cumulant_at_unit_weights(self):
        n, p = 3, 2
        params = WishartParams(n, p, linalg.identity(p))
        q1 = central_cumulant(params, 1)
        for v in params.y_vars + params.x_vars:
            q1 = q1.substitute(v, 1)
        assert q1.as_scalar() == n * p

    def test_central_cumulant_zero_covariance_scale(self):
        params = WishartParams.symbolic(2, 2)
        # replacing every latent weight by zero kills the central part
        q2 = central_cumulant(params, 2)
        for th in params.theta_syms:
            q2 = q2.substitute(th, 0)
        assert q2.is_zero

    def test_mean_cumulant_printed_form(self):
        params = WishartParams.symbolic(3, 2)
        qt1 = mean_cumulant(params, 1)
        y, x = params.y_vars, params.x_vars
        want = UmbralPolynomial.zero()
        for l in range(2):
            for j in range(3):
                mval = params.m[l][j]
                want = want + y[l] ** 2 * mval * mval * x[j] ** 2
        assert qt1 == want

    def test_mean_cumulant_zero_mean(self):
        params = WishartParams(3, 2, linalg.identity(2))
        for k in (1, 2, 3):
            assert mean_cumulant(params, k).is_zero

    def test_mean_cumulant_scalar_case(self):
        # p = n = 1, covariance (s2), mean (mval): order-2 value 4 y^4 x^4 s2 mval^2
        s2, mval = Fraction(3), Fraction(5)
        params = WishartParams(1, 1, ((s2,),), ((mval,),))
        qt2 = mean_cumulant(params, 2)
        y, x = params.y_vars[0], params.x_vars[0]
        assert qt2 == 4 * s2 * mval**2 * (y**4 * x**4)

    def test_cumulant_additivity_and_mean_kill(self):
        params = WishartParams(
            3,
            2,
            ((Fraction(1), 0), (0, Fraction(2))),
            ((Fraction(1), 0, 0), (0, Fraction(2), 0)),
        )
        central_only = WishartParams(3, 2, params.sigma)
        for k in (1, 2, 3):
            assert trace_cumulant(params, k) == central_cumulant(params, k) + mean_cumulant(
                params, k
            )
            assert trace_cumulant(central_only, k) == central_cumulant(central_only, k)

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
                poly = trace_moment(params, i)
                for v, num in zip(params.y_vars, yw):
                    poly = poly.substitute(v, num)
                for v, num in zip(params.x_vars, xw):
                    poly = poly.substitute(v, num)
                assert poly.as_scalar() == wick_trace_moment(params, yw, xw, i)


class TestDeltaPruning:
    def test_bell_combination_collapses_to_first_cumulant_power(self):
        # with 1,0,1,0,... umbrae substituted, every partition term except
        # the all-ones one dies at evaluation; checked with unpruned products
        rng = Random(11)
        for p, n in ((2, 2), (2, 3), (3, 4), (4, 4)):
            sigma_diag = rational_diag_spd(rng, p)
            theta = [sigma_diag[l][l] for l in range(p)]
            mvals = rational_vector(rng, p, span=2, max_den=2)
            m = rect_diag_matrix(mvals, p, n)
            dp = deltas(p)
            dn = deltas(n)
            yv = [d._lift() for d in dp]
            xv = [d._lift() for d in dn]
            for i in range(1, min(p, 3) + 1):
                cumulants = [
                    _central_terms(k, yv, xv, theta, prune=False)
                    + _mean_terms(k, yv, xv, m, sigma_diag, prune=False)
                    for k in range(1, i + 1)
                ]
                bell = UmbralPolynomial.zero()
                for q in enumerate_partitions(i):
                    term = UmbralPolynomial.constant(bell_coefficient(q))
                    for part, mult in q.parts:
                        for _ in range(mult):
                            term = term.mul(cumulants[part - 1], prune=False)
                    bell = bell + term
                first_power = cumulants[0].pow(i, prune=False)
                assert evaluate(bell) == evaluate(first_power)


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
        # the canonical runs give v_j = i! sum_k C(j, k) a_k; inverting the
        # binomial transform must give a_k = i! (n-k)_(i-k)
        for n in range(1, 11):
            for i in range(1, min(n, 6) + 1):
                v = [wishart._canonical_kernel(n, i, j) for j in range(i + 1)]
                a = [
                    sum((-1) ** (k - j) * math.comb(k, j) * v[j] for j in range(k + 1))
                    for k in range(i + 1)
                ]
                want = [math.factorial(i) * falling_factorial(n - k, i - k) for k in range(i + 1)]
                assert a == want, (n, i)

    def test_orders_outside_range(self):
        params = WishartParams(3, 2, linalg.identity(2))
        assert expected_esf_umbral(params, 0) == 1
        assert expected_esf_umbral(params, 3) == 0

    def test_umbrae_of_a_finished_computation_are_freed(self, monkeypatch):
        refs = []
        falling_refs = []

        def recording_deltas(count, prefix):
            fresh = deltas(count, prefix=prefix)
            refs.extend(weakref.ref(d) for d in fresh)
            return fresh

        def recording_falling(count, name):
            fresh = falling(count, name=name)
            falling_refs.append(weakref.ref(fresh))
            return fresh

        monkeypatch.setattr(wishart, "deltas", recording_deltas)
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
        assert refs and all(ref() is None for ref in refs)
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

        def counting(self, other, prune=True):
            pairs.append(len(self.terms()) * len(UmbralPolynomial.coerce(other).terms()))
            return original(self, other, prune)

        monkeypatch.setattr(UmbralPolynomial, "mul", counting)
        params = WishartParams(10, 8, rational_diag_spd(Random(8), 8))
        expected_esf_umbral(params, 8)
        assert 0 < sum(pairs) <= 10_000


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

    def test_generating_coefficients_match_bell_map(self):
        sigma = ((Fraction(1), 0), (0, Fraction(4)))
        m = (Fraction(1), Fraction(-1, 2))
        parts = [gaussian(mu, variance=sigma[l][l], name=f"gq{l}") for l, mu in enumerate(m)]
        total = UmbralPolynomial.zero()
        for g in parts:
            total = total + g * g
        coeffs = gf_coefficients(total, 4)
        kappas = [noncentral_chisq_cumulant(sigma, m, k) for k in range(1, 5)]
        for k in range(0, 5):
            want = Fraction(complete_bell(kappas[:k]), math.factorial(k))
            assert coeffs[k] == want


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
