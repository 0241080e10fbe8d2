import gc
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wishart_esf import umbra
from wishart_esf.combinatorics import elementary_symmetric, falling_factorial
from wishart_esf.umbra import (
    Indeterminate,
    Umbra,
    UmbralPolynomial,
    evaluate,
    falling,
    indeterminates,
    singletons,
)

from conftest import deltas, gaussian, reference_mul, similar, substitute, unpruned_pow

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def random_poly(rng: Random, symbols, max_terms: int = 3) -> UmbralPolynomial:
    total = UmbralPolynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        term = UmbralPolynomial.constant(coeff)
        for s in rng.sample(symbols, rng.randint(0, min(2, len(symbols)))):
            term = term.mul(UmbralPolynomial.coerce(s))
        total = total + term
    return total


def generating_coefficients(source, order: int) -> list:
    """``[m_0/0!, ..., m_K/K!]``, with ``m_k`` the evaluated k-th power."""
    base = UmbralPolynomial.coerce(source)
    return [Fraction(evaluate(base.pow(k)).as_scalar(), math.factorial(k)) for k in range(order + 1)]


class TestEvaluation:
    def test_distinct_singletons_factor(self):
        a, b = singletons(2)
        assert evaluate(a * b).as_scalar() == 1

    def test_repeated_singleton_dies(self):
        (a,) = singletons(1)
        assert evaluate(a * a).as_scalar() == 0

    def test_weighted_singleton_square_gives_esf(self):
        chi = singletons(2)
        y = indeterminates("y", 2)
        got = evaluate((chi[0] * y[0] + chi[1] * y[1]) ** 2)
        assert got == 2 * (y[0] * y[1])

    def test_esf_law_weighted_sums(self):
        for p in range(1, 6):
            chi = singletons(p)
            y = indeterminates("v", p)
            combo = UmbralPolynomial.zero()
            for c, yv in zip(chi, y):
                combo = combo + c * yv
            for i in range(0, p + 2):
                got = evaluate(combo.pow(i))
                if i <= p:
                    want = math.factorial(i) * UmbralPolynomial.coerce(
                        elementary_symmetric(y, i)
                    )
                else:
                    want = UmbralPolynomial.zero()
                assert got == want

    def test_linearity_on_random_polynomials(self):
        rng = Random(99)
        symbols = singletons(2) + deltas(1) + indeterminates("t", 1)
        for _ in range(30):
            pa = random_poly(rng, symbols)
            pb = random_poly(rng, symbols)
            a = Fraction(rng.randint(-3, 3))
            b = Fraction(rng.randint(-3, 3))
            lhs = evaluate(pa.scale(a) + pb.scale(b))
            rhs = evaluate(pa).scale(a) + evaluate(pb).scale(b)
            assert lhs == rhs

    def test_uncorrelated_supports_factor(self):
        rng = Random(31337)
        left_syms = singletons(2)
        right_syms = deltas(2)
        for _ in range(20):
            nu = random_poly(rng, left_syms)
            mu = random_poly(rng, right_syms)
            for i in range(0, 4):
                for j in range(0, 4 - i):
                    lhs = evaluate(reference_mul(nu.pow(i), mu.pow(j), prune=False))
                    rhs = evaluate(nu.pow(i)).mul(evaluate(mu.pow(j)))
                    assert lhs == rhs

    def test_evaluation_passes_indeterminates_through(self):
        y = indeterminates("y", 2)
        (d,) = deltas(1)
        poly = y[0] * y[1] * d * d + y[0] ** 3
        assert evaluate(poly) == y[0] * y[1] + y[0] ** 3


class TestSpecialUmbrae:
    def test_delta_generating_coefficients(self):
        (d,) = deltas(1)
        assert generating_coefficients(d, 3) == [1, 0, Fraction(1, 2), 0]

    def test_standard_normal_generating_coefficients(self):
        z = gaussian(0, 1)
        assert generating_coefficients(z, 4) == [1, 0, Fraction(1, 2), 0, Fraction(1, 8)]

    def test_unity_generating_coefficients(self):
        u = Umbra(lambda k: 1)
        assert generating_coefficients(u, 2) == [1, 1, Fraction(1, 2)]

    def test_falling_moments(self):
        f = falling(3)
        assert [f.moment(k) for k in range(5)] == [1, 3, 6, 6, 0]

    def test_moment_bounds_are_read_as_integers(self):
        # a numpy bound used to reach the packed layout, which needs int.bit_length
        assert evaluate(falling(np.int64(2))._lift().pow(3)) == 0
        assert evaluate(Umbra(lambda k: 1, max_power=np.int64(2))._lift().pow(3)) == 0
        assert type(falling(np.int64(2)).max_power) is int
        with pytest.raises(TypeError):
            falling(2.0)

    def test_falling_matches_singleton_sums(self):
        chi = singletons(3)
        acc = UmbralPolynomial.zero()
        for c in chi:
            acc = acc + c
        for k in range(0, 5):
            assert evaluate(unpruned_pow(acc, k)).as_scalar() == falling(3).moment(k)

    def test_two_deltas_uncorrelated(self):
        d1, d2 = deltas(2)
        assert evaluate(d1 * d1 * d2 * d2).as_scalar() == 1

    def test_gaussian_moment_recursion_exact(self):
        g = gaussian(Fraction(1, 2), variance=Fraction(3, 4))
        # against mu^3 + 3 mu s2 and mu^4 + 6 mu^2 s2 + 3 s2^2
        mu, s2 = Fraction(1, 2), Fraction(3, 4)
        assert [g.moment(k) for k in range(5)] == [
            1,
            mu,
            mu**2 + s2,
            mu**3 + 3 * mu * s2,
            mu**4 + 6 * mu**2 * s2 + 3 * s2**2,
        ]

    def test_moment_makes_one_moment_call(self, monkeypatch):
        calls = []

        def counted(n, k):
            calls.append(k)
            return falling_factorial(n, k)

        monkeypatch.setattr(umbra, "falling_factorial", counted)
        assert falling(6).moment(5) == 720
        assert calls == [5]

    def test_gaussian_moments_match_the_memoized_recurrence(self):
        def memoized(mean, variance, order):
            moments = [1]
            for k in range(1, order + 1):
                if k == 1:
                    moments.append(mean)
                else:
                    moments.append(mean * moments[k - 1] + (k - 1) * variance * moments[k - 2])
            return moments

        g = gaussian(0.3, variance=1.7)
        got = [g.moment(k) for k in range(13)]
        assert list(map(repr, got)) == list(map(repr, memoized(0.3, 1.7, 12)))
        mean, variance = Fraction(-2, 3), Fraction(5, 7)
        g = gaussian(mean, variance=variance)
        assert [g.moment(k) for k in range(13)] == memoized(mean, variance, 12)

    def test_umbrae_are_shared_across_threads(self):
        g = gaussian(Fraction(1, 2), variance=Fraction(3, 4))
        f = falling(4)
        want = evaluate((g + f).pow(6))
        start = threading.Barrier(4, timeout=60)

        def work(_):
            start.wait()
            return evaluate((g + f).pow(6))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(work, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 4

    def test_gaussian_combination_of_unity_and_standard_normal(self):
        u = Umbra(lambda k: 1)
        z = gaussian(0, 1)
        combined = 3 * u + 2 * z
        assert similar(combined, gaussian(3, 2), 6)


class TestSimilarity:
    def test_delta_square_similar_to_singleton(self):
        (d,) = deltas(1)
        (chi,) = singletons(1)
        assert similar(d * d, chi, 6)

    def test_singleton_sum_similar_to_falling(self):
        chi = singletons(2)
        assert similar(chi[0] + chi[1], falling(2), 4)

    def test_delta_not_similar_to_singleton(self):
        (d,) = deltas(1)
        (chi,) = singletons(1)
        assert not similar(d, chi, 2)


class TestArithmetic:
    def test_pow_zero(self):
        (d,) = deltas(1)
        assert (d._lift()).pow(0) == 1

    def test_same_umbra_accumulates_exponent(self):
        (chi,) = singletons(1)
        y = indeterminates("y", 2)
        assert evaluate((chi * y[0]).mul(chi * y[1])) == UmbralPolynomial.zero()

    def test_scaling_by_float_one_makes_float_coefficients(self):
        x = Indeterminate("x")._lift()
        assert [type(c) for _, c in (x * 1.0).terms()] == [float]
        assert x.scale(1) is x and x.scale(Fraction(1)) is x

    def test_exponents_are_read_as_integers(self):
        (y,) = indeterminates("ny", 1)
        assert y ** np.int64(3) == y**3
        assert (y + 1).pow(np.int64(2)) == (y + 1).pow(2)
        for k in (2.0, 1.5):
            with pytest.raises(TypeError):
                y**k

    def test_integer_scalars_are_read_as_python_ints(self):
        # a numpy integer used to become a float in coerce and wrap at 64 bits in scale
        (y,) = indeterminates("iy", 1)
        assert [c for _, c in (y * np.int64(2**60 + 1)).terms()] == [2**60 + 1]
        squared = (y * 1).scale(np.int64(2**40)).pow(2)
        assert [c for _, c in squared.terms()] == [1208925819614629174706176]
        assert all(type(c) is int for p in (y * np.int64(3), squared) for _, c in p.terms())

    def test_substitute_deltas_for_indeterminates(self):
        y = indeterminates("y", 2)
        d = deltas(2)
        poly = y[0] ** 2 + y[1] ** 2
        poly = substitute(substitute(poly, y[0], d[0]), y[1], d[1])
        assert evaluate(poly).as_scalar() == 2

    def test_substitution_is_ring_homomorphism(self):
        rng = Random(777)
        y = indeterminates("y", 2)
        symbols = [y[0], y[1]] + singletons(1)
        repl = Fraction(2, 3)
        for _ in range(20):
            pa = random_poly(rng, symbols)
            pb = random_poly(rng, symbols)
            lhs = substitute(pa.mul(pb), y[0], repl)
            rhs = substitute(pa, y[0], repl).mul(substitute(pb, y[0], repl))
            assert lhs == rhs
            assert substitute(pa + pb, y[0], repl) == substitute(pa, y[0], repl) + substitute(
                pb, y[0], repl
            )

    def test_substituting_shared_umbra_reduces_to_falling_factorials(self):
        # one shared moment variable in every slot turns the esf law into
        # a_i (p)_i
        p = 4
        a = Umbra(lambda k: (1, 2, 5, 9, 21)[k], name="shared", max_power=4)
        chi = singletons(p)
        y = indeterminates("w", p)
        combo = UmbralPolynomial.zero()
        for c, yv in zip(chi, y):
            combo = combo + c * yv
        for i in range(0, p + 1):
            powed = combo.pow(i)
            for yv in y:
                powed = substitute(powed, yv, a)
            assert evaluate(powed).as_scalar() == a.moment(i) * falling_factorial(p, i)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mul_commutative_associative(self, data):
        rng = Random(data.draw(st.integers(min_value=0, max_value=10**6)))
        symbols = singletons(2) + indeterminates("q", 2)
        pa = random_poly(rng, symbols)
        pb = random_poly(rng, symbols)
        pc = random_poly(rng, symbols)
        assert pa.mul(pb) == pb.mul(pa)
        assert pa.mul(pb).mul(pc) == pa.mul(pb.mul(pc))

    def test_pruned_and_unpruned_muls_evaluate_identically(self):
        rng = Random(4242)
        symbols = deltas(2) + singletons(1) + indeterminates("r", 1)
        for _ in range(20):
            pa = random_poly(rng, symbols)
            pb = random_poly(rng, symbols)
            assert evaluate(pa.mul(pb)) == evaluate(reference_mul(pa, pb, prune=False))


# bounded umbrae (max_power 1, 2, 3), unbounded umbrae and indeterminates
MIXED_VARIABLES = (
    singletons(1, prefix="sg")
    + deltas(1, prefix="dl")
    + [falling(3, name="fl")]
    + [gaussian(1, variance=2, name="gs")]
    + [Umbra(lambda k: 1, name="un1")]
    + indeterminates("z", 2)
)


def polynomial_from(terms) -> UmbralPolynomial:
    """Canonical polynomial from ``[({variable: exponent}, coefficient)]``."""
    out: dict = {}
    for powers, c in terms:
        ordered = sorted(powers.items(), key=lambda item: item[0].ident)
        key = (
            tuple(item for item in ordered if isinstance(item[0], Umbra)),
            tuple(item for item in ordered if isinstance(item[0], Indeterminate)),
        )
        s = out.get(key, 0) + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return UmbralPolynomial(out)


exact_coefficients = (
    st.integers(min_value=-3, max_value=3).filter(bool) | small_fractions.filter(bool)
)


def mixed_polynomials(
    exponents=st.integers(min_value=1, max_value=3),
    variables=MIXED_VARIABLES,
    coefficients=exact_coefficients,
):
    return st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(variables), exponents, max_size=4),
            coefficients,
        ),
        max_size=6,
    ).map(polynomial_from)


# small exponents meet max_power 1..3; large ones need wide fields
any_exponents = st.integers(min_value=1, max_value=3) | st.integers(min_value=1, max_value=45)

# max_power 0..3: a falling(0) factor in the base dies in every pruned power
POWER_VARIABLES = MIXED_VARIABLES + [falling(k, name=f"fl{k}") for k in range(3)]
any_coefficients = exact_coefficients | st.floats(min_value=-3, max_value=3).filter(bool)


def mul_chain(base: UmbralPolynomial, k: int) -> UmbralPolynomial:
    """``base^k`` as ``k - 1`` successive products, one layout each."""
    result = UmbralPolynomial.one() if k == 0 else base
    for _ in range(k - 1):
        result = result.mul(base)
    return result


class TestPackedProducts:
    @given(
        mixed_polynomials(any_exponents, coefficients=any_coefficients),
        mixed_polynomials(any_exponents, coefficients=any_coefficients),
    )
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_tuple_merge_reference(self, a, b):
        got = a.mul(b)
        # same terms in the same order, so float sums keep their rounding
        assert list(got.terms()) == list(reference_mul(a, b).terms())

    @given(
        mixed_polynomials(any_exponents, POWER_VARIABLES, any_coefficients),
        st.integers(min_value=0, max_value=6),
    )
    @example(UmbralPolynomial.zero(), 3)
    @settings(max_examples=300, deadline=None)
    def test_pow_matches_mul_chain(self, base, k):
        got = base.pow(k)
        # same terms in the same order, so float sums keep their rounding
        assert list(got.terms()) == list(mul_chain(base, k).terms())

    def test_pow_runs_without_mul(self, monkeypatch):
        # a power that fell back to one product per step would still be
        # right, only slower; this catches that without timing anything
        (d,), (s,), (z,) = deltas(1), singletons(1), indeterminates("z", 1)
        base = d * z + 2 * s + z - Fraction(1, 2)
        want = {k: mul_chain(base, k) for k in (2, 3, 5)}

        def refuse(*args, **kwargs):
            raise AssertionError("pow called mul")

        monkeypatch.setattr(UmbralPolynomial, "mul", refuse)
        for k, power in want.items():
            assert base.pow(k) == power

    def test_large_exponents_of_unbounded_umbrae(self):
        g = gaussian(0, variance=1)
        product = (g**40).mul(g**40)
        assert list(product.terms()) == [((((g, 80),), ()), 1)]
        assert evaluate(product).as_scalar() == math.prod(range(1, 80, 2))

    def test_cancellation(self):
        (d,) = deltas(1)
        (z,) = indeterminates("z", 1)
        # the cross terms d*z cancel; d^2 * d dies under pruning
        assert (z + d).mul(z - d) == z**2 - d**2
        assert (d**2 + 2 * d).mul(d**2) == 0
        assert reference_mul(d**2 + 2 * d, d**2, prune=False) == polynomial_from(
            [({d: 4}, 1), ({d: 3}, 2)]
        )

    def test_term_count_of_first_cumulant_powers(self):
        # c_1 = sum_j x_j^2 sum_l y_l^2 theta_l with 1,0,1,0,... umbrae in
        # x and y: a term of c_1^k picks k distinct rows and k distinct columns
        p, n = 5, 6
        dy, dx = deltas(p), deltas(n)
        theta = indeterminates("th", p)
        rows = UmbralPolynomial.zero()
        for y, t in zip(dy, theta):
            rows = rows + y**2 * t
        cols = UmbralPolynomial.zero()
        for x in dx:
            cols = cols + x**2
        c1 = rows.mul(cols)
        power = UmbralPolynomial.one()
        for k in range(1, p + 2):
            power = power.mul(c1)
            assert len(power.terms()) == math.comb(p, k) * math.comb(n, k)


class TestZeroCoefficients:
    """No operation leaves a zero coefficient, so equality stays equality of
    the term maps."""

    tiny = 1e-200  # its square underflows to 0.0

    def test_underflowed_product_leaves_no_term(self):
        x, y = indeterminates("uf", 2)
        product = (x * self.tiny).mul(y * self.tiny)
        assert list(product.terms()) == []
        assert product == UmbralPolynomial.zero()

    def test_underflowed_scale_leaves_no_term(self):
        (x,) = indeterminates("us", 1)
        assert (x * self.tiny).scale(self.tiny) == UmbralPolynomial.zero()
        assert list((x * self.tiny + 1).scale(self.tiny).terms()) == [(((), ()), self.tiny)]

    def test_underflowed_evaluation_leaves_no_term(self):
        (x,) = indeterminates("ue", 1)
        g = Umbra(lambda k: self.tiny, name="tiny")
        assert evaluate((g * x).scale(self.tiny)) == UmbralPolynomial.zero()
        assert evaluate((g * x + g).scale(self.tiny) + x) == x

    def test_power_does_not_grow_underflowed_terms(self):
        (x,) = indeterminates("up", 1)
        base = x * self.tiny + 1
        # x^2 and x^3 underflow at every step; x and 1 survive
        assert base.pow(3) == x * (3 * self.tiny) + 1
        assert base.pow(3) == mul_chain(base, 3)


class TestVariableLifetime:
    def test_polynomial_keeps_its_umbrae_alive_and_frees_them(self):
        (d,) = deltas(1)
        (y,) = indeterminates("z", 1)
        umbra_ref, indet_ref = weakref.ref(d), weakref.ref(y)
        poly = (d * y) ** 2
        del d, y
        gc.collect()
        assert umbra_ref() is not None and indet_ref() is not None
        assert evaluate(poly) == indet_ref() ** 2
        del poly
        gc.collect()
        assert umbra_ref() is None and indet_ref() is None


class TestDisplay:
    def test_string_form_is_sorted_with_exponents(self):
        y = indeterminates("p", 2)
        (chi,) = singletons(1, prefix="pc")
        poly = 3 * (chi * y[1] ** 2) + y[0] - UmbralPolynomial.constant(Fraction(1, 2))
        # constant first (empty key sorts lowest), explicit exponents, stable order
        assert str(poly) == f"-1/2 + {y[0].name} + 3*{chi.name}*{y[1].name}^2"

    def test_zero_renders_as_zero(self):
        assert str(UmbralPolynomial.zero()) == "0"


class TestGeneratingFunctions:
    def test_multiplicative_over_unrelated_sums(self):
        chi = singletons(2)
        d = deltas(2)
        nu = chi[0] + 2 * chi[1]
        mu = d[0] * d[1] + Fraction(1, 2) * d[0]
        order = 5
        left = generating_coefficients(nu + mu, order)
        gf_nu = generating_coefficients(nu, order)
        gf_mu = generating_coefficients(mu, order)
        for k in range(order + 1):
            conv = sum(gf_nu[a] * gf_mu[k - a] for a in range(k + 1))
            assert left[k] == conv

    def test_polynomial_source(self):
        (d,) = deltas(1)
        assert generating_coefficients(d._lift() * 2, 2) == [1, 0, Fraction(2)]
