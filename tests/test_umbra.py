import gc
import math
import weakref
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishart_esf.combinatorics import elementary_symmetric, falling_factorial
from wishart_esf.umbra import (
    Indeterminate,
    Umbra,
    UmbralPolynomial,
    custom_umbra,
    deltas,
    evaluate,
    evaluate_scalar,
    falling,
    gaussian,
    gf_coefficients,
    indeterminates,
    similar,
    singletons,
    unities,
)

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


class TestEvaluation:
    def test_distinct_singletons_factor(self):
        a, b = singletons(2)
        assert evaluate_scalar(a * b) == 1

    def test_repeated_singleton_dies(self):
        (a,) = singletons(1)
        assert evaluate_scalar(a * a) == 0

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
                    lhs = evaluate(nu.pow(i).mul(mu.pow(j), prune=False))
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
        assert gf_coefficients(d, 3) == [1, 0, Fraction(1, 2), 0]

    def test_standard_normal_generating_coefficients(self):
        z = gaussian(0, 1)
        assert gf_coefficients(z, 4) == [1, 0, Fraction(1, 2), 0, Fraction(1, 8)]

    def test_unity_generating_coefficients(self):
        (u,) = unities(1)
        assert gf_coefficients(u, 2) == [1, 1, Fraction(1, 2)]

    def test_falling_moments(self):
        f = falling(3)
        assert [f.moment(k) for k in range(5)] == [1, 3, 6, 6, 0]

    def test_falling_matches_singleton_sums(self):
        chi = singletons(3)
        acc = UmbralPolynomial.zero()
        for c in chi:
            acc = acc + c
        for k in range(0, 5):
            assert evaluate_scalar(acc.pow(k, prune=False)) == falling(3).moment(k)

    def test_two_deltas_uncorrelated(self):
        d1, d2 = deltas(2)
        assert evaluate_scalar(d1 * d1 * d2 * d2) == 1

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

    def test_gaussian_combination_of_unity_and_standard_normal(self):
        (u,) = unities(1)
        z = gaussian(0, 1)
        combined = 3 * u + 2 * z
        assert similar(combined, gaussian(3, 2), 6)

    def test_custom_umbra_requires_unit_head(self):
        with pytest.raises(ValueError):
            custom_umbra([2, 1])

    def test_custom_umbra_sequence(self):
        a = custom_umbra([1, 5, 7])
        assert [a.moment(k) for k in range(4)] == [1, 5, 7, 0]


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

    def test_substitute_deltas_for_indeterminates(self):
        y = indeterminates("y", 2)
        d = deltas(2)
        poly = y[0] ** 2 + y[1] ** 2
        poly = poly.substitute(y[0], d[0]).substitute(y[1], d[1])
        assert evaluate_scalar(poly) == 2

    def test_substitution_is_ring_homomorphism(self):
        rng = Random(777)
        y = indeterminates("y", 2)
        symbols = [y[0], y[1]] + singletons(1)
        repl = Fraction(2, 3)
        for _ in range(20):
            pa = random_poly(rng, symbols)
            pb = random_poly(rng, symbols)
            lhs = pa.mul(pb, prune=False).substitute(y[0], repl)
            rhs = pa.substitute(y[0], repl).mul(pb.substitute(y[0], repl), prune=False)
            assert lhs == rhs
            assert (pa + pb).substitute(y[0], repl) == pa.substitute(y[0], repl) + pb.substitute(
                y[0], repl
            )

    def test_substituting_shared_umbra_reduces_to_falling_factorials(self):
        # one shared moment variable in every slot turns the esf law into
        # a_i (p)_i
        p = 4
        a = custom_umbra([1, 2, 5, 9, 21], name="shared")
        chi = singletons(p)
        y = indeterminates("w", p)
        combo = UmbralPolynomial.zero()
        for c, yv in zip(chi, y):
            combo = combo + c * yv
        for i in range(0, p + 1):
            powed = combo.pow(i)
            for yv in y:
                powed = powed.substitute(yv, a)
            assert evaluate_scalar(powed) == a.moment(i) * falling_factorial(p, i)

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
            assert evaluate(pa.mul(pb)) == evaluate(pa.mul(pb, prune=False))


def merged_powers(a: tuple, b: tuple) -> tuple:
    """Reference monomial product: exponents of shared variables add, and
    the factors stay sorted by ident."""
    powers = dict(a)
    for v, e in b:
        powers[v] = powers.get(v, 0) + e
    return tuple(sorted(powers.items(), key=lambda item: item[0].ident))


def reference_mul(a: UmbralPolynomial, b: UmbralPolynomial, prune: bool = True) -> dict:
    """Term map of ``a * b`` by merging the ``(variable, exponent)`` tuples
    of every term pair, dropping over-range umbra powers under ``prune``."""
    out: dict = {}
    for (ua, ia), ca in a.terms():
        for (ub, ib), cb in b.terms():
            u = merged_powers(ua, ub)
            if prune and any(v.max_power is not None and e > v.max_power for v, e in u):
                continue
            key = (u, merged_powers(ia, ib))
            s = out.get(key, 0) + ca * cb
            if s == 0:
                del out[key]
            else:
                out[key] = s
    return out


def reference_substitute(poly: UmbralPolynomial, indet, replacement: UmbralPolynomial) -> dict:
    total: dict = {}
    for (ub, ind), c in poly.terms():
        exp = dict(ind).get(indet, 0)
        term = UmbralPolynomial({(ub, tuple((v, e) for v, e in ind if v is not indet)): c})
        for _ in range(exp):
            term = UmbralPolynomial(reference_mul(term, replacement, prune=False))
        for key, v in term.terms():
            s = total.get(key, 0) + v
            if s == 0:
                del total[key]
            else:
                total[key] = s
    return total


# bounded umbrae (max_power 1, 2, 3), unbounded umbrae and indeterminates
MIXED_VARIABLES = (
    singletons(1, prefix="sg")
    + deltas(1, prefix="dl")
    + [falling(3, name="fl")]
    + [gaussian(1, variance=2, name="gs")]
    + unities(1, prefix="un")
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


def mixed_polynomials(exponents=st.integers(min_value=1, max_value=3)):
    return st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(MIXED_VARIABLES), exponents, max_size=4),
            st.integers(min_value=-3, max_value=3).filter(bool) | small_fractions.filter(bool),
        ),
        max_size=6,
    ).map(polynomial_from)


# small exponents meet max_power 1..3; large ones need wide fields
any_exponents = st.integers(min_value=1, max_value=3) | st.integers(min_value=1, max_value=45)


class TestPackedProducts:
    @given(mixed_polynomials(any_exponents), mixed_polynomials(any_exponents), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_tuple_merge_reference(self, a, b, prune):
        got = a.mul(b, prune=prune)
        # same terms in the same order, so float sums keep their rounding
        assert list(got.terms()) == list(reference_mul(a, b, prune).items())

    @given(mixed_polynomials(), st.sampled_from(MIXED_VARIABLES[-2:]), mixed_polynomials())
    @settings(max_examples=100, deadline=None)
    def test_substitute_matches_reference(self, poly, indet, replacement):
        got = poly.substitute(indet, replacement)
        assert dict(got.terms()) == reference_substitute(poly, indet, replacement)

    def test_large_exponents_of_unbounded_umbrae(self):
        g = gaussian(0, variance=1)
        product = (g**40).mul(g**40)
        assert list(product.terms()) == [((((g, 80),), ()), 1)]
        assert evaluate_scalar(product) == math.prod(range(1, 80, 2))

    def test_exponents_past_max_power_survive_without_pruning(self):
        (d,) = deltas(1)
        (z,) = indeterminates("z", 1)
        high = d._lift().pow(5, prune=False).mul(d * z, prune=False)
        assert list(high.terms()) == [((((d, 6),), ((z, 1),)), 1)]
        assert high.mul(d, prune=True).is_zero
        assert evaluate(high) == 0

    def test_cancellation(self):
        (d,) = deltas(1)
        (z,) = indeterminates("z", 1)
        # the cross terms d*z cancel; d^2 * d dies under pruning
        assert (z + d).mul(z - d) == z**2 - d**2
        assert (d**2 + 2 * d).mul(d**2).is_zero
        assert (d**2 + 2 * d).mul(d**2, prune=False) == polynomial_from([({d: 4}, 1), ({d: 3}, 2)])

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
        y = indeterminates("s", 0)
        nu = chi[0] + 2 * chi[1]
        mu = d[0] * d[1] + Fraction(1, 2) * d[0]
        order = 5
        left = gf_coefficients(nu + mu, order)
        gf_nu = gf_coefficients(nu, order)
        gf_mu = gf_coefficients(mu, order)
        for k in range(order + 1):
            conv = sum(gf_nu[a] * gf_mu[k - a] for a in range(k + 1))
            assert left[k] == conv

    def test_polynomial_source(self):
        (d,) = deltas(1)
        coeffs = gf_coefficients(d._lift() * 2, 2)
        assert coeffs == [1, 0, Fraction(2)]
