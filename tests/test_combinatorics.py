import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishart_esf.combinatorics import (
    Partition,
    bell_coefficient,
    complete_bell,
    cycle_class_size,
    diagonal_joint_moment,
    elementary_symmetric,
    elementary_symmetric_from_power_sums,
    elementary_symmetric_via_bell,
    elementary_symmetric_via_cycle_classes,
    elementary_symmetric_via_permutations,
    enumerate_partitions,
    falling_factorial,
    perfect_matchings,
    power_sum,
)
from wishart_esf.umbra import UmbralPolynomial, indeterminates

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestPartitions:
    def test_partitions_of_two(self):
        assert enumerate_partitions(2) == [
            Partition.from_parts([1, 1]),
            Partition.from_parts([2]),
        ]

    def test_partition_count_of_four(self):
        assert len(enumerate_partitions(4)) == 5

    def test_single_partition_of_one(self):
        assert enumerate_partitions(1) == [Partition.from_parts([1])]

    def test_empty_partition_of_zero(self):
        assert enumerate_partitions(0) == [Partition(())]

    def test_each_partition_once_and_valid(self):
        for i in range(1, 9):
            parts = enumerate_partitions(i)
            assert len(set(parts)) == len(parts)
            assert all(q.weight == i for q in parts)

    def test_malformed_partition_rejected(self):
        with pytest.raises(ValueError):
            Partition(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            Partition(((1, 0),))


class TestPartitionWeights:
    def test_bell_coefficient_mixed(self):
        assert bell_coefficient(Partition.from_parts([1, 1, 2])) == 6

    def test_bell_coefficient_all_ones(self):
        for i in range(1, 7):
            assert bell_coefficient(Partition.from_parts([1] * i)) == 1

    def test_bell_coefficient_single_part(self):
        assert bell_coefficient(Partition.from_parts([2])) == 1

    def test_cycle_class_sizes(self):
        assert cycle_class_size(Partition.from_parts([2])) == 1
        assert cycle_class_size(Partition.from_parts([1, 2])) == 3
        for i in range(1, 7):
            assert cycle_class_size(Partition.from_parts([1] * i)) == 1

    def test_cycle_class_sizes_sum_to_factorial(self):
        for i in range(1, 9):
            total = sum(cycle_class_size(q) for q in enumerate_partitions(i))
            assert total == math.factorial(i)

    def test_bell_weight_relates_to_cycle_class_size(self):
        for i in range(1, 9):
            for q in enumerate_partitions(i):
                factor = 1
                for part, mult in q.parts:
                    factor *= math.factorial(part - 1) ** mult
                assert bell_coefficient(q) * factor == cycle_class_size(q)


class TestCompleteBell:
    def test_empty(self):
        assert complete_bell([]) == 1

    def test_degree_two(self):
        c1, c2 = Fraction(3), Fraction(-5)
        assert complete_bell([c1, c2]) == c1**2 + c2

    def test_degree_three(self):
        c = [Fraction(2), Fraction(1, 3), Fraction(-1)]
        assert complete_bell(c) == c[0] ** 3 + 3 * c[0] * c[1] + c[2]

    def test_ring_homomorphism_property(self, rng):
        # evaluate-the-polynomial == evaluate-then-Bell on random scalars
        syms = indeterminates("c", 3)
        poly = complete_bell([UmbralPolynomial.coerce(s) for s in syms])
        for _ in range(10):
            vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            substituted = poly
            for s, v in zip(syms, vals):
                substituted = substituted.substitute(s, v)
            assert substituted.as_scalar() == complete_bell(vals)

    @given(st.lists(st.just(Fraction(0)) | small_fractions, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_partition_sum_on_scalars(self, values):
        assert complete_bell(values) == full_partition_sum(values)

    @given(st.lists(st.just(0.0) | st.floats(min_value=-3, max_value=3), max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_partition_sum_on_floats(self, values):
        # powers are built by repeated products, not ``**``: last bits may differ
        expected = full_partition_sum(values)
        scale = full_partition_sum([abs(v) for v in values])
        assert complete_bell(values) == pytest.approx(expected, rel=0, abs=1e-12 * max(1.0, scale))

    def test_matches_full_partition_sum_on_polynomials(self, rng):
        syms = [UmbralPolynomial.coerce(s) for s in indeterminates("k", 3)]
        zero = UmbralPolynomial.zero()
        for _ in range(20):
            values = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.4:
                    values.append(zero)
                else:
                    poly = UmbralPolynomial.constant(rng.randint(-2, 2))
                    for s in rng.sample(syms, 2):
                        poly = poly + s.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                    values.append(poly)
            assert complete_bell(values) == full_partition_sum(values)

    def test_zero_entries(self):
        c1 = UmbralPolynomial.coerce(indeterminates("c", 1)[0])
        zero = UmbralPolynomial.zero()
        # with c_2.. = 0 only the partition 1^5 survives: B_5 = c_1^5
        assert complete_bell([c1] + [zero] * 4) == c1**5
        assert complete_bell([Fraction(0), Fraction(3)]) == 3
        assert complete_bell([0, 0, 0]) == 0
        assert complete_bell([zero] * 4) == 0

    def test_products_skip_zero_entries_and_share_powers(self, monkeypatch):
        products = []
        original = UmbralPolynomial.mul

        def counting(self, other, prune=True):
            products.append(other)
            return original(self, other, prune)

        monkeypatch.setattr(UmbralPolynomial, "mul", counting)
        c = [UmbralPolynomial.coerce(s) for s in indeterminates("c", 4)]
        zero = UmbralPolynomial.zero()
        # c_1^2 .. c_1^5 only
        complete_bell([c[0]] + [zero] * 4)
        assert len(products) == 4
        # c_1^2, c_1^3, c_1^4, c_1^2 * c_2, c_1 * c_3, c_2^2: c_1^2 is built once
        products.clear()
        complete_bell(c)
        assert len(products) == 6


def full_partition_sum(values):
    """``B_i`` as the sum over every partition of ``i``, zero entries included."""
    total = 0
    for partition in enumerate_partitions(len(values)):
        term = bell_coefficient(partition)
        for part, mult in partition.parts:
            term = term * values[part - 1] ** mult
        total = total + term
    return total


class TestPowerSumsAndEsf:
    def test_power_sum_basic(self):
        assert power_sum([1, 2, 3], 2) == 14

    def test_power_sum_symmetry(self):
        for k in range(1, 5):
            assert power_sum([1, 1], k) == 2

    def test_power_sum_zeros(self):
        assert power_sum([0, 0, 0], 3) == 0

    def test_esf_direct(self):
        assert elementary_symmetric([1, 2, 3], 2) == 11

    def test_esf_zero_order(self):
        assert elementary_symmetric([5, 7], 0) == 1

    def test_esf_beyond_length(self):
        assert elementary_symmetric([1, 2], 3) == 0

    def test_esf_via_bell_example(self):
        assert elementary_symmetric_via_bell([1, 2], 2) == 2

    def test_esf_all_ones_binomial(self):
        for p in range(1, 7):
            for i in range(0, p + 1):
                assert elementary_symmetric_via_bell([1] * p, i) == math.comb(p, i)

    def test_esf_via_cycle_classes_example(self):
        assert elementary_symmetric_via_cycle_classes([1, 2, 3], 2) == 11

    def test_three_esf_routes_agree_on_random_rationals(self):
        rng = Random(1287)
        for _ in range(100):
            p = rng.randint(1, 6)
            y = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p)]
            for i in range(0, min(p, 6) + 1):
                direct = elementary_symmetric(y, i)
                assert elementary_symmetric_via_bell(y, i) == direct
                assert elementary_symmetric_via_cycle_classes(y, i) == direct

    def test_permutation_oracle_agrees(self):
        rng = Random(5150)
        for _ in range(20):
            p = rng.randint(1, 5)
            y = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(p)]
            for i in range(0, min(p, 5) + 1):
                assert elementary_symmetric_via_permutations(y, i) == elementary_symmetric(y, i)

    def test_permutation_oracle_size_guard(self):
        with pytest.raises(ValueError):
            elementary_symmetric_via_permutations([1] * 6, 6)

    @given(st.lists(small_fractions, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_generating_function_coefficients(self, y):
        # coefficients of prod (1 + y_j z) are the elementary symmetric values
        coeffs = [Fraction(1)]
        for v in y:
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for d, c in enumerate(coeffs):
                nxt[d] += c
                nxt[d + 1] += c * v
            coeffs = nxt
        for i in range(len(y) + 1):
            assert coeffs[i] == elementary_symmetric(y, i)

    def test_esf_from_power_sums_matches(self):
        y = [Fraction(1), Fraction(1, 2), Fraction(-3)]
        sums = [power_sum(y, k) for k in range(1, 4)]
        for i in range(0, 4):
            assert elementary_symmetric_from_power_sums(sums[:i] if i else [], i) == (
                elementary_symmetric(y, i)
            )


class TestJointMoments:
    def test_all_ones_counts_cycles(self):
        for p in (2, 3, 5):
            for q in enumerate_partitions(4):
                assert diagonal_joint_moment([1] * p, q) == p**q.length

    def test_single_cycle(self):
        assert diagonal_joint_moment([1, 2], Partition.from_parts([2])) == 5

    def test_single_element(self):
        y1 = Fraction(7, 2)
        assert diagonal_joint_moment([y1], Partition.from_parts([1])) == y1


class TestPerfectMatchings:
    def test_counts(self):
        assert len(perfect_matchings(2)) == 1
        assert len(perfect_matchings(4)) == 3
        assert len(perfect_matchings(6)) == 15

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            perfect_matchings(3)

    def test_every_matching_covers_all_points(self):
        for m in (2, 4, 6):
            for matching in perfect_matchings(m):
                covered = sorted(v for pair in matching for v in pair)
                assert covered == list(range(m))

    def test_deterministic_order(self):
        assert perfect_matchings(4) == perfect_matchings(4)


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 4) == 0

    def test_matches_permutation_count(self):
        for n in range(0, 7):
            for k in range(0, n + 1):
                assert falling_factorial(n, k) == math.perm(n, k)
