import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wishart_esf import linalg
from wishart_esf.combinatorics import perfect_matchings
from wishart_esf.oracles import (
    Estimate,
    _batched_esf,
    _partial_pairing_expectation,
    _summarize,
    mc_expected_esf,
    mc_trace_moment,
    wick_expected_esf,
    wick_trace_moment,
)
from wishart_esf.wishart import WishartParams, expected_esf_closed_form

from conftest import rational_diag_spd, rational_matrix


def _pairing_mean_cov(cov_matrix, means=None):
    def mean(label):
        return 0 if means is None else means[label]

    def cov(a, b):
        return cov_matrix[a][b]

    return mean, cov


class TestPairingBaseCases:
    def test_fourth_moment_formula(self, rng):
        # E[z1 z2 z3 z4] = s12 s34 + s13 s24 + s14 s23
        cov = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)] for _ in range(4)
        ]
        for r in range(4):
            cov[r][r] = abs(cov[r][r]) + 1
            for c in range(r):
                cov[r][c] = cov[c][r]
        mean, covf = _pairing_mean_cov(cov)
        got = _partial_pairing_expectation((0, 1, 2, 3), mean, covf)
        want = cov[0][1] * cov[2][3] + cov[0][2] * cov[1][3] + cov[0][3] * cov[1][2]
        assert got == want

    def test_sixth_moment_is_sum_over_fifteen_pairings(self, rng):
        cov = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(6)] for _ in range(6)]
        for r in range(6):
            cov[r][r] = abs(cov[r][r]) + 1
            for c in range(r):
                cov[r][c] = cov[c][r]
        mean, covf = _pairing_mean_cov(cov)
        got = _partial_pairing_expectation(tuple(range(6)), mean, covf)
        want = 0
        for matching in perfect_matchings(6):
            term = 1
            for a, b in matching:
                term *= cov[a][b]
            want += term
        assert len(perfect_matchings(6)) == 15
        assert got == want

    def test_odd_centered_product_vanishes(self):
        cov = [[Fraction(1) if r == c else Fraction(1, 2) for c in range(3)] for r in range(3)]
        mean, covf = _pairing_mean_cov(cov)
        assert _partial_pairing_expectation((0, 1, 2), mean, covf) == 0

    def test_mean_shift(self):
        # E[(m + z)^2] = m^2 + s2
        cov = [[Fraction(3)]]
        mean, covf = _pairing_mean_cov(cov, means={0: Fraction(2)})
        got = _partial_pairing_expectation((0, 0), mean, covf)
        assert got == 4 + 3


class TestWickExpectedEsf:
    def test_scalar_central(self):
        params = WishartParams(1, 1, ((Fraction(1),),))
        assert wick_expected_esf(params, 1) == 1

    def test_scalar_noncentral(self):
        m = Fraction(5, 2)
        params = WishartParams(1, 1, ((Fraction(1),),), ((m,),))
        assert wick_expected_esf(params, 1) == 1 + m * m

    def test_identity_two_by_two(self):
        params = WishartParams(2, 2, linalg.identity(2))
        assert wick_expected_esf(params, 2) == 2

    def test_order_conventions(self):
        params = WishartParams(2, 2, linalg.identity(2))
        assert wick_expected_esf(params, 0) == 1
        assert wick_expected_esf(params, 3) == 0

    def test_size_guard(self):
        params = WishartParams(5, 3, linalg.identity(3))
        with pytest.raises(ValueError, match="wick oracle limit"):
            wick_expected_esf(params, 3)

    def test_against_closed_form_on_rational_instances(self, rng):
        for _ in range(8):
            p = rng.randint(1, 2)
            n = rng.randint(p, 3)
            sigma = rational_diag_spd(rng, p)
            use_mean = rng.random() < 0.7
            m = rational_matrix(rng, p, n, span=2, max_den=2) if use_mean else None
            params = WishartParams(n, p, sigma, m)
            for i in range(0, p + 1):
                assert wick_expected_esf(params, i) == expected_esf_closed_form(params, i)

    def test_full_covariance_stays_exact(self):
        # the pairing oracle needs no covariance square root, so a full
        # rational covariance is still exact
        sigma = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
        params = WishartParams(2, 2, sigma)
        assert wick_expected_esf(params, 2) == expected_esf_closed_form(params, 2)


class TestWickTraceMoment:
    def test_unit_weights_give_squared_norm_moments(self):
        # with unit weights the trace is |X|_F^2; for standard normal entries
        # its i-th moment is the chi-square moment prod (pn + 2t)
        params = WishartParams(2, 2, linalg.identity(2))
        dof = 4
        for i in (1, 2):
            want = 1
            for t in range(i):
                want *= dof + 2 * t
            got = wick_trace_moment(params, [1, 1], [1, 1], i)
            assert got == want

    def test_zero_weight_blocks_contributions(self):
        params = WishartParams(2, 2, linalg.identity(2))
        got = wick_trace_moment(params, [1, 0], [1, 0], 1)
        assert got == 1  # only the (1,1) cell survives


class TestMonteCarlo:
    def test_reproducibility(self):
        params = WishartParams(3, 2, linalg.identity(2))
        a = mc_expected_esf(params, 2, samples=5000, seed=123)
        b = mc_expected_esf(params, 2, samples=5000, seed=123)
        assert a == b

    def test_different_seed_changes_stream(self):
        params = WishartParams(3, 2, linalg.identity(2))
        a = mc_expected_esf(params, 2, samples=5000, seed=123)
        b = mc_expected_esf(params, 2, samples=5000, seed=124)
        assert a.value != b.value

    def test_order_zero(self):
        params = WishartParams(3, 2, linalg.identity(2))
        est = mc_expected_esf(params, 0, samples=10, seed=1)
        assert est == Estimate(value=1.0, stderr=0.0, samples=10, seed=1)

    def test_tiny_sample_reports_positive_stderr(self):
        params = WishartParams(3, 2, linalg.identity(2))
        est = mc_expected_esf(params, 1, samples=2, seed=3)
        assert est.stderr > 0

    def test_calibration_on_known_value(self):
        params = WishartParams(3, 2, linalg.identity(2))
        est = mc_expected_esf(params, 2, samples=200_000, seed=2718)
        assert abs(est.value - 6.0) <= 4 * est.stderr

    def test_sample_floor(self):
        params = WishartParams(3, 2, linalg.identity(2))
        with pytest.raises(ValueError):
            mc_expected_esf(params, 1, samples=1, seed=5)

    def test_batch_boundary_does_not_change_results(self):
        # crossing the fixed batch size must still be seed-deterministic
        params = WishartParams(2, 1, ((1,),))
        est = mc_expected_esf(params, 1, samples=70_000, seed=9)
        est2 = mc_expected_esf(params, 1, samples=70_000, seed=9)
        assert est == est2

    def test_batched_charpoly_matches_subset_determinants(self):
        # one fixed batch at p=6 that crosses a row-block boundary: e_i from
        # the batched characteristic polynomial against i x i principal minors
        x = np.random.default_rng(606).standard_normal((5000, 6, 8)) + 0.5
        w = np.matmul(x, np.transpose(x, (0, 2, 1)))
        for i in range(1, 7):
            want = np.zeros(len(w))
            for subset in itertools.combinations(range(6), i):
                idx = np.array(subset)
                want += np.linalg.det(w[:, idx[:, None], idx[None, :]])
            got = _batched_esf(w, i)
            for stat in (np.mean, lambda v: np.std(v, ddof=1) / np.sqrt(len(v))):
                assert abs(stat(got) - stat(want)) <= 1e-10 * abs(stat(want)), i

    def test_trace_moment_estimator_matches_first_cumulant(self):
        sigma = ((Fraction(1), 0), (0, Fraction(2)))
        m = ((Fraction(1), 0, 0), (0, Fraction(1), 0))
        params = WishartParams(3, 2, sigma, m)
        yw = [1, Fraction(1, 2)]
        xw = [1, 1, Fraction(2)]
        exact = wick_trace_moment(params, yw, xw, 1)
        est = mc_trace_moment(params, 1, yw, xw, samples=200_000, seed=11)
        assert abs(est.value - float(exact)) <= 4 * est.stderr

    def test_non_positive_definite_rejected_before_sampling(self):
        with pytest.raises(ValueError):
            WishartParams(3, 2, ((1, 2), (2, 1)))

    def test_stderr_of_huge_values_is_finite(self):
        # e_3 near 1e153: squaring the values themselves overflows
        sigma = tuple(tuple(1e51 if r == c else 0.0 for c in range(3)) for r in range(3))
        est = mc_expected_esf(WishartParams(3, 3, sigma), 3, samples=1000, seed=1)
        assert math.isfinite(est.stderr) and est.stderr > 0

    def test_stderr_of_tiny_values_is_positive(self):
        # e_3 near 6e-180: the squared deviations of the values underflow
        sigma = tuple(tuple(1e-60 if r == c else 0.0 for c in range(3)) for r in range(3))
        est = mc_expected_esf(WishartParams(3, 3, sigma), 3, samples=1000, seed=1)
        assert 0 < est.stderr < est.value
        assert abs(est.value - 6e-180) <= 4 * est.stderr

    def test_stderr_bits_match_the_unscaled_spread(self):
        rng = np.random.default_rng(17)
        for scale in (1e-3, 1.0, 3.0, 1e40):
            values = scale * rng.gamma(2.0, size=4097)
            est = _summarize(values, len(values), 0)
            assert est.stderr == float(np.std(values, ddof=1) / math.sqrt(len(values)))

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, stderr=-1.0, samples=3, seed=0)
