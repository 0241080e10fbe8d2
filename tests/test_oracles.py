import copy
import itertools
import math
import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wishart_esf import linalg, oracles
from wishart_esf.oracles import (
    Estimate,
    _batch_rows,
    _batched_esf,
    _ExactMoments,
    _partial_pairing_expectation,
    mc_expected_esf,
    wick_expected_esf,
    wick_trace_moment,
)
from wishart_esf.wishart import WishartParams, expected_esf_closed_form, expected_esf_umbral

from conftest import (
    allocating_mc_esf,
    float_matrix,
    float_spd,
    mc_trace_moment,
    perfect_matchings,
    rational_diag_spd,
    rational_matrix,
)


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

    def test_float_value_beyond_float_range_raises(self):
        # e_2 of diag(1e200, 1e200) sums inf - inf in floats, which used to be NaN
        floating = WishartParams(2, 2, ((1e200, 0.0), (0.0, 1e200)))
        with pytest.raises(OverflowError, match="float range"):
            wick_expected_esf(floating, 2)
        assert wick_expected_esf(floating, 1) == 4e200
        exact = WishartParams(2, 2, ((10**200, 0), (0, 10**200)))
        assert wick_expected_esf(exact, 2) == 2 * 10**400

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

    def test_value_type_follows_the_mode(self):
        rational = WishartParams(3, 2, linalg.identity(2))
        floating = WishartParams(3, 2, ((1.0, 0.0), (0.0, 1.0)))
        for i in (0, 1, 2):
            exact = wick_trace_moment(rational, [1, 1], [1, 1, 1], i)
            assert type(exact) is Fraction
            assert type(wick_trace_moment(floating, [1, 1], [1, 1, 1], i)) is float
            # with every weight zero only the empty product, at i = 0, survives
            assert wick_trace_moment(floating, [0, 0], [0, 0, 0], i) == float(i == 0)
            assert type(wick_trace_moment(floating, [0, 0], [0, 0, 0], i)) is float
        assert wick_trace_moment(rational, [1, 1], [1, 1, 1], 1) == 6

    def test_orders_must_be_integers(self):
        params = WishartParams(3, 2, linalg.identity(2))
        # p * n * 3 is past the size limit, which used to be the message
        for order in (3.0, 2.5):
            with pytest.raises(TypeError):
                wick_trace_moment(params, [1, 1], [1, 1, 1], order)
        assert wick_trace_moment(params, [1, 1], [1, 1, 1], np.int64(1)) == 6

    def test_float_value_beyond_float_range_raises(self):
        # 1e300^2 overflows: the moment used to be returned as inf
        params = WishartParams(1, 1, ((1e300,),), ((1e300,),))
        with pytest.raises(OverflowError, match="float range"):
            wick_trace_moment(params, [1.0], [1.0], 1)
        exact = WishartParams(1, 1, ((10**300,),), ((10**300,),))
        assert wick_trace_moment(exact, [1], [1], 1) == 10**300 + 10**600

    def test_weight_lengths_must_match_the_model(self):
        # a third row weight at p = 2 used to be dropped, a short list to fail on an index
        params = WishartParams(3, 2, linalg.identity(2))
        for y, x in (([1, 1, 5], [1, 1, 1]), ([1], [1, 1, 1]), ([1, 1], [1, 1]), ([1, 1], [1, 1, 1, 1])):
            for i in (0, 1):
                with pytest.raises(ValueError, match="weights"):
                    wick_trace_moment(params, y, x, i)


@pytest.mark.parametrize(
    "method",
    [
        expected_esf_umbral,
        expected_esf_closed_form,
        wick_expected_esf,
        lambda params, i: wick_trace_moment(params, [1, 1], [1, 1, 1], i),
        lambda params, i: mc_expected_esf(params, i, samples=100, seed=1),
    ],
    ids=["umbral", "closed-form", "wick", "wick-trace-moment", "mc"],
)
def test_every_numeric_method_refuses_symbolic_parameter_sets(method):
    params = WishartParams.symbolic(3, 2)
    for i in range(params.p + 2):
        with pytest.raises(ValueError, match="symbolic parameter sets"):
            method(params, i)


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

    def test_order_above_p_holds_no_per_sample_values(self):
        # e_3 of a 2 x 2 matrix is 0 for every sample: a zero per sample
        # would hold 8 MB here
        params = WishartParams(3, 2, linalg.identity(2))
        tracemalloc.start()
        try:
            est = mc_expected_esf(params, 3, samples=10**6, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est == Estimate(value=0.0, stderr=0.0, samples=10**6, seed=5)
        assert peak < 1_000_000

    def test_orders_must_be_integers(self):
        params = WishartParams(3, 2, linalg.identity(2))
        # above p such an order used to give a zero estimate
        for order in (2.5, 3.0, 2.0):
            with pytest.raises(TypeError):
                mc_expected_esf(params, order, 100, 1)
        assert mc_expected_esf(params, np.int64(2), 100, 1) == mc_expected_esf(params, 2, 100, 1)

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

    def test_batch_size_does_not_change_results(self, monkeypatch):
        # budgets of 64 KiB and 1 MiB give batches of 160 and 2,570 rows here,
        # which split 9000 samples differently; both estimators must give the
        # same bits
        sigma = ((Fraction(2), Fraction(1, 2), 0), (Fraction(1, 2), 1, 0), (0, 0, Fraction(3)))
        m = ((1, 0, 0, Fraction(1, 2)), (0, 2, 0, 0), (0, 0, 1, 0))
        params = WishartParams(4, 3, sigma, m)

        def run(budget):
            monkeypatch.setattr(oracles, "_MC_BUDGET", budget)
            assert _batch_rows(3, 4) == budget // 408
            return (
                mc_expected_esf(params, 3, samples=9000, seed=21),
                mc_trace_moment(params, 2, [1, 0.5, 2], [1, 1, 0.5, 2], samples=9000, seed=22),
            )

        assert run(1 << 16) == run(1 << 20)

    def test_batched_charpoly_matches_subset_determinants(self):
        # one 5000-row batch at p=6: e_i from the batched characteristic
        # polynomial against i x i principal minors
        x = np.random.default_rng(606).standard_normal((5000, 6, 8)) + 0.5
        w = np.matmul(x, np.transpose(x, (0, 2, 1)))
        for i in range(1, 7):
            want = np.zeros(len(w))
            for subset in itertools.combinations(range(6), i):
                idx = np.array(subset)
                want += np.linalg.det(w[:, idx[:, None], idx[None, :]])
            got = _batched_esf(w, i, (np.empty(w.shape), np.empty(w.shape)))
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

    def test_estimate_beyond_float_range_raises(self):
        # e_3 near 1e360 overflows to inf, which would be reported as NaN
        sigma = tuple(tuple(1e120 if r == c else 0.0 for c in range(3)) for r in range(3))
        params = WishartParams(3, 3, sigma)
        with pytest.raises(OverflowError, match="float range"):
            mc_expected_esf(params, 3, samples=1000, seed=1)
        with pytest.raises(OverflowError, match="float range"):
            mc_trace_moment(params, 3, [1, 1, 1], [1, 1, 1], samples=1000, seed=1)

    def test_stderr_of_tiny_values_is_positive(self):
        # e_3 near 6e-180: the squared deviations of the values underflow
        sigma = tuple(tuple(1e-60 if r == c else 0.0 for c in range(3)) for r in range(3))
        est = mc_expected_esf(WishartParams(3, 3, sigma), 3, samples=1000, seed=1)
        assert 0 < est.stderr < est.value
        assert abs(est.value - 6e-180) <= 4 * est.stderr

    @staticmethod
    def _summaries():
        # 70,001 values of either sign at scales where their squares, or the
        # squares of their deviations, leave the float range: more than one
        # run of exact float sums, added in two uneven parts.  Yields the
        # estimate with the exact sums of the values and of their squares,
        # in units of 2^-1074 and 2^-2148
        rng = np.random.default_rng(17)
        for scale in (1e-300, 1e-3, 1.0, 1e40, 1e150):
            values = scale * (rng.gamma(2.0, size=70_001) - 0.5)
            moments = _ExactMoments()
            moments.add(values[:5])
            moments.add(values[5:])
            units = [num * (2**1074 // den) for num, den in map(float.as_integer_ratio, values.tolist())]
            yield moments.estimate(3), sum(units), sum(u * u for u in units)

    def test_mean_is_the_correctly_rounded_exact_mean(self):
        for est, total, _ in self._summaries():
            assert (est.samples, est.seed) == (70_001, 3)
            assert est.value == float(Fraction(total, 2**1074) / 70_001)

    def test_stderr_is_within_an_ulp_of_the_exact_spread(self):
        n = 70_001
        for est, total, squares in self._summaries():
            # stderr^2 = sum((x - mean)^2) / (N (N - 1)), exactly
            square = Fraction(n * squares - total * total, n * n * (n - 1) * 2**2148)
            ulp = Fraction(math.ulp(est.stderr))
            below, above = Fraction(est.stderr) - ulp, Fraction(est.stderr) + ulp
            assert 0 < below and below * below <= square <= above * above, est

    def test_widest_pieces_stay_exact(self):
        # with t = 2^53 - 1 the pieces 2bc and 2ac + b^2 are near 2^37, so the
        # binned float sums would round past 2^16 values
        value = 3 * (1 - 2.0**-53)
        moments = _ExactMoments()
        moments.add(np.full(3 * 2**16 + 1, value))
        assert moments.estimate(0) == Estimate(value=value, stderr=0.0, samples=3 * 2**16 + 1, seed=0)

    def test_sums_do_not_depend_on_the_split(self):
        values = np.random.default_rng(5).standard_normal(9000) * np.logspace(-200, 200, 9000)
        whole = _ExactMoments()
        whole.add(values)
        parts = _ExactMoments()
        for start in range(0, len(values), 641):
            parts.add(values[start : start + 641][::-1])
        assert whole.estimate(1) == parts.estimate(1)

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, stderr=-1.0, samples=3, seed=0)

    def test_estimate_is_an_immutable_value(self):
        est = Estimate(value=1.5, stderr=0.25, samples=3, seed=7)
        assert est == Estimate(1.5, 0.25, 3, 7) and hash(est) == hash(Estimate(1.5, 0.25, 3, 7))
        assert est != Estimate(value=1.5, stderr=0.25, samples=3, seed=8)
        assert est != (1.5, 0.25, 3, 7)
        assert repr(est) == "Estimate(value=1.5, stderr=0.25, samples=3, seed=7)"
        assert pickle.loads(pickle.dumps(est)) == est == copy.copy(est)
        with pytest.raises(AttributeError):
            est.value = 2.0
        with pytest.raises(AttributeError):
            del est.seed
        assert (est.value, est.stderr, est.samples, est.seed) == (1.5, 0.25, 3, 7)

    def test_sample_count_beyond_sys_maxsize_rejected(self):
        # such a count is refused before any sampling, at every order
        params = WishartParams(3, 2, linalg.identity(2))
        for i in (0, 1, 3):
            with pytest.raises(ValueError, match="at most"):
                mc_expected_esf(params, i, samples=sys.maxsize + 1, seed=1)

    def test_sample_count_below_two_or_not_an_integer_rejected_at_every_order(self):
        # orders 0 and above p return without sampling, after the count is read
        params = WishartParams(3, 2, linalg.identity(2))
        for i in range(params.p + 2):
            for samples in (-5, 0, 1):
                with pytest.raises(ValueError, match="at least 2"):
                    mc_expected_esf(params, i, samples=samples, seed=1)
            with pytest.raises(TypeError):
                mc_expected_esf(params, i, samples=2.0, seed=1)

    def test_seed_is_a_nonnegative_integer_at_every_order(self):
        # orders 0 and above p return without sampling, after the seed is read
        params = WishartParams(3, 2, linalg.identity(2))
        for i in range(params.p + 2):
            with pytest.raises(ValueError, match="seed must be nonnegative"):
                mc_expected_esf(params, i, samples=100, seed=-1)
            for seed in (None, 1.5):
                with pytest.raises(TypeError):
                    mc_expected_esf(params, i, samples=100, seed=seed)


class _RecordingGenerator:
    """Stands in for the generator the sampler makes: records the thread of
    each draw, signals when draw ``k`` starts and can fail draw ``fail_at``."""

    def __init__(self, rng, fail_at=None):
        self.rng = rng
        self.fail_at = fail_at
        self.threads = []
        self.started = [threading.Event() for _ in range(16)]

    def standard_normal(self, *args, **kwargs):
        k = len(self.threads)
        self.threads.append(threading.get_ident())
        self.started[k].set()
        if k == self.fail_at:
            raise _DrawFailed(k)
        return self.rng.standard_normal(*args, **kwargs)


class _DrawFailed(RuntimeError):
    pass


def _record_draws(monkeypatch, fail_at=None):
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(_RecordingGenerator(default_rng(seed), fail_at))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


class TestMonteCarloBuffers:
    """The batches run in buffers made once per call and sized by a byte
    budget, with the same bits as fresh arrays per batch summed in one go, one
    product fewer per batch and memory that does not grow with the sample
    count; the next batch is drawn on one worker thread while the caller
    reduces the current one."""

    @pytest.mark.parametrize("batch", [1000, 4096])
    def test_bits_match_the_allocating_estimator(self, rng, monkeypatch, batch):
        monkeypatch.setattr(oracles, "_batch_rows", lambda p, n: batch)
        for p in (1, 3, 6):
            sigma = float_spd(rng, p)
            for m in (None, float_matrix(rng, p, p + 2)):
                params = WishartParams(p + 2, p, sigma, m)
                for i in range(1, p + 1):
                    for samples in (2, 4095, 4096, 4097, 9000):
                        seed = rng.randrange(2**32)
                        got = mc_expected_esf(params, i, samples, seed)
                        want = allocating_mc_esf(params, i, samples, seed)
                        assert (got.value.hex(), got.stderr.hex()) == (
                            want.value.hex(),
                            want.stderr.hex(),
                        ), (p, m is None, i, samples)

    def test_products_per_batch(self, rng, monkeypatch):
        # the draw, the Gram matrix and i - 1 recurrence steps: M_1 = W
        # needs no product with the identity
        params = WishartParams(6, 4, float_spd(rng, 4), float_matrix(rng, 4, 6))
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        batches = -(-9000 // _batch_rows(4, 6))
        assert batches == 7  # 1,365 rows
        for i in range(1, 5):
            calls.clear()
            mc_expected_esf(params, i, samples=9000, seed=i)
            assert len(calls) == batches * (i + 1), i

    @pytest.mark.parametrize(
        "p, n, samples",
        [
            (2, 3, 10**6),  # 8 MB of per-sample values
            (20, 22, 5000),  # 4,096-row batch buffers would take 67 MB
        ],
    )
    def test_memory_does_not_grow_with_samples_or_size(self, p, n, samples):
        # the batch buffers share a 1 MiB budget; the values buffer and the
        # exact sums stay under a few hundred kB
        sigma = tuple(tuple(2.0 if r == c else 0.5 for c in range(p)) for r in range(p))
        params = WishartParams(n, p, sigma)
        mc_expected_esf(params, 2, samples=10, seed=5)  # imports outside the trace
        tracemalloc.start()
        try:
            mc_expected_esf(params, 2, samples=samples, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_next_batch_is_drawn_ahead(self, rng, monkeypatch):
        params = WishartParams(6, 4, float_spd(rng, 4), float_matrix(rng, 4, 6))
        made = _record_draws(monkeypatch)
        planned = -(-9000 // _batch_rows(4, 6))
        batches = 0
        for k, _ in enumerate(oracles._sample_batches(params, 9000, seed=3)):
            if k < planned - 1:  # batch k + 1 is on its way before the caller reduces batch k
                assert made[0].started[k + 1].wait(timeout=10), k
            batches += 1
        threads = made[0].threads
        assert batches == len(threads) == planned
        assert len(set(threads)) == 1 and threads[0] != threading.get_ident()

    def test_failed_draw_raises_instead_of_an_estimate(self, rng, monkeypatch):
        params = WishartParams(6, 4, float_spd(rng, 4))
        _record_draws(monkeypatch, fail_at=1)
        with pytest.raises(_DrawFailed):
            mc_expected_esf(params, 2, samples=9000, seed=3)

    def test_no_thread_is_left_running(self, rng, monkeypatch):
        params = WishartParams(6, 4, float_spd(rng, 4))
        before = threading.active_count()
        mc_expected_esf(params, 2, samples=9000, seed=3)
        assert threading.active_count() == before
        batches = oracles._sample_batches(params, 9000, seed=3)
        next(batches)
        batches.close()
        assert threading.active_count() == before
        reduced = []

        def failing(w, i, work):  # the consumer fails on the second batch
            reduced.append(i)
            if len(reduced) == 2:
                raise RuntimeError("reduction failed")
            return np.zeros(len(w))

        monkeypatch.setattr(oracles, "_batched_esf", failing)
        with pytest.raises(RuntimeError, match="reduction failed"):
            mc_expected_esf(params, 2, samples=9000, seed=3)
        assert threading.active_count() == before
        assert list(oracles._sample_batches(params, 0, seed=3)) == []
        assert threading.active_count() == before
