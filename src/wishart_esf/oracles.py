"""Independent ground truth: exact Gaussian pairing expansions for small
instances and seeded Monte Carlo estimates for everything else.

The exact oracle never touches the symbolic kernel or the closed forms: it
expands principal minors of ``X X^T`` into monomials in the matrix-normal
entries and takes expectations term by term.  For a product of entries with
means, the expectation is a sum over partial pairings — unmatched factors
contribute their mean, matched pairs their covariance
``cov(X[a,j], X[b,k]) = sigma[a][b]`` if ``j == k`` else 0.  This is exact
rational arithmetic for rational parameters, since no square root of the
covariance is ever formed.

The Monte Carlo estimator runs in constant memory: its batch buffers share a
fixed byte budget, and each sample's value is folded into exact sums of the
values and of their squares, so no per-sample array is kept.  The estimate is
the correctly rounded mean of the sampled values and does not depend on how
the samples are batched.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction
from operator import index
from typing import Sequence

from . import linalg
from .combinatorics import permutation_sign
from .wishart import WishartParams, guard_order, mode_value, numeric_order

__all__ = [
    "Estimate",
    "wick_expected_esf",
    "wick_trace_moment",
    "mc_expected_esf",
]

WICK_DEGREE_LIMIT = 12
_MC_BUDGET = 1 << 20  # bytes of the five batch buffers; sizes the batches, not part of the output
_FOLD = 4096  # per-sample values folded into the exact sums at once: at least this many, at most twice
_EXACT_RUN = 1 << 16  # values whose binned pieces, each below 2^37, float64 sums hold exactly


class Estimate(namedtuple("Estimate", "value stderr samples seed")):
    """A Monte Carlo result: value, standard error (0 for exact), sample
    count, and the seed that reproduces it bit for bit.  Immutable, and equal
    to another ``Estimate`` with the same four fields, never to a plain tuple."""

    __slots__ = ()

    def __new__(cls, value: float, stderr: float, samples: int, seed: int) -> Estimate:
        if stderr < 0:
            raise ValueError("standard error cannot be negative")
        return super().__new__(cls, value, stderr, samples, seed)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


# -- exact pairing expansion ---------------------------------------------------


def _check_wick_size(params: WishartParams, i: int) -> None:
    if params.p * params.n * i > WICK_DEGREE_LIMIT:
        raise ValueError("wick oracle limit")


def _partial_pairing_expectation(labels: tuple, mean, cov) -> Fraction:
    """Expectation of a product of jointly Gaussian factors with means.

    ``labels`` name the factors; ``mean(label)`` and ``cov(label, label)``
    supply first and second centered moments.  Recursive sum over the choices
    for the first factor: unmatched (mean) or paired with a later one.
    """
    if not labels:
        return 1
    head, rest = labels[0], labels[1:]
    total = 0
    mu = mean(head)
    if mu != 0:
        total = mu * _partial_pairing_expectation(rest, mean, cov)
    for idx, other in enumerate(rest):
        c = cov(head, other)
        if c == 0:
            continue
        remaining = rest[:idx] + rest[idx + 1 :]
        total = total + c * _partial_pairing_expectation(remaining, mean, cov)
    return total


def _entry_mean_cov(params: WishartParams):
    m = params.m
    sigma = params.sigma

    def mean(label):
        if m is None:
            return 0
        a, j = label
        return m[a][j]

    def cov(label_a, label_b):
        a, j = label_a
        b, k = label_b
        if j != k:
            return 0
        return sigma[a][b]

    return mean, cov


@guard_order
def wick_expected_esf(params: WishartParams, i: int):
    """Exact ``E[Tr_i(W)]`` by expanding every i-by-i principal minor of
    ``X X^T`` into Gaussian entry monomials and pairing them out.

    Cost grows factorially; refuses instances with ``p * n * i > 12``.
    """
    _check_wick_size(params, i)
    mean, cov = _entry_mean_cov(params)
    total = 0
    for subset in itertools.combinations(range(params.p), i):
        for perm in itertools.permutations(range(i)):
            sign = permutation_sign(perm)
            # product over rows of (X X^T)[subset[r], subset[perm[r]]]
            for js in itertools.product(range(params.n), repeat=i):
                labels = []
                for pos, j in enumerate(js):
                    labels.append((subset[pos], j))
                    labels.append((subset[perm[pos]], j))
                value = _partial_pairing_expectation(tuple(labels), mean, cov)
                if value != 0:
                    total = total + sign * value
    return total


def wick_trace_moment(params: WishartParams, y: Sequence, x: Sequence, i: int):
    """Exact i-th moment of ``tr[(D_y X D_x)(D_y X D_x)^T]`` at numeric
    weights, ``p`` of them in ``y`` and ``n`` in ``x``: the quadratic form
    ``sum y_a^2 x_j^2 X[a,j]^2`` raised to the i-th power and paired out term
    by term.  The value passes through :func:`wishart.mode_value`."""
    i = numeric_order(params, i)
    if len(y) != params.p or len(x) != params.n:
        raise ValueError("need p row weights y and n column weights x")
    _check_wick_size(params, i)
    mean, cov = _entry_mean_cov(params)
    cells = [(a, j) for a in range(params.p) for j in range(params.n)]
    total = 0
    for picks in itertools.product(cells, repeat=i):
        coeff = 1
        labels = []
        for a, j in picks:
            coeff = coeff * y[a] * y[a] * x[j] * x[j]
            labels.append((a, j))
            labels.append((a, j))
        if coeff == 0:
            continue
        value = _partial_pairing_expectation(tuple(labels), mean, cov)
        if value != 0:
            total = total + coeff * value
    return mode_value(params, total)


# -- seeded Monte Carlo ---------------------------------------------------------


def _check_sampling(samples: int, seed: int) -> tuple[int, int]:
    """The sampling contract, at every order: ``samples`` an integer from 2 to
    ``sys.maxsize`` and ``seed`` a nonnegative integer; returns both as ``int``."""
    samples, seed = index(samples), index(seed)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if samples > sys.maxsize:
        raise ValueError(f"samples must be at most {sys.maxsize}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return samples, seed


def _batch_rows(p: int, n: int) -> int:
    """Rows per batch: the normals ``z`` and the samples ``x`` (p x n), the
    Gram matrix and the two recurrence buffers (p x p), all float64, fit in
    ``_MC_BUDGET`` bytes together."""
    return max(1, _MC_BUDGET // (8 * (2 * p * n + 3 * p * p)))


def _sample_batches(params: WishartParams, samples: int, seed: int):
    """Yield batches of sampled ``X`` of shape (b, p, n).

    Single stream, drawn in batches of any size: the draw sequence depends
    only on (seed, samples, p, n), which is the package's reproducibility contract.
    Batches have ``_batch_rows(p, n)`` rows, the last one fewer, and their
    sizes come from a generator, so no plan grows with ``samples``.
    Each batch is a view of one buffer that the next batch overwrites, so a
    caller consumes it before asking for the next.  One worker thread, the
    only one that touches the generator, refills the normals buffer with the
    next batch while the caller holds the current one; a failed draw raises
    here, and closing the generator waits for the worker to finish.
    """
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    rows = min(_batch_rows(params.p, params.n), samples)
    if rows < 1:
        return
    rng = np.random.default_rng(seed)
    low = linalg.cholesky_lower(params.sigma)
    mean = (
        np.zeros((params.p, params.n))
        if params.m is None
        else np.array(linalg.to_float(params.m), dtype=float)
    )
    shape = (rows, params.p, params.n)
    z, x = np.empty(shape), np.empty(shape)
    sizes = (min(rows, samples - start) for start in range(0, samples, rows))
    b = next(sizes)
    with ThreadPoolExecutor(max_workers=1) as worker:
        draw = worker.submit(rng.standard_normal, out=z[:b])
        while b:
            draw.result()
            np.matmul(low, z[:b], out=x[:b])
            ahead = next(sizes, 0)
            if ahead:  # z is free again: draw the next batch while the caller reduces x
                draw = worker.submit(rng.standard_normal, out=z[:ahead])
            yield np.add(mean, x[:b], out=x[:b])
            b = ahead


def _batched_esf(w, i: int, work):
    """``e_i`` of the latent roots of each matrix in a batch: Faddeev-LeVerrier
    stopped at order ``i``.  ``work`` is a pair of C-contiguous buffers of the
    shape of ``w`` that the recurrence overwrites."""
    import numpy as np

    b, p = w.shape[:2]
    am, tmp = work
    # det(t I - A) = sum_k c_k t^(p-k): M_k = A M_(k-1) + c_(k-1) I, c_k = -tr(A M_k) / k,
    # from M_1 = A, which is A times I bit for bit wherever A is finite
    np.copyto(am, w)
    c = -np.trace(am, axis1=1, axis2=2)
    # an overflow here leaves a non-finite value, which the exact sums reject
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, i + 1):
            am.reshape(b, p * p)[:, :: p + 1] += c[:, None]  # the diagonal, in place
            am, tmp = np.matmul(w, am, out=tmp), am
            c = -np.trace(am, axis1=1, axis2=2) / k
    return -c if i % 2 else c


def mc_expected_esf(params: WishartParams, i: int, samples: int, seed: int) -> Estimate:
    """Seeded Monte Carlo estimate of ``E[Tr_i(W)]``.

    Draws matrix-normal samples through a Cholesky factor, computes the
    elementary symmetric function per sample from a batched characteristic
    polynomial (no eigensolver), and folds each batch's values into exact
    sums.  The value is their correctly rounded mean, the standard error is
    within an ulp of the exact spread, and neither depends on how the samples
    are batched.  Identical (seed, samples, params) reproduce identical
    output bits.  Memory does not grow with ``samples``: the batch buffers
    share ``_MC_BUDGET`` bytes until one sample outgrows it, and the values
    buffer holds whole batches, about ``_FOLD`` values.  ``samples`` and ``seed`` pass
    :func:`_check_sampling` at every order, 0 and above ``p`` included.
    """
    import numpy as np

    samples, seed = _check_sampling(samples, seed)
    i = numeric_order(params, i)
    if not 1 <= i <= params.p:
        return Estimate(value=float(i == 0), stderr=0.0, samples=samples, seed=seed)
    # every batch runs in buffers made once per call
    rows = min(_batch_rows(params.p, params.n), samples)
    shape = (rows, params.p, params.p)
    gram, am, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    values = np.empty(rows * -(-_FOLD // rows))
    moments = _ExactMoments()
    filled = 0
    for x in _sample_batches(params, samples, seed):
        b = len(x)
        w = np.matmul(x, np.transpose(x, (0, 2, 1)), out=gram[:b])
        values[filled : filled + b] = _batched_esf(w, i, (am[:b], tmp[:b]))
        filled += b
        if filled + rows > len(values):
            moments.add(values[:filled])
            filled = 0
    moments.add(values[:filled])
    return moments.estimate(seed)


class _ExactMoments:
    """Exact sums of float64 values and of their squares, whatever their
    number, order or split into chunks.

    ``np.frexp`` writes each value as ``t * 2**(e - 53)`` with ``t`` an integer,
    ``|t| < 2**53``.  ``t`` is cut into 18-bit pieces, so that ``t`` and ``t**2``
    are sums of integer pieces below ``2**37`` in magnitude, and each piece is
    summed per exponent by ``np.bincount``: float64 sums of up to
    ``_EXACT_RUN`` such integers are exact.  After every ``_EXACT_RUN`` values
    the binned sums move into two Python ints, the sum in units of
    ``2**-1127`` and the sum of squares in units of ``2**-2254``.  No step
    rounds, overflows or underflows; a non-finite value raises.
    """

    def __init__(self) -> None:
        import numpy as np

        self.count = 0
        self._pending = 0
        # per biased exponent e + 1074 (1..2098 for nonzero finite values): the
        # pieces of the sum of t, weights 2^18 and 1, then of t^2, 2^72 .. 1
        self._bins = np.zeros((7, 2099))
        self._sum = 0
        self._sum_sq = 0

    def add(self, values) -> None:
        # a fold's temporaries are a few arrays of its chunk's size
        for start in range(0, len(values), 2 * _FOLD):
            chunk = values[start : start + 2 * _FOLD]
            if self._pending + len(chunk) > _EXACT_RUN:
                self._flush()
            self._fold(chunk)
            self._pending += len(chunk)
            self.count += len(chunk)

    def _fold(self, values) -> None:
        import numpy as np

        m, e = np.frexp(values)
        bins = e.astype(np.intp)
        low = int(bins.min())
        bins -= low
        sums = self._bins[:, low + 1074 :]
        t = np.multiply(m, 2.0**53, out=m)
        # a non-finite value leaves NaN or inf in its bins, which _flush rejects
        with np.errstate(invalid="ignore"):
            for k, piece in enumerate(_pieces(t)):
                total = np.bincount(bins, piece)
                sums[k, : len(total)] += total

    def _flush(self) -> None:
        import numpy as np

        if not np.isfinite(self._bins).all():
            raise OverflowError("the Monte Carlo estimate exceeds the float range")
        for e in np.flatnonzero(self._bins.any(axis=0)).tolist():
            hi, lo, *square = (int(v) for v in self._bins[:, e].tolist())
            self._sum += ((hi << 18) + lo) << e
            self._sum_sq += sum(v << 18 * k for k, v in enumerate(reversed(square))) << 2 * e
        self._bins[:] = 0
        self._pending = 0

    def estimate(self, seed: int) -> Estimate:
        """The correctly rounded mean of the values, and the standard error
        ``sqrt(sum((x - mean)^2) / (N (N - 1)))`` within an ulp."""
        self._flush()
        n = self.count
        mean = self._sum / (n << 1127)
        # N^2 (N - 1) stderr^2 = N sum(x^2) - sum(x)^2, exactly
        spread = n * self._sum_sq - self._sum**2
        stderr = _sqrt_ratio(spread, (n * n * (n - 1)) << 2254)
        return Estimate(value=mean, stderr=stderr, samples=n, seed=seed)


def _pieces(t):
    """For integer-valued float64 ``t``, ``|t| < 2^53``, with ``t = a 2^36 + b 2^18 + c``
    and ``0 <= b, c < 2^18``: the pieces ``hi = a 2^18 + b`` and ``c`` of ``t``, then
    ``a^2, 2ab, 2ac + b^2, 2bc, c^2`` of ``t^2``, one at a time; each is an integer
    below ``2^37`` in magnitude, and ``t`` is overwritten."""
    import numpy as np

    hi = np.floor(t * 2.0**-18)
    c = np.subtract(t, hi * 2.0**18, out=t)
    yield hi
    yield c
    a = np.floor(hi * 2.0**-18)
    b = np.subtract(hi, a * 2.0**18, out=hi)
    yield a * a
    a += a
    yield a * b
    yield a * c + b * b
    b += b
    yield b * c
    yield c * c


def _sqrt_ratio(num: int, den: int) -> float:
    """``sqrt(num / den)`` within an ulp, for integers ``num >= 0`` and
    ``den > 0``: the integer root carries at least 56 bits into the one
    rounding."""
    shift = max(0, 114 - num.bit_length() + den.bit_length()) // 2
    return math.isqrt((num << 2 * shift) // den) / (1 << shift)
