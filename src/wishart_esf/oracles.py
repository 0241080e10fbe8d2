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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .combinatorics import permutation_sign
from .wishart import WishartParams, guard_order

__all__ = [
    "Estimate",
    "wick_expected_esf",
    "wick_trace_moment",
    "mc_expected_esf",
    "mc_trace_moment",
]

WICK_DEGREE_LIMIT = 12
_MC_BATCH = 65536  # fixed batch size; part of the reproducibility contract
_ESF_BLOCK = 4096  # rows per block of the batched char-poly; bounds its temporaries


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo result: value, standard error (0 for exact), sample
    count, and the seed that reproduces it bit for bit."""

    value: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ValueError("standard error cannot be negative")


# -- exact pairing expansion ---------------------------------------------------


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
    if params.p * params.n * i > WICK_DEGREE_LIMIT:
        raise ValueError("wick oracle limit")
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
    weights: the quadratic form ``sum y_a^2 x_j^2 X[a,j]^2`` raised to the
    i-th power and paired out term by term."""
    if i < 0:
        raise ValueError("order must be nonnegative")
    if i == 0:
        return Fraction(1) if params.mode == "rational" else 1.0
    if params.p * params.n * i > WICK_DEGREE_LIMIT:
        raise ValueError("wick oracle limit")
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
    return total


# -- seeded Monte Carlo ---------------------------------------------------------


def _sample_batches(params: WishartParams, samples: int, seed: int):
    """Yield batches of sampled ``X`` of shape (b, p, n).

    Single stream, fixed batch size: the draw sequence depends only on
    (seed, samples, p, n), which is the package's reproducibility contract.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    low = np.array(linalg.cholesky_lower(params.sigma), dtype=float)
    mean = (
        np.zeros((params.p, params.n))
        if params.m is None
        else np.array(linalg.to_float(params.m), dtype=float)
    )
    remaining = samples
    while remaining > 0:
        b = min(_MC_BATCH, remaining)
        z = rng.standard_normal((b, params.p, params.n))
        yield mean + np.matmul(low, z)
        remaining -= b


def _batched_esf(w, i: int):
    """``e_i`` of the latent roots of each matrix in a batch: Faddeev-LeVerrier
    stopped at order ``i``, run over fixed row blocks."""
    import numpy as np

    out = np.empty(w.shape[0])
    eye = np.eye(w.shape[1])
    for lo in range(0, w.shape[0], _ESF_BLOCK):
        a = w[lo : lo + _ESF_BLOCK]
        # det(t I - A) = sum_k c_k t^(p-k): M_k = A M_(k-1) + c_(k-1) I, c_k = -tr(A M_k) / k
        am = np.zeros_like(a)
        c = np.ones(len(a))
        for k in range(1, i + 1):
            am = np.matmul(a, am + c[:, None, None] * eye)
            c = -np.trace(am, axis1=1, axis2=2) / k
        out[lo : lo + _ESF_BLOCK] = -c if i % 2 else c
    return out


def mc_expected_esf(params: WishartParams, i: int, samples: int, seed: int) -> Estimate:
    """Seeded Monte Carlo estimate of ``E[Tr_i(W)]``.

    Draws matrix-normal samples through a Cholesky factor, computes the
    elementary symmetric function per sample from a batched characteristic
    polynomial (no eigensolver), and reports mean and standard error.  Identical
    (seed, samples, params) reproduce identical output bits.
    """
    import numpy as np

    if i < 0:
        raise ValueError("order must be nonnegative")
    if i == 0:
        return Estimate(value=1.0, stderr=0.0, samples=samples, seed=seed)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if i > params.p:
        values = np.zeros(samples)
    else:
        chunks = []
        for x in _sample_batches(params, samples, seed):
            w = np.matmul(x, np.transpose(x, (0, 2, 1)))
            chunks.append(_batched_esf(w, i))
        values = np.concatenate(chunks)
    return _summarize(values, samples, seed)


def mc_trace_moment(
    params: WishartParams, i: int, y: Sequence, x: Sequence, samples: int, seed: int
) -> Estimate:
    """Seeded Monte Carlo estimate of the i-th moment of the weighted squared
    trace at numeric weights."""
    import numpy as np

    if i < 0:
        raise ValueError("order must be nonnegative")
    if i == 0:
        return Estimate(value=1.0, stderr=0.0, samples=samples, seed=seed)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    weights = np.outer(
        np.array([float(v) for v in y]) ** 2, np.array([float(v) for v in x]) ** 2
    )
    chunks = []
    for xs in _sample_batches(params, samples, seed):
        q = np.einsum("aj,baj->b", weights, xs**2)
        chunks.append(q**i)
    values = np.concatenate(chunks)
    return _summarize(values, samples, seed)


def _summarize(values, samples: int, seed: int) -> Estimate:
    import numpy as np

    mean = float(np.mean(values))
    # spread of the values divided by 2^shift, a power of two near their
    # largest magnitude, so that squaring can neither overflow nor underflow;
    # the scaling is exact, so the bits match the unscaled spread wherever
    # that neither overflows nor underflows
    shift = math.frexp(float(np.max(np.abs(values))))[1]
    spread = np.std(np.ldexp(values, -shift), ddof=1) / math.sqrt(len(values))
    stderr = math.ldexp(float(spread), shift)
    return Estimate(value=mean, stderr=stderr, samples=samples, seed=seed)
