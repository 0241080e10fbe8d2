"""The complete Bell polynomial, elementary symmetric functions, falling
factorials and permutation signs.

Everything in this module is exact: integer or ``fractions.Fraction``
arithmetic throughout, with the complete Bell polynomial generic over any
commutative ring (numbers or polynomial values) since it only needs ``+``,
``*`` and a test for zero.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

__all__ = [
    "complete_bell",
    "elementary_symmetric",
    "falling_factorial",
]


def complete_bell(values: Sequence):
    """Complete Bell polynomial ``B_i(c_1, ..., c_i)`` with ``i = len(values)``:
    the raw moments of a sequence of cumulants.

    Generic over the coefficient ring: entries may be numbers, ``Fraction``s,
    or polynomial-like values supporting ``+``, ``*`` and comparison with 0.
    Runs the moment-cumulant recurrence ``B_0 = 1``,
    ``B_(m+1) = sum_(k=0..m) C(m, k) B_(m-k) c_(k+1)``, skipping the terms
    with a zero factor; 0 when no term survives.
    """
    moments = [1]
    for m in range(len(values)):
        total = None
        for k in range(m + 1):
            if values[k] == 0 or moments[m - k] == 0:
                continue
            term = moments[m - k] * values[k] * math.comb(m, k)
            total = term if total is None else total + term
        moments.append(0 if total is None else total)
    return moments[-1]


def elementary_symmetric(y: Sequence, i: int):
    """Sum of all products of ``i`` distinct entries of ``y``.

    Returns 1 for ``i = 0`` and 0 for ``i > len(y)``.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    return sum(map(math.prod, itertools.combinations(y, i)))


def permutation_sign(perm: Sequence[int]) -> int:
    """+1 for an even permutation of ``0..len(perm)-1``, -1 for an odd one."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def falling_factorial(n: int, k: int) -> int:
    """``n (n-1) ... (n-k+1)``; equals 0 once the product crosses zero."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return math.prod(range(n, n - k, -1))
