"""Integer partitions, Bell polynomials, and elementary symmetric functions.

Everything in this module is exact: integer or ``fractions.Fraction``
arithmetic throughout, with the complete Bell polynomial generic over any
commutative ring (numbers or polynomial values) since it only needs ``+``,
``*`` and a test for zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Partition",
    "enumerate_partitions",
    "bell_coefficient",
    "cycle_class_size",
    "complete_bell",
    "power_sum",
    "elementary_symmetric",
    "elementary_symmetric_from_power_sums",
    "elementary_symmetric_via_bell",
    "elementary_symmetric_via_cycle_classes",
    "diagonal_joint_moment",
    "falling_factorial",
]


@dataclass(frozen=True)
class Partition:
    """An integer partition in multiplicity form: ``((part, multiplicity), ...)``.

    Parts are strictly increasing and every multiplicity is positive, so the
    representation is canonical and hashable.  The empty tuple is the single
    partition of 0.
    """

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = 0
        for part, mult in self.parts:
            if part <= previous or mult < 1:
                raise ValueError(f"malformed partition {self.parts!r}")
            previous = part

    @classmethod
    def from_parts(cls, parts: Sequence[int]) -> "Partition":
        counts: dict[int, int] = {}
        for part in parts:
            if part < 1:
                raise ValueError("parts must be positive integers")
            counts[part] = counts.get(part, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @property
    def weight(self) -> int:
        return sum(part * mult for part, mult in self.parts)

    @property
    def length(self) -> int:
        """Number of parts counted with multiplicity."""
        return sum(mult for _, mult in self.parts)

    def __str__(self) -> str:
        inner = " ".join(f"{k}^{r}" if r > 1 else str(k) for k, r in self.parts)
        return f"({inner})"


def enumerate_partitions(i: int) -> list[Partition]:
    """All partitions of ``i``, each exactly once.

    Order is deterministic: lexicographic in the ascending part list, e.g.
    for 4: (1 1 1 1), (1 1 2), (1 3), (2 2), (4).  ``i = 0`` yields the
    single empty partition.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    found: list[Partition] = []

    def grow(remaining: int, minimum: int, acc: list[int]) -> None:
        if remaining == 0:
            found.append(Partition.from_parts(acc))
            return
        for part in range(minimum, remaining + 1):
            acc.append(part)
            grow(remaining - part, part, acc)
            acc.pop()

    grow(i, 1, [])
    return found


def bell_coefficient(partition: Partition) -> int:
    """Weight of a partition's term in the complete Bell polynomial:
    ``i! / (r_1! r_2! ... (1!)^{r_1} (2!)^{r_2} ...)``."""
    num = math.factorial(partition.weight)
    den = 1
    for part, mult in partition.parts:
        den *= math.factorial(mult) * math.factorial(part) ** mult
    return num // den


def cycle_class_size(partition: Partition) -> int:
    """Number of permutations of ``weight`` symbols whose cycle lengths form
    this partition: ``i! / (1^{r_1} r_1! 2^{r_2} r_2! ...)``."""
    num = math.factorial(partition.weight)
    den = 1
    for part, mult in partition.parts:
        den *= part**mult * math.factorial(mult)
    return num // den


def complete_bell(values: Sequence):
    """Complete Bell polynomial ``B_i(c_1, ..., c_i)`` with ``i = len(values)``.

    ``B_0 = 1``.  Generic over the coefficient ring: entries may be numbers,
    ``Fraction``s, or polynomial-like values supporting ``+``, ``*`` and
    comparison with 0.  Partitions using a zero entry are skipped, and the
    powers of each entry are built once, by repeated multiplication, and
    shared across partitions; 0 when no term survives.
    """
    i = len(values)
    if i == 0:
        return 1
    zero = [v == 0 for v in values]
    powers = [[v] for v in values]  # powers[k][r - 1] = values[k]^r
    total = None
    for partition in enumerate_partitions(i):
        if any(zero[part - 1] for part, _ in partition.parts):
            continue
        term = bell_coefficient(partition)
        for part, mult in partition.parts:
            built = powers[part - 1]
            while len(built) < mult:
                built.append(built[-1] * built[0])
            term = term * built[mult - 1]
        total = term if total is None else total + term
    return 0 if total is None else total


def power_sum(y: Sequence, k: int):
    """``s_k = sum_j y_j^k`` for ``k >= 1``."""
    if k < 1:
        raise ValueError("k must be positive")
    total = None
    for v in y:
        term = v**k
        total = term if total is None else total + term
    return 0 if total is None else total


def elementary_symmetric(y: Sequence, i: int):
    """Sum of all products of ``i`` distinct entries of ``y``.

    Returns 1 for ``i = 0`` and 0 for ``i > len(y)``.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    if i == 0:
        return 1
    if i > len(y):
        return 0
    total = None
    for combo in itertools.combinations(y, i):
        term = combo[0]
        for v in combo[1:]:
            term = term * v
        total = term if total is None else total + term
    return total


def divide_by_factorial(value, i: int):
    """``value / i!``, exact (a ``Fraction``) for int and ``Fraction`` values."""
    fact = math.factorial(i)
    if isinstance(value, (int, Fraction)):
        return Fraction(value, fact)
    return value / fact


def elementary_symmetric_from_power_sums(sums: Sequence, i: int):
    """Elementary symmetric value from the first ``i`` power sums
    ``sums = [s_1, ..., s_i]`` via the Bell-polynomial identity."""
    if i == 0:
        return 1
    if len(sums) < i:
        raise ValueError("need power sums up to order i")
    args = [(-1) ** (k - 1) * math.factorial(k - 1) * sums[k - 1] for k in range(1, i + 1)]
    return divide_by_factorial(complete_bell(args), i)


def elementary_symmetric_via_bell(y: Sequence, i: int):
    """Same value as :func:`elementary_symmetric`, computed from power sums."""
    if i == 0:
        return 1
    sums = [power_sum(y, k) for k in range(1, i + 1)]
    return elementary_symmetric_from_power_sums(sums, i)


def diagonal_joint_moment(y: Sequence, partition: Partition):
    """Product of power sums ``prod_k s_k(y)^{r_k}`` over the partition.

    This is the joint moment of ``diag(y)`` for any permutation whose cycle
    lengths form the partition; it depends only on the cycle class.
    """
    term = 1
    for part, mult in partition.parts:
        term = term * power_sum(y, part) ** mult
    return term


def elementary_symmetric_via_cycle_classes(y: Sequence, i: int):
    """Same value as :func:`elementary_symmetric`, as a signed partition sum
    weighted by cycle-class sizes."""
    if i == 0:
        return 1
    total = 0
    for partition in enumerate_partitions(i):
        sign = (-1) ** (i - partition.length)
        total = total + sign * cycle_class_size(partition) * diagonal_joint_moment(y, partition)
    return divide_by_factorial(total, i)


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            size += 1
        lengths.append(size)
    return lengths


def permutation_sign(perm: Sequence[int]) -> int:
    """+1 for an even permutation of ``0..len(perm)-1``, -1 for an odd one."""
    return -1 if (len(perm) - len(_cycle_lengths(perm))) % 2 else 1


def falling_factorial(n: int, k: int) -> int:
    """``n (n-1) ... (n-k+1)``; equals 0 once the product crosses zero."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for t in range(k):
        out *= n - t
    return out
