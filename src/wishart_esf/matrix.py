"""Dense matrices over the umbral polynomial ring, on :mod:`linalg`'s row
routines: products, powers, transpose, trace, diagonal builders, and a
Berkowitz determinant at any size."""

from __future__ import annotations

from operator import mul
from typing import Sequence

from . import linalg
from .umbra import UmbralPolynomial

__all__ = ["UmbralMatrix"]


class UmbralMatrix:
    """Rectangular matrix with umbral-polynomial entries, stored as row tuples.

    ``from_rows`` checks and coerces the entries; instances are immutable
    values and all operations return fresh matrices.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: tuple) -> None:
        # rows of coerced entries, checked by the builders
        self.rows = len(data)
        self.cols = len(data[0])
        self._data = data

    # -- builders -----------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "UmbralMatrix":
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        if not cols:
            raise ValueError("matrix dimensions must be positive")
        return cls(tuple(tuple(map(UmbralPolynomial.coerce, r)) for r in data))

    @classmethod
    def identity(cls, k: int) -> "UmbralMatrix":
        return cls.from_rows(linalg.identity(k))

    @classmethod
    def diag(cls, values: Sequence) -> "UmbralMatrix":
        k = len(values)
        return cls.from_rows([[values[r] if r == c else 0 for c in range(k)] for r in range(k)])

    # -- access ---------------------------------------------------------------

    def get(self, r: int, c: int) -> UmbralPolynomial:
        return self._data[r][c]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # -- algebra ---------------------------------------------------------------

    def matmul(self, other: "UmbralMatrix") -> "UmbralMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = list(zip(*other._data))
        zero = UmbralPolynomial.zero()
        rows = tuple(tuple(sum(map(mul, r, c), zero) for c in cols) for r in self._data)
        return UmbralMatrix(rows)

    __matmul__ = matmul

    def matpow(self, k: int) -> "UmbralMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = self if k else UmbralMatrix.identity(self.rows)
        for _ in range(k - 1):
            result = result.matmul(self)
        return result

    def transpose(self) -> "UmbralMatrix":
        return UmbralMatrix(tuple(zip(*self._data)))

    def trace(self) -> UmbralPolynomial:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return linalg.trace(self._data)

    def det(self) -> UmbralPolynomial:
        """Determinant at any size: the top coefficient of Berkowitz's
        division-free :func:`linalg.charpoly`.  Berkowitz is a polynomial
        identity in the entries and a pruned product computes modulo the
        over-range umbra powers, so the result is the permutation sum's."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        return linalg.charpoly(self._data)[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UmbralMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(map(str, row)) + "]" for row in self._data)

    __repr__ = __str__
