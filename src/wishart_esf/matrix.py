"""Dense matrices over the umbral polynomial ring: products, powers,
transpose, trace, diagonal builders, and a Berkowitz determinant at any size.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import charpoly
from .umbra import UmbralPolynomial

__all__ = ["UmbralMatrix"]


class UmbralMatrix:
    """Rectangular matrix with umbral-polynomial entries, stored row-major.

    Entries are coerced on construction; instances are immutable values and
    all operations return fresh matrices.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Sequence) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        flat = tuple(UmbralPolynomial.coerce(e) for e in entries)
        if len(flat) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self._entries = flat

    # -- builders -----------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "UmbralMatrix":
        rows = len(data)
        cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, [e for r in data for e in r])

    @classmethod
    def identity(cls, k: int) -> "UmbralMatrix":
        return cls(k, k, [1 if r == c else 0 for r in range(k) for c in range(k)])

    @classmethod
    def diag(cls, values: Sequence) -> "UmbralMatrix":
        k = len(values)
        return cls(k, k, [values[r] if r == c else 0 for r in range(k) for c in range(k)])

    # -- access ---------------------------------------------------------------

    def get(self, r: int, c: int) -> UmbralPolynomial:
        return self._entries[r * self.cols + c]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # -- algebra ---------------------------------------------------------------

    def matmul(self, other: "UmbralMatrix") -> "UmbralMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for r in range(self.rows):
            for c in range(other.cols):
                acc = UmbralPolynomial.zero()
                for t in range(self.cols):
                    acc = acc + self.get(r, t).mul(other.get(t, c))
                out.append(acc)
        return UmbralMatrix(self.rows, other.cols, out)

    def __matmul__(self, other):
        return self.matmul(other)

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
        out = [self.get(r, c) for c in range(self.cols) for r in range(self.rows)]
        return UmbralMatrix(self.cols, self.rows, out)

    def trace(self) -> UmbralPolynomial:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        acc = UmbralPolynomial.zero()
        for r in range(self.rows):
            acc = acc + self.get(r, r)
        return acc

    def det(self) -> UmbralPolynomial:
        """Determinant at any size: the top coefficient of Berkowitz's
        division-free :func:`linalg.charpoly`.  Berkowitz is a polynomial
        identity in the entries and a pruned product computes modulo the
        over-range umbra powers, so the result is the permutation sum's."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        rows = [self._entries[r * self.cols : (r + 1) * self.cols] for r in range(self.rows)]
        return charpoly(rows)[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UmbralMatrix):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    def __str__(self) -> str:
        lines = []
        for r in range(self.rows):
            lines.append("[" + ", ".join(str(self.get(r, c)) for c in range(self.cols)) + "]")
        return "\n".join(lines)

    __repr__ = __str__

