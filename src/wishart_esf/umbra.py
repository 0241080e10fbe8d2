"""Sparse polynomials in formal moment variables, and the linear functional
that collapses them to moments.

An :class:`Umbra` is a formal variable with a prescribed moment sequence.
Distinct umbrae are uncorrelated: evaluation factors across them, so a product
of powers of distinct umbrae evaluates to a product of single moment lookups,
while repeated factors of the *same* umbra accumulate exponent first and only
then hit the moment sequence.  :class:`Indeterminate`s are ordinary commuting
variables that evaluation passes through untouched.

The performance lever of the whole package sits here: umbrae with a finite
nonzero-moment range (``max_power``) let multiplication drop doomed monomials
eagerly, because exponents only ever grow under products.

Each product packs the monomials of both operands into Python ints, one bit
field per variable (the packed monomials of Monagan & Pearce, *Sparse
polynomial division using heaps*, JSC 2011): a term pair costs one integer
add and one mask test against guard bits, which a biased field sets exactly
when a bounded umbra passes ``max_power``.  Surviving keys are
unpacked back to the ``(umbra_powers, indet_powers)`` tuples of
:class:`UmbralPolynomial`, once per power: a power runs on one layout sized
for its last step, and each step's keys are the next step's left operand.
The coefficients are whatever the operands hold; callers that clear
denominators first (the Wishart route does) keep them ``int``.  Sums,
products and evaluation put them into a term map through :func:`_accumulate`
alone, the home of the rule that no coefficient is zero.

Monomial keys hold the variable objects themselves, so a polynomial keeps its
own umbrae and indeterminates alive and no module-level table maps ids back
to variables: a computation's variables are freed along with its results.
"""

from __future__ import annotations

import itertools
import numbers
from fractions import Fraction
from operator import index
from typing import Callable, Union

from .combinatorics import falling_factorial

__all__ = [
    "Umbra",
    "Indeterminate",
    "UmbralPolynomial",
    "indeterminates",
    "singletons",
    "falling",
    "evaluate",
]

Scalar = Union[int, Fraction, float]

_IDS = itertools.count(1)


class _Operand:
    """Arithmetic mix-in lifting symbols into polynomials."""

    __slots__ = ()

    def _lift(self) -> "UmbralPolynomial":
        return UmbralPolynomial.coerce(self)

    def __add__(self, other):
        return self._lift() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._lift() - other

    def __rsub__(self, other):
        return (-self._lift()) + other

    def __mul__(self, other):
        return self._lift() * other

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return self._lift() ** k

    def __neg__(self):
        return -self._lift()


class Umbra(_Operand):
    """A formal variable whose powers evaluate to a prescribed moment sequence.

    ``moment_fn(k)`` gives the k-th moment for ``1 <= k <= max_power``; the
    0-th moment is 1 and every moment past ``max_power``, the largest
    exponent that can carry a nonzero moment, is 0 (``None`` means
    unbounded).  An umbra is an immutable value that holds no mutable state,
    so it can be shared across threads.  ``ident`` only fixes the order of
    factors inside a monomial.
    """

    __slots__ = ("ident", "name", "max_power", "_moment_fn", "__weakref__")

    def __init__(
        self,
        moment_fn: Callable[[int], Scalar],
        *,
        name: str | None = None,
        max_power: int | None = None,
    ) -> None:
        self.ident = next(_IDS)
        self.name = name or f"a{self.ident}"
        self.max_power = None if max_power is None else index(max_power)
        self._moment_fn = moment_fn

    def moment(self, k: int) -> Scalar:
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if self.max_power is not None and k > self.max_power:
            return 0
        return self._moment_fn(k) if k else 1

    def __repr__(self) -> str:
        return f"Umbra({self.name})"


class Indeterminate(_Operand):
    """An ordinary commuting formal variable; distinct instances are distinct."""

    __slots__ = ("ident", "name", "__weakref__")

    def __init__(self, name: str) -> None:
        self.ident = next(_IDS)
        self.name = name

    def __repr__(self) -> str:
        return f"Indeterminate({self.name})"


def indeterminates(prefix: str, count: int) -> list[Indeterminate]:
    return [Indeterminate(f"{prefix}{i + 1}") for i in range(count)]


def singletons(count: int = 1, prefix: str = "chi") -> list[Umbra]:
    """Fresh mutually uncorrelated umbrae with moments 1, 1, 0, 0, ...: the
    counting umbra ``falling(1)`` of Di Nardo & Senato (Eur. J. Combin. 27, 2006)."""
    return [falling(1, name=f"{prefix}{i + 1}") for i in range(count)]


def falling(n: int, name: str | None = None) -> Umbra:
    """Umbra whose k-th moment is the falling factorial ``n (n-1) ... (n-k+1)``,
    hard zero beyond ``n``."""
    n = index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Umbra(
        lambda k: falling_factorial(n, k),
        name=name or f"fall{n}",
        max_power=n,
    )


def _top_exponents(terms: dict) -> dict:
    """Largest exponent of every variable over the keys of a term map."""
    top: dict = {}
    for ub, ind in terms:
        for v, e in ub + ind:
            if e > top.get(v, 0):
                top[v] = e
    return top


class _Layout:
    """Bit fields for the monomials of one product, one field per variable.

    A field is wide enough for the largest exponent sum the product can
    form, so packed keys add without carrying between fields.  The field of
    an umbra whose exponent sum can exceed its ``max_power`` c gets a guard
    bit at position k and a bias ``2^k - 1 - c`` on the left operand's keys:
    the guard bit of a sum is set exactly when that umbra's exponent
    exceeds c.  ``fields`` lists ``(variable, offset, mask, kind)``, ``kind``
    0 for an umbra and 1 for an indeterminate.  A layout moves exponents only;
    coefficients, and the rule that none is zero, belong to :func:`_accumulate`.
    """

    __slots__ = ("offsets", "bias", "guard", "fields")

    def __init__(self, top_left: dict, top_right: dict) -> None:
        self.offsets: dict = {}
        self.bias = self.guard = 0
        self.fields: list = []
        offset = 0
        for v in sorted(top_left.keys() | top_right.keys(), key=lambda v: v.ident):
            total = top_left.get(v, 0) + top_right.get(v, 0)
            is_umbra = isinstance(v, Umbra)
            cap = v.max_power if is_umbra else None
            if cap is None or total <= cap:
                width = total.bit_length()
            else:
                k = max(cap.bit_length(), (total - cap - 1).bit_length())
                self.bias += ((1 << k) - 1 - cap) << offset
                self.guard |= 1 << (offset + k)
                width = k + 1
            self.offsets[v] = offset
            self.fields.append((v, offset, (1 << width) - 1, 0 if is_umbra else 1))
            offset += width

    def pack(self, terms: dict, bias: int = 0) -> list:
        offsets = self.offsets
        packed = []
        for (ub, ind), c in terms.items():
            key = bias
            for v, e in ub + ind:
                key += e << offsets[v]
            packed.append((key, c))
        return packed

    def unpack(self, key: int) -> tuple:
        key -= self.bias
        powers = ([], [])
        for v, offset, mask, kind in self.fields:
            e = key >> offset & mask
            if e:
                powers[kind].append((v, e))
        return tuple(powers[0]), tuple(powers[1])


def _accumulate(terms: dict, key, c) -> None:
    """Add ``c`` to ``terms[key]``, dropping the key when the sum is zero: a
    cancelled sum or an underflowed float product.  The one place a coefficient
    enters a term map, so the nonzero-coefficient rule lives here."""
    prev = terms.get(key)
    if prev is not None:
        c = prev + c
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def _product(left, right: list, guard: int) -> dict:
    """Packed product of a biased left and an unbiased right operand, without
    the pairs that set a guard bit.  The surviving keys carry the bias, so they
    can be the left operand of the next product on the same layout."""
    out: dict = {}
    for ka, ca in left:
        for kb, cb in right:
            key = ka + kb
            if key & guard:
                continue
            _accumulate(out, key, ca * cb)
    return out


def _chain(left: dict, top_left: dict, right: dict, steps: int) -> UmbralPolynomial:
    """``left * right**steps`` on one layout, sized by ``top_left`` for the last
    product's left operand; each operand is packed once and the result unpacked once."""
    layout = _Layout(top_left, _top_exponents(right))
    packed = layout.pack(right)
    keys = layout.pack(left, layout.bias)
    for _ in range(steps):
        keys = _product(keys, packed, layout.guard).items()
    return UmbralPolynomial({layout.unpack(key): c for key, c in keys})


def _display_order(key: tuple) -> tuple:
    return tuple(tuple((v.ident, e) for v, e in powers) for powers in key)


class UmbralPolynomial:
    """Canonical sparse linear combination of monomials in umbrae and
    indeterminates.

    Terms map ``(umbra_powers, indet_powers)`` — both tuples of
    ``(variable, exponent)`` sorted by the variable's ``ident``, with no zero
    exponents — to nonzero coefficients.  Variables compare by identity, so
    equality of polynomials is equality of these maps.  Instances are treated
    as immutable values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict) -> None:
        self._terms = terms

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "UmbralPolynomial":
        return UmbralPolynomial({})

    @staticmethod
    def one() -> "UmbralPolynomial":
        return UmbralPolynomial({((), ()): 1})

    @staticmethod
    def constant(c: Scalar) -> "UmbralPolynomial":
        if c == 0:
            return UmbralPolynomial({})
        return UmbralPolynomial({((), ()): c})

    @staticmethod
    def coerce(x) -> "UmbralPolynomial":
        if isinstance(x, UmbralPolynomial):
            return x
        if isinstance(x, Umbra):
            return UmbralPolynomial({(((x, 1),), ()): 1})
        if isinstance(x, Indeterminate):
            return UmbralPolynomial({((), ((x, 1),)): 1})
        if isinstance(x, (int, Fraction)):
            return UmbralPolynomial.constant(x)
        # numpy integers are read as Python ints, whose products do not wrap
        if isinstance(x, numbers.Integral):
            return UmbralPolynomial.constant(index(x))
        if isinstance(x, numbers.Real):
            return UmbralPolynomial.constant(float(x))
        raise TypeError(f"cannot interpret {x!r} as a polynomial")

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Read-only view of the canonical term map."""
        return self._terms.items()

    def as_scalar(self) -> Scalar:
        if not self._terms:
            return 0
        if self._terms.keys() == {((), ())}:
            return self._terms[((), ())]
        raise ValueError("polynomial is not a constant")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = UmbralPolynomial.coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        merged = dict(self._terms)
        for key, c in other._terms.items():
            _accumulate(merged, key, c)
        return UmbralPolynomial(merged)

    __radd__ = __add__

    def __neg__(self):
        return UmbralPolynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-UmbralPolynomial.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "UmbralPolynomial":
        if isinstance(c, numbers.Integral):
            c = index(c)
        if c == 0:
            return UmbralPolynomial.zero()
        if c == 1 and not isinstance(c, float):
            return self
        return UmbralPolynomial({k: w for k, v in self._terms.items() if (w := v * c) != 0})

    def mul(self, other) -> "UmbralPolynomial":
        """Product over the commutative ring.  Any monomial in which some
        umbra exceeds its largest possibly-nonzero moment order is dropped
        immediately; such monomials evaluate to zero in every context since
        exponents never decrease.
        """
        other = UmbralPolynomial.coerce(other)
        if not self._terms or not other._terms:
            return UmbralPolynomial.zero()
        return _chain(self._terms, _top_exponents(self._terms), other._terms, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    def pow(self, k: int) -> "UmbralPolynomial":
        k = index(k)
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        if k == 0:
            return UmbralPolynomial.one()
        if k == 1 or not self._terms:
            return self
        # One layout for the whole chain.  An intermediate power keeps no
        # umbra past its max_power, though the base may.
        top = _top_exponents(self._terms)
        top_left = {}
        for v, e in top.items():
            cap = v.max_power if isinstance(v, Umbra) else None
            top_left[v] = (k - 1) * e if cap is None else min((k - 1) * e, max(e, cap))
        return _chain(self._terms, top_left, self._terms, k - 1)

    def __pow__(self, k: int):
        return self.pow(k)

    # -- equality and display ------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = UmbralPolynomial.coerce(other)
        except TypeError:
            return NotImplemented
        return self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for key in sorted(self._terms, key=_display_order):
            c = self._terms[key]
            factors = [f"{v.name}^{e}" if e > 1 else v.name for v, e in key[0] + key[1]]
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(factors))
            elif c == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append("*".join([str(c)] + factors))
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def evaluate(x) -> UmbralPolynomial:
    """Apply the evaluation functional: umbra powers become moments, distinct
    umbrae factor, indeterminates pass through.  The result carries no umbrae.

    Monomials containing an umbra power with zero moment (odd or over-range
    powers of the 1,0,1,0,... kind, repeated singleton factors, ...) are
    skipped without computing the rest of the factorization.
    """
    p = UmbralPolynomial.coerce(x)
    out: dict = {}
    for (ub, ind), c in p._terms.items():
        value = c
        for u, e in ub:
            mom = u.moment(e)
            if mom == 0:
                break
            if mom != 1:
                value = value * mom
        else:
            _accumulate(out, ((), ind), value)
    return UmbralPolynomial(out)

