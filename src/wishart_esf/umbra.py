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

Monomial keys hold the variable objects themselves, so a polynomial keeps its
own umbrae and indeterminates alive and no module-level table maps ids back
to variables: a computation's variables are freed along with its results.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from fractions import Fraction
from typing import Callable, Sequence, Union

from .combinatorics import divide_by_factorial, falling_factorial

__all__ = [
    "Umbra",
    "Indeterminate",
    "UmbralPolynomial",
    "indeterminates",
    "singletons",
    "deltas",
    "unities",
    "gaussian",
    "falling",
    "custom_umbra",
    "evaluate",
    "evaluate_scalar",
    "gf_coefficients",
    "similar",
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

    ``moment_fn(k, prev)`` receives the exponent and the list of moments
    ``0..k-1`` already computed, which keeps recursive sequences (normal
    moments) cheap.  ``max_power`` is the largest exponent that can carry a
    nonzero moment; ``None`` means unbounded.  Moment memoization is guarded
    by a lock so umbrae can be shared across threads.  ``ident`` only fixes
    the order of factors inside a monomial.
    """

    __slots__ = ("ident", "name", "max_power", "_moment_fn", "_cache", "_lock", "__weakref__")

    def __init__(
        self,
        moment_fn: Callable[[int, list], Scalar],
        *,
        name: str | None = None,
        max_power: int | None = None,
    ) -> None:
        self.ident = next(_IDS)
        self.name = name or f"a{self.ident}"
        self.max_power = max_power
        self._moment_fn = moment_fn
        self._cache: list = [1]
        self._lock = threading.Lock()

    def moment(self, k: int) -> Scalar:
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if self.max_power is not None and k > self.max_power:
            return 0
        with self._lock:
            while len(self._cache) <= k:
                j = len(self._cache)
                self._cache.append(self._moment_fn(j, self._cache))
            return self._cache[k]

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
    """Fresh mutually uncorrelated umbrae with moments 1, 1, 0, 0, ..."""
    return [
        Umbra(lambda k, prev: 1 if k == 1 else 0, name=f"{prefix}{i + 1}", max_power=1)
        for i in range(count)
    ]


def deltas(count: int = 1, prefix: str = "dlt") -> list[Umbra]:
    """Fresh umbrae with moments 1, 0, 1, 0, 0, ... (only orders 0 and 2 live)."""
    return [
        Umbra(lambda k, prev: 1 if k == 2 else 0, name=f"{prefix}{i + 1}", max_power=2)
        for i in range(count)
    ]


def unities(count: int = 1, prefix: str = "u") -> list[Umbra]:
    """Fresh umbrae with every moment equal to 1."""
    return [Umbra(lambda k, prev: 1, name=f"{prefix}{i + 1}") for i in range(count)]


def gaussian(
    mean: Scalar = 0,
    std: Scalar | None = None,
    *,
    variance: Scalar | None = None,
    name: str | None = None,
) -> Umbra:
    """Umbra carrying the raw moments of a normal distribution.

    Pass ``variance`` directly to stay exact when the standard deviation is
    irrational but the variance is rational.
    """
    if variance is None:
        variance = 0 if std is None else std * std

    def mom(k: int, prev: list) -> Scalar:
        if k == 1:
            return mean
        return mean * prev[k - 1] + (k - 1) * variance * prev[k - 2]

    return Umbra(mom, name=name or "g")


def falling(n: int, name: str | None = None) -> Umbra:
    """Umbra whose k-th moment is the falling factorial ``n (n-1) ... (n-k+1)``,
    hard zero beyond ``n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Umbra(
        lambda k, prev: falling_factorial(n, k),
        name=name or f"fall{n}",
        max_power=n,
    )


def custom_umbra(
    moments: Sequence[Scalar] | Callable[[int], Scalar],
    *,
    name: str | None = None,
    max_power: int | None = None,
) -> Umbra:
    """Umbra from an explicit moment sequence or a plain ``k -> a_k`` callable.

    A finite sequence is zero beyond its last entry.
    """
    if callable(moments):
        fn = moments
        return Umbra(lambda k, prev: fn(k), name=name, max_power=max_power)
    seq = list(moments)
    if not seq or seq[0] != 1:
        raise ValueError("moment sequence must start with a_0 = 1")
    bound = len(seq) - 1 if max_power is None else max_power
    return Umbra(lambda k, prev: seq[k], name=name, max_power=bound)


def _merge_powers(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        va, ea = a[ia]
        vb, eb = b[ib]
        if va is vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va.ident < vb.ident:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _alive(powers: tuple) -> bool:
    for u, e in powers:
        cap = u.max_power
        if cap is not None and e > cap:
            return False
    return True


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
        if isinstance(x, numbers.Real):
            return UmbralPolynomial.constant(float(x))
        raise TypeError(f"cannot interpret {x!r} as a polynomial")

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Read-only view of the canonical term map."""
        return self._terms.items()

    def as_scalar(self) -> Scalar:
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            ((ub, ind), c), = ((k, v) for k, v in self._terms.items())
            if not ub and not ind:
                return c
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
            prev = merged.get(key)
            if prev is None:
                merged[key] = c
            else:
                s = prev + c
                if s == 0:
                    del merged[key]
                else:
                    merged[key] = s
        return UmbralPolynomial(merged)

    __radd__ = __add__

    def __neg__(self):
        return UmbralPolynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-UmbralPolynomial.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "UmbralPolynomial":
        if c == 0:
            return UmbralPolynomial.zero()
        if c == 1:
            return self
        return UmbralPolynomial({k: v * c for k, v in self._terms.items()})

    def mul(self, other, prune: bool = True) -> "UmbralPolynomial":
        """Product over the commutative ring.

        With ``prune`` set, any monomial in which some umbra exceeds its
        largest possibly-nonzero moment order is dropped immediately; such
        monomials evaluate to zero in every context since exponents never
        decrease.
        """
        other = UmbralPolynomial.coerce(other)
        if not self._terms or not other._terms:
            return UmbralPolynomial.zero()
        out: dict = {}
        for (ua, ia), ca in self._terms.items():
            for (ub, ib), cb in other._terms.items():
                u = _merge_powers(ua, ub)
                if prune and not _alive(u):
                    continue
                key = (u, _merge_powers(ia, ib))
                c = ca * cb
                prev = out.get(key)
                if prev is None:
                    out[key] = c
                else:
                    s = prev + c
                    if s == 0:
                        del out[key]
                    else:
                        out[key] = s
        return UmbralPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    def pow(self, k: int, prune: bool = True) -> "UmbralPolynomial":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        if k == 0:
            return UmbralPolynomial.one()
        result = self
        for _ in range(k - 1):
            result = result.mul(self, prune=prune)
        return result

    def __pow__(self, k: int):
        return self.pow(k)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, indet: Indeterminate, replacement) -> "UmbralPolynomial":
        """Ring-homomorphic substitution of ``replacement`` for ``indet``.

        The replacement may be a scalar, another indeterminate, an umbra, or
        a polynomial; umbra powers introduced this way accumulate under later
        multiplication like any other.  Internal products are unpruned so the
        operation is an exact homomorphism on formal polynomials.
        """
        repl = UmbralPolynomial.coerce(replacement)
        out = UmbralPolynomial.zero()
        for (ub, ind), c in self._terms.items():
            exp = 0
            rest = []
            for v, ve in ind:
                if v is indet:
                    exp = ve
                else:
                    rest.append((v, ve))
            base = UmbralPolynomial({(ub, tuple(rest)): c})
            out = out + (base.mul(repl.pow(exp, prune=False), prune=False) if exp else base)
        return out

    def evaluate(self) -> "UmbralPolynomial":
        return evaluate(self)

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
        dead = False
        for u, e in ub:
            mom = u.moment(e)
            if mom == 0:
                dead = True
                break
            if mom != 1:
                value = value * mom
        if dead:
            continue
        key = ((), ind)
        prev = out.get(key)
        if prev is None:
            out[key] = value
        else:
            s = prev + value
            if s == 0:
                del out[key]
            else:
                out[key] = s
    return UmbralPolynomial(out)


def evaluate_scalar(x) -> Scalar:
    """Evaluate and demand a constant result."""
    return evaluate(x).as_scalar()


def gf_coefficients(source, order: int) -> list:
    """Truncated exponential generating sequence ``[m_0/0!, ..., m_K/K!]`` of
    an umbra or polynomial, where ``m_k`` is the evaluation of the k-th power.

    Purely formal: no convergence is implied.  Entries are scalars when the
    source has no indeterminates, otherwise umbra-free polynomials.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    p = UmbralPolynomial.coerce(source)
    out: list = []
    power = UmbralPolynomial.one()
    for k in range(order + 1):
        if k:
            power = power.mul(p)
        val = evaluate(power)
        try:
            out.append(divide_by_factorial(val.as_scalar(), k))
        except ValueError:
            out.append(val.scale(Fraction(1, math.factorial(k))))
    return out


def similar(a, b, order: int) -> bool:
    """Moment-wise similarity up to the given truncation order: the k-th
    powers of both sides evaluate identically for every ``k <= order``."""
    if order < 1:
        raise ValueError("order must be at least 1")
    pa = UmbralPolynomial.coerce(a)
    pb = UmbralPolynomial.coerce(b)
    power_a = UmbralPolynomial.one()
    power_b = UmbralPolynomial.one()
    for _ in range(order):
        power_a = power_a.mul(pa)
        power_b = power_b.mul(pb)
        if evaluate(power_a) != evaluate(power_b):
            return False
    return True
