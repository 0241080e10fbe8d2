"""Expected elementary symmetric functions of noncentral Wishart latent roots.

A symbolic moment kernel (formal variables with prescribed moment sequences,
evaluated by a factorizing linear functional) computes the expectations by
pruning every monomial that does not contribute; exact closed forms and
pairing/Monte Carlo oracles cross-check it.
"""

from .combinatorics import complete_bell, elementary_symmetric, falling_factorial
from .matrix import UmbralMatrix
from .oracles import mc_expected_esf, wick_expected_esf, wick_trace_moment
from .umbra import UmbralPolynomial, evaluate, falling, indeterminates, singletons
from .wishart import (
    WishartParams,
    expected_esf_closed_form,
    expected_esf_umbral,
    trace_cumulant,
    trace_moment,
)

__version__ = "0.1.0"

__all__ = [
    "complete_bell",
    "elementary_symmetric",
    "falling_factorial",
    "UmbralMatrix",
    "mc_expected_esf",
    "wick_expected_esf",
    "wick_trace_moment",
    "UmbralPolynomial",
    "evaluate",
    "falling",
    "indeterminates",
    "singletons",
    "WishartParams",
    "expected_esf_closed_form",
    "expected_esf_umbral",
    "trace_cumulant",
    "trace_moment",
]
