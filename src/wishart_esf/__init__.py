"""Expected elementary symmetric functions of noncentral Wishart latent roots.

A symbolic moment kernel (formal variables with prescribed moment sequences,
evaluated by a factorizing linear functional) computes the expectations by
pruning every monomial that does not contribute; exact closed forms and
pairing/Monte Carlo oracles cross-check it.
"""

from .combinatorics import (
    Partition,
    complete_bell,
    elementary_symmetric,
    elementary_symmetric_from_power_sums,
    elementary_symmetric_via_bell,
    elementary_symmetric_via_cycle_classes,
    enumerate_partitions,
    falling_factorial,
    perfect_matchings,
    power_sum,
)
from .matrix import UmbralMatrix, hadamard, kron, vec, vec_inverse
from .oracles import Estimate, mc_expected_esf, mc_trace_moment, wick_expected_esf, wick_trace_moment
from .umbra import (
    Indeterminate,
    Umbra,
    UmbralPolynomial,
    custom_umbra,
    deltas,
    evaluate,
    evaluate_scalar,
    falling,
    gaussian,
    gf_coefficients,
    indeterminates,
    similar,
    singletons,
    unities,
)
from .wishart import (
    WishartParams,
    central_cumulant,
    expected_esf_closed_form,
    expected_esf_umbral,
    mean_cumulant,
    noncentral_chisq_cumulant,
    singleton_cross_term_identity,
    trace_cumulant,
    trace_moment,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "complete_bell",
    "elementary_symmetric",
    "elementary_symmetric_from_power_sums",
    "elementary_symmetric_via_bell",
    "elementary_symmetric_via_cycle_classes",
    "enumerate_partitions",
    "falling_factorial",
    "perfect_matchings",
    "power_sum",
    "UmbralMatrix",
    "hadamard",
    "kron",
    "vec",
    "vec_inverse",
    "Estimate",
    "mc_expected_esf",
    "mc_trace_moment",
    "wick_expected_esf",
    "wick_trace_moment",
    "Indeterminate",
    "Umbra",
    "UmbralPolynomial",
    "custom_umbra",
    "deltas",
    "evaluate",
    "evaluate_scalar",
    "falling",
    "gaussian",
    "gf_coefficients",
    "indeterminates",
    "similar",
    "singletons",
    "unities",
    "WishartParams",
    "central_cumulant",
    "expected_esf_closed_form",
    "expected_esf_umbral",
    "mean_cumulant",
    "noncentral_chisq_cumulant",
    "singleton_cross_term_identity",
    "trace_cumulant",
    "trace_moment",
]
