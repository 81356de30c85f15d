"""Exact chi_y-genus arithmetic over the rationals.

The package computes the Hirzebruch genus of an almost-complex manifold as
a universal polynomial in Chern classes, expands it at y = -1, evaluates
the resulting Chern number inequalities with equality detection, localizes
genus, Novikov polynomial, and signature over the fixed points of a circle
action, and classifies intersection forms by their inertia. Every number is
a ``fractions.Fraction``; there is no floating point anywhere.
"""

from .betti import (
    BettiInequalityReport,
    BettiProfile,
    InertiaTriple,
    UnimodalityReport,
    betti_inequality_check,
    cs_classification,
    inertia,
    signature_alternating,
    tolman_unimodality_report,
)
from .catalog import (
    ManifoldData,
    hypersurface,
    make_action,
    make_manifold,
    point,
    product,
    projective_space,
    standard_actions,
    standard_catalog,
    standard_pn_action,
)
from .chern import ChernPolynomial, power_sum_in_chern
from .engine import (
    check_duality,
    chi_minus_y,
    chi_vector,
    chi_y_chern_polynomial,
    duality_holds,
    evaluate_genus,
    genus_polynomial,
    normalized_series,
    specialize,
)
from .inequalities import (
    InequalityReport,
    a_polynomial,
    check_inequalities,
    miyaoka_yau_check,
    positivity_predicate,
)
from .kexpansion import (
    KTable,
    binomial_transform,
    closed_form_k,
    eulerian_identity_check,
    eulerian_polynomials,
    k_coefficients,
    odd_k_span_check,
    reassemble,
    verify_closed_forms,
)
from .localization import (
    FixedComponent,
    FixedPointModel,
    consistency_isolated,
    localized_chi_minus_y,
    localized_signature,
    negative_weight_count,
    novikov_polynomial,
    signature_identity_check,
)
from .partitions import Partition, partitions_of
from .series import TruncatedSeries
from .ypoly import YPolynomial

__version__ = "0.1.0"
