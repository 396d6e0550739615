"""stairpow: minimal generating sets of powers of bivariate monomial ideals.

Computes G(I^n) for arbitrary n by splitting a stabilized power I^s into
components that repeat verbatim in every higher power, so that I^(s+l) is
assembled in time linear in its own generator count, and mu(I^n) follows an
exact linear polynomial for n >= s.
"""

from .ideals import (
    EXP_LIMIT,
    UNIT,
    Axis,
    ExponentOverflowError,
    Monomial,
    MonomialIdeal,
    PrincipalIdealError,
    ideal_sum,
    minimalize,
    naive_power,
    pair_power,
)
from .geometry import (
    PersistenceProfile,
    persistence_profile,
    persistent_generators,
    stabilization_radius,
    weakly_persistent_generators,
)
from .links import LinkChain, link, link_many, link_point, unlink
from .segments import (
    GluedComponents,
    SegmentTriple,
    glued_components,
    glued_power,
    one_segment_power,
    r_segments,
)
from .engine import (
    MuPolynomial,
    StableDecomposition,
    assemble_power,
    assemble_power_counted,
    decomposed_power,
    mu_polynomial,
    power,
    stable_decomposition,
)
from .oracle import (
    DifferentialReport,
    RandomIdealSpec,
    check_corpus,
    differential_check,
    random_ideal,
    shift_generators,
)
from .textio import ParseError, format_term, parse_ideal, serialize, serialize_terms

__version__ = "1.0.0"

__all__ = [
    "EXP_LIMIT",
    "UNIT",
    "Axis",
    "DifferentialReport",
    "ExponentOverflowError",
    "GluedComponents",
    "LinkChain",
    "Monomial",
    "MonomialIdeal",
    "MuPolynomial",
    "ParseError",
    "PersistenceProfile",
    "PrincipalIdealError",
    "RandomIdealSpec",
    "SegmentTriple",
    "StableDecomposition",
    "assemble_power",
    "assemble_power_counted",
    "check_corpus",
    "decomposed_power",
    "differential_check",
    "format_term",
    "glued_components",
    "glued_power",
    "ideal_sum",
    "link",
    "link_many",
    "link_point",
    "minimalize",
    "mu_polynomial",
    "naive_power",
    "one_segment_power",
    "pair_power",
    "parse_ideal",
    "persistence_profile",
    "persistent_generators",
    "power",
    "r_segments",
    "random_ideal",
    "serialize",
    "serialize_terms",
    "shift_generators",
    "stabilization_radius",
    "stable_decomposition",
    "unlink",
    "weakly_persistent_generators",
]
