"""Graded Betti numbers, Groebner bases and uniform bound verification for
homogeneous ideals over a prime field."""

from .polyring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Poly,
    PolyRing,
    format_poly,
    order_by_name,
)
from .groebner import (
    GBasis,
    Ideal,
    QuotientBasis,
    buchberger_iteration,
    groebner_basis,
    initial_exponents,
    reduced_gb,
    s_polynomial,
    truncated_initial_generators,
)
from .resolution import (
    BettiTable,
    IncompleteTableError,
    format_betti,
    koszul_betti,
    monomial_betti,
)
from .invariants import (
    GenericityError,
    InvariantBundle,
    SectionResult,
    alpha_of,
    frac_reg,
    generic_section,
    invariant_bundle,
    socle_of,
)
from .verifier import (
    CHECKS,
    Bound,
    BoundReport,
    CheckContext,
    InstanceSpec,
    generate_instance,
    run_all_checks,
    run_corpus,
)
from .ideal_io import ParseError, format_ideal, parse_ideal

__version__ = "0.1.0"
