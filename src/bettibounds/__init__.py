"""Graded Betti numbers, Groebner bases and uniform bound verification for
homogeneous ideals over a prime field."""

from .polyring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Poly,
    PolyRing,
    apply_linear_change,
    format_poly,
    order_by_name,
)
from .groebner import (
    GBasis,
    Ideal,
    QuotientBasis,
    buchberger_iteration,
    divide,
    groebner_basis,
    ideal_intersection,
    ideal_quotient,
    ideal_quotient_ideal,
    ideals_equal,
    initial_exponents,
    irrelevant_ideal,
    normal_form,
    reduced_gb,
    s_polynomial,
    saturation,
    truncated_initial_generators,
)
from .resolution import (
    BettiTable,
    IncompleteTableError,
    TaylorComplex,
    format_betti,
    koszul_betti,
    minimize_taylor,
    monomial_betti,
    taylor_complex,
)
from .invariants import (
    FilterVerdict,
    GenericityError,
    InvariantBundle,
    SectionResult,
    alpha_of,
    filter_regular_test,
    frac_reg,
    generic_section,
    invariant_bundle,
    socle_degrees,
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
