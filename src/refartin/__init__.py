"""Exact refined Artin characters and base-change conductors.

Everything is computed in exact arithmetic: rationals are
``fractions.Fraction``, roots of unity live in :class:`Cyclotomic`, and no
floating point appears anywhere.
"""

from .cyclotomic import (
    Cyclotomic,
    NotRationalError,
    frobenius_average,
    from_rational,
    make_root,
    parse_value,
)
from .grouptheory import (
    ClassFunction,
    FiniteGroup,
    GroupHom,
    GroupOrderError,
    GroupValidationError,
    Subgroup,
    abelian_irreducibles,
    build_group,
    hom,
    pair,
    pullback,
    pushforward,
    quotient,
    standard_characters,
    subgroup,
)
from .ramification import (
    RamificationData,
    RamificationError,
    artin_character,
    bar_n,
    build_ramification,
    different_valuation,
    discriminant_valuation,
    herbrand_phi,
    herbrand_psi,
    p_average,
    quotient_data,
    refined_artin,
    refined_artin_upper,
    subgroup_data,
    upper_group,
    upper_jumps,
)
from .conductor import (
    ConductorReport,
    StabilityError,
    artin_conductor,
    conductor,
    qp_irreducibles_cyclic,
    sigma_p_stable,
    verify_suite,
    weil_restriction_check,
)
from .oracle import (
    MonogenicOrder,
    OracleError,
    TameModel,
    build_monogenic_order,
    filtration_from_monogenic,
    oracle_monogenic_clin,
    oracle_tame_clin,
    regular_action,
    tame_character_from_monogenic,
    valuation_monogenic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
