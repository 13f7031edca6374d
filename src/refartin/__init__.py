"""Exact refined Artin characters and base-change conductors.

Everything is computed in exact arithmetic: rationals are
``fractions.Fraction``, roots of unity live in :class:`Cyclotomic`, and no
floating point appears anywhere.

The lattice-oracle names of :mod:`refartin.oracle` load that module (and its
``_linalg``) on first use, so ``import refartin`` does not pay for them.
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
    OracleError,
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

_ORACLE_NAMES = (
    "MonogenicOrder", "TameModel", "build_monogenic_order", "filtration_from_monogenic",
    "oracle_monogenic_clin", "oracle_tame_clin", "regular_action",
    "tame_character_from_monogenic", "valuation_monogenic",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # cyclotomic
    "Cyclotomic", "NotRationalError", "frobenius_average", "from_rational", "make_root",
    "parse_value",
    # grouptheory
    "ClassFunction", "FiniteGroup", "GroupHom", "GroupOrderError", "GroupValidationError",
    "Subgroup", "abelian_irreducibles", "build_group", "hom", "pair", "pullback", "pushforward",
    "quotient", "standard_characters", "subgroup",
    # ramification
    "OracleError", "RamificationData", "RamificationError", "artin_character", "bar_n",
    "build_ramification", "different_valuation", "discriminant_valuation", "herbrand_phi",
    "herbrand_psi", "p_average", "quotient_data", "refined_artin", "refined_artin_upper",
    "subgroup_data", "upper_group", "upper_jumps",
    # conductor
    "ConductorReport", "StabilityError", "artin_conductor", "conductor",
    "qp_irreducibles_cyclic", "sigma_p_stable", "verify_suite", "weil_restriction_check",
    # oracle, loaded on first use
    *_ORACLE_NAMES,
]
__version__ = "0.1.0"
