"""Cyclic and quasi-cyclic codes over finite fields: permutation automorphism
groups, their classification, and permutation-equivalence testing through the
restricted conjugation sets H(P) and H'(P)."""

from .algebra import (
    Field,
    Polynomial,
    make_field,
    minimal_polynomial,
    multiplicative_order,
    poly_divmod,
    z_parameter,
)
from .codes import (
    CyclicCode,
    DistanceResult,
    LinearCode,
    WeightProfile,
    cyclic_code,
    cyclotomic_cosets,
    enumerate_cyclic_codes,
    idempotent,
    is_elementary,
    is_mds,
    min_distance,
    permute_code,
    weight_profile,
)
from .perm import (
    PermGroup,
    Permutation,
    block_system_valid,
    conjugation_set,
    group_closure,
    is_primitive,
    is_transitive,
    minimal_blocks,
    normalizer_in_symmetric,
    orbits,
    sylow_ascend,
)
from .autgroups import (
    AutoReport,
    BacktrackBudgetExceeded,
    GroupClass,
    analyze,
    backtrack_full_group,
    check_m_p_plus_1,
    gk_family,
    multiplier_scan,
    sylow_exponent_bounds,
)
from .equivalence import (
    EquivalenceVerdict,
    ag_set,
    brute_equivalence,
    decide_equivalence,
    gr_formula_set,
    hp_membership,
    q_group,
)
from .quasicyclic import (
    HPrimeReport,
    QuasiCyclicCode,
    imprimitivity_report,
    normalizer_witnesses,
    qc_equivalence_search,
    qc_sylow,
    quasi_cyclic_code,
    sigma_cycles,
)
from .verification import VerificationRow, run_battery

__version__ = "0.1.0"

__all__ = [
    "Field", "Polynomial", "make_field", "minimal_polynomial",
    "multiplicative_order", "poly_divmod", "z_parameter",
    "CyclicCode", "DistanceResult", "LinearCode", "WeightProfile",
    "cyclic_code", "cyclotomic_cosets", "enumerate_cyclic_codes",
    "idempotent", "is_elementary", "is_mds", "min_distance",
    "permute_code", "weight_profile",
    "PermGroup", "Permutation", "block_system_valid", "conjugation_set",
    "group_closure", "is_primitive", "is_transitive", "minimal_blocks",
    "normalizer_in_symmetric", "orbits", "sylow_ascend",
    "AutoReport", "BacktrackBudgetExceeded", "GroupClass", "analyze",
    "backtrack_full_group", "check_m_p_plus_1", "gk_family",
    "multiplier_scan", "sylow_exponent_bounds",
    "EquivalenceVerdict", "ag_set", "brute_equivalence",
    "decide_equivalence", "gr_formula_set", "hp_membership", "q_group",
    "HPrimeReport", "QuasiCyclicCode", "imprimitivity_report",
    "normalizer_witnesses", "qc_equivalence_search", "qc_sylow",
    "quasi_cyclic_code", "sigma_cycles",
    "VerificationRow", "run_battery",
    "__version__",
]
