"""Finite set-theoretic solutions of the Pentagon Equation.

Construction, axiom verification, exhaustive enumeration, isomorphism
classification, and structure-monoid growth on small finite carriers.
"""

__version__ = "0.1.0"

from .core import (
    Bijection,
    BudgetError,
    MultTable,
    SolutionTable,
    ValidationError,
    check_bijective,
    check_cocommutative,
    check_commutative,
    check_involutive,
    check_pentagon,
    check_reversed_pentagon,
    derive_tables,
    flip_conjugate,
    is_morphism,
    order_of,
    pentagon_witness,
    product_solution,
    relabel,
)
from .constructors import (
    Decomposition,
    GroupTable,
    SigmaMap,
    canonical_solution,
    cycle_solution,
    cyclic_group,
    decomposition_solution,
    direct_product_group,
    endo_solution,
    ext_solution,
    group_from_cayley,
    group_solution,
    identity_solution,
    idempotent_pair_solution,
    irretractable_solution,
    sigma_search,
    trivial_group,
    trivial_sigma,
    xor_group,
)
from .analysis import (
    LeftGroupDecomposition,
    RetractResult,
    abelian_structure,
    classify,
    decompose,
    find_isomorphism,
    idempotents,
    is_irretractable,
    is_isomorphic_invariant,
    left_group_decomposition,
    retract,
    retract_tower,
)
from .enumeration import (
    EnumerationReport,
    canonical_form,
    count_up_to_iso,
    enumerate_pruned,
    expected_count,
)
from .monoid import (
    DegreeEstimate,
    GrowthSeries,
    MonoidPresentation,
    estimate_growth_degree,
    growth_series,
    normal_forms,
    presentation_of,
    rank_expected,
    series_from_presentation,
)
