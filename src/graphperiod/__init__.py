"""Graph polynomial invariants and periodicity-exclusion criteria."""

from .graphs import (
    GraphFormatError,
    MultiGraph,
    canonical_key,
    component_count,
    component_subgraphs,
    is_connected,
    named_graph,
    parse_edge_list,
    relabel,
    render_edge_list,
)
from .polynomials import (
    ModPolynomial,
    NonDivisibleTermError,
    Polynomial,
    VariableMismatchError,
    divide_exact_monomial,
    is_prime,
    parse_polynomial,
    power_mod,
    reduce_mod_p,
    substitute,
)
from .invariants import (
    NegamiPolynomial,
    SubsetCapExceededError,
    TuttePair,
    chromatic_deletion_contraction,
    chromatic_from_negami,
    clear_caches,
    negami_from_tutte,
    negami_polynomial,
    negami_subset_expansion,
    tutte_deletion_contraction,
    tutte_from_negami,
)
from .symmetry import (
    Automorphism,
    NotAFreePeriodError,
    OracleLimitError,
    QuotientMap,
    automorphism_from_vertex_perm,
    enumerate_automorphisms,
    find_free_period,
    orbits,
    quotient_graph,
)
from .criteria import (
    CriterionReport,
    DisconnectedGraphError,
    NotSelfDualError,
    SoundnessError,
    Violation,
    check_chromatic_vanishing,
    check_negami_quotient_congruence,
    check_negami_shape,
    check_selfdual_vertex_count,
    check_tutte_coefficients,
    check_tutte_quotient_congruence,
    exclusion_report,
    excluded_primes,
)

__version__ = "0.1.0"
