"""Graph polynomial invariants and periodicity-exclusion criteria.

The public names below load their module on first use (PEP 562), so that
importing the package, or one of its modules, loads no other module.
"""

import importlib

_EXPORTS = {
    "graphs": (
        "GraphFormatError",
        "MultiGraph",
        "canonical_key",
        "component_count",
        "is_connected",
        "named_graph",
        "parse_edge_list",
        "render_edge_list",
    ),
    "polynomials": (
        "ModPolynomial",
        "NonDivisibleTermError",
        "Polynomial",
        "VariableMismatchError",
        "divide_exact_monomial",
        "is_prime",
        "power_mod",
        "reduce_mod_p",
        "require_prime",
        "substitute",
    ),
    "invariants": (
        "NegamiPolynomial",
        "SubsetCapExceededError",
        "TuttePair",
        "chromatic_deletion_contraction",
        "clear_caches",
        "negami_from_tutte",
        "negami_polynomial",
        "negami_subset_expansion",
        "tutte_deletion_contraction",
    ),
    "symmetry": (
        "Automorphism",
        "NotAFreePeriodError",
        "OracleLimitError",
        "QuotientMap",
        "automorphism_from_vertex_perm",
        "enumerate_automorphisms",
        "find_free_period",
        "orbits",
        "quotient_graph",
    ),
    "criteria": (
        "CriterionReport",
        "DisconnectedGraphError",
        "NotSelfDualError",
        "SoundnessError",
        "Violation",
        "check_chromatic_vanishing",
        "check_negami_quotient_congruence",
        "check_negami_shape",
        "check_selfdual_vertex_count",
        "check_tutte_coefficients",
        "check_tutte_quotient_congruence",
        "exclusion_report",
        "excluded_primes",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
