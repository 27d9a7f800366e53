"""What importing the package and the CLI loads, and the package's lazily
resolved public names."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphperiod

SRC = Path(graphperiod.__file__).resolve().parents[1]

# the package's public names, by the module that defines them
PUBLIC = {
    "graphs": [
        "GraphFormatError", "MultiGraph", "canonical_key", "component_count",
        "is_connected", "named_graph", "parse_edge_list", "render_edge_list",
    ],
    "polynomials": [
        "ModPolynomial", "NonDivisibleTermError", "Polynomial",
        "VariableMismatchError", "divide_exact_monomial", "is_prime",
        "power_mod", "reduce_mod_p", "require_prime", "substitute",
    ],
    "invariants": [
        "NegamiPolynomial", "SubsetCapExceededError", "TuttePair",
        "chromatic_deletion_contraction", "clear_caches", "negami_from_tutte",
        "negami_polynomial", "negami_subset_expansion", "tutte_deletion_contraction",
    ],
    "symmetry": [
        "Automorphism", "NotAFreePeriodError", "OracleLimitError", "QuotientMap",
        "automorphism_from_vertex_perm", "enumerate_automorphisms",
        "find_free_period", "orbits", "quotient_graph",
    ],
    "criteria": [
        "CriterionReport", "DisconnectedGraphError", "NotSelfDualError",
        "SoundnessError", "Violation", "check_chromatic_vanishing",
        "check_negami_quotient_congruence", "check_negami_shape",
        "check_selfdual_vertex_count", "check_tutte_coefficients",
        "check_tutte_quotient_congruence", "exclusion_report", "excluded_primes",
    ],
}

MODULES = ["graphs", "polynomials", "invariants", "symmetry", "criteria", "families", "cli"]


def _loaded_after(statement: str) -> dict:
    """In a fresh interpreter: whether dataclasses was loaded before the
    statement ran, and which modules the statement loaded."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps({'dataclasses_before': 'dataclasses' in before,\n"
        "                  'loaded': sorted(set(sys.modules) - before)}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    ).stdout
    return json.loads(out)


def test_cli_import_leaves_out_criteria_invariants_and_dataclasses():
    result = _loaded_after("import graphperiod.cli")
    loaded = set(result["loaded"])
    assert {"graphperiod.graphs", "graphperiod.symmetry", "graphperiod.cli"} <= loaded
    assert "graphperiod.criteria" not in loaded
    assert "graphperiod.invariants" not in loaded
    assert result["dataclasses_before"] or "dataclasses" not in loaded


def test_package_import_loads_no_module_until_a_name_is_read():
    result = _loaded_after("import graphperiod")
    assert [m for m in result["loaded"] if m.startswith("graphperiod.")] == []
    result = _loaded_after("from graphperiod import MultiGraph")
    assert [m for m in result["loaded"] if m.startswith("graphperiod.")] == [
        "graphperiod.graphs"
    ]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_module(module):
    source = importlib.import_module(f"graphperiod.{module}")
    namespace = {}
    exec(f"from graphperiod import {', '.join(PUBLIC[module])}", namespace)
    for name in PUBLIC[module]:
        assert namespace[name] is getattr(source, name)
        assert getattr(graphperiod, name) is getattr(source, name)


def test_all_lists_the_public_names():
    expected = [name for names in PUBLIC.values() for name in names]
    assert sorted(graphperiod.__all__) == sorted(expected)
    assert set(expected) <= set(dir(graphperiod))
    namespace = {}
    exec("from graphperiod import *", namespace)
    assert set(expected) <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_submodules_still_import_from_the_package(module):
    namespace = {}
    exec(f"from graphperiod import {module}", namespace)
    assert namespace[module].__name__ == f"graphperiod.{module}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphperiod.no_such_name
    with pytest.raises(ImportError):
        exec("from graphperiod import no_such_name", {})
