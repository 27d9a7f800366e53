from __future__ import annotations

import random

import pytest

from graphperiod import graphs
from graphperiod.families import random_multigraph
from graphperiod.graphs import is_connected, named_graph, parse_edge_list
from graphperiod.invariants import (
    negami_polynomial,
    negami_subset_expansion,
    tutte_deletion_contraction,
)
from graphperiod.criteria import (
    REPORT_SCHEMA,
    CriterionReport,
    DisconnectedGraphError,
    NotSelfDualError,
    SoundnessError,
    check_chromatic_vanishing,
    check_negami_quotient_congruence,
    check_negami_shape,
    check_selfdual_vertex_count,
    check_tutte_coefficients,
    check_tutte_quotient_congruence,
    excluded_primes,
    exclusion_report,
    render_report,
)
from graphperiod.symmetry import find_free_period
from conftest import cycle_rotation, tutte_from_negami

PETERSEN = named_graph("petersen")
FRUCHT = named_graph("frucht")
DISCONNECTED = parse_edge_list("n 4\ne 0 1\ne 2 3")


# -- thm1.1: y-exponent shape of N mod p -------------------------------------


def test_negami_shape_c5():
    report = check_negami_shape(named_graph("cycle", 5), 5)
    assert report.passed and not report.violations


def test_negami_shape_petersen():
    assert check_negami_shape(PETERSEN, 5).passed


def test_negami_shape_k2_fails():
    report = check_negami_shape(named_graph("complete", 2), 2)
    assert report.verdict == "fail"
    assert [(v.monomial, v.coefficient) for v in report.violations] == [("u*y", 1)]


def test_negami_shape_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        check_negami_shape(DISCONNECTED, 2)


# -- cor1.2: shifted Tutte coefficient pattern ----------------------------------


def test_tutte_coefficients_petersen_surviving_set():
    report = check_tutte_coefficients(PETERSEN, 5, graph_label="petersen")
    assert report.passed
    reduced = tutte_deletion_contraction(PETERSEN).shifted
    from graphperiod.polynomials import reduce_mod_p

    surviving = set(reduce_mod_p(reduced, 5).terms)
    assert surviving == {(4, 0), (9, 0), (0, 1), (5, 1), (1, 2), (0, 6)}


def test_tutte_coefficients_frucht_fails():
    report = check_tutte_coefficients(FRUCHT, 3)
    assert report.verdict == "fail"
    # the constant term 1 is a violation: j - i = 0 but 1 - r = -11 == 1 (mod 3)
    assert ("1", 1) in [(v.monomial, v.coefficient) for v in report.violations]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tutte_coefficients_cycles_pass(p):
    report = check_tutte_coefficients(named_graph("cycle", p), p)
    assert report.passed
    # T(C_p) mod p is t + s^(p-1), both terms satisfying j - i == 1 - p == 1
    from graphperiod.polynomials import reduce_mod_p

    reduced = reduce_mod_p(tutte_deletion_contraction(named_graph("cycle", p)).shifted, p)
    assert set(reduced.terms) == {(0, 1), (p - 1, 0)}


def test_tutte_coefficients_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        check_tutte_coefficients(DISCONNECTED, 2)


def test_checks_agree_across_polynomial_routes(route_family):
    # feeding either route's polynomial must produce identical reports
    from graphperiod.graphs import is_connected

    for g in route_family:
        if not is_connected(g) or g.edge_count == 0:
            continue
        for p in (2, 3):
            via_expansion = check_negami_shape(g, p, negami=negami_subset_expansion(g))
            via_recursion = check_negami_shape(g, p, negami=negami_polynomial(g))
            assert via_expansion == via_recursion
            t_rec = check_tutte_coefficients(
                g, p, tutte=tutte_deletion_contraction(g).shifted
            )
            t_exp = check_tutte_coefficients(
                g, p, tutte=tutte_from_negami(negami_subset_expansion(g))
            )
            assert t_rec == t_exp


def test_shape_pass_implies_coefficient_pass():
    # on a connected graph N's y-exponent is r - 1 - i + j for the term
    # a_ij s^i t^j of T, so thm1.1 and cor1.2 give the same verdict with the
    # same violating coefficients; checked over the same <= 7 vertex family
    # the soundness sweep uses
    from graphperiod.families import connected_simple_graphs

    for g in connected_simple_graphs(7):
        negami = negami_polynomial(g)
        tutte = tutte_deletion_contraction(g).shifted
        for p in (2, 3, 5, 7):
            shape = check_negami_shape(g, p, negami=negami)
            coefficients = check_tutte_coefficients(g, p, tutte=tutte)
            assert shape.verdict == coefficients.verdict, (g, p)
            assert sorted(v.coefficient for v in shape.violations) == sorted(
                v.coefficient for v in coefficients.violations
            ), (g, p)


# -- cor1.3: self-dual vertex count ----------------------------------------------


def test_selfdual_k4():
    k4 = named_graph("complete", 4)
    assert check_selfdual_vertex_count(k4, 3, True).passed
    assert check_selfdual_vertex_count(k4, 2, True).verdict == "fail"


def test_selfdual_rejects_petersen():
    with pytest.raises(NotSelfDualError):
        check_selfdual_vertex_count(PETERSEN, 5, True)


def test_selfdual_requires_assertion():
    with pytest.raises(ValueError):
        check_selfdual_vertex_count(named_graph("complete", 4), 3, False)


# -- quotient congruences -----------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cycle_quotient_congruences(p):
    g, h = cycle_rotation(p)
    assert check_negami_quotient_congruence(g, h, p).passed
    assert check_tutte_quotient_congruence(g, h, p).passed


def test_petersen_quotient_congruences():
    h = find_free_period(PETERSEN, 5)
    assert check_negami_quotient_congruence(PETERSEN, h, 5).passed
    assert check_tutte_quotient_congruence(PETERSEN, h, 5).passed


def test_c4_under_antipodal_rotation():
    g = named_graph("cycle", 4)
    h = find_free_period(g, 2)
    assert h is not None
    assert check_negami_quotient_congruence(g, h, 2).passed
    assert check_tutte_quotient_congruence(g, h, 2).passed


def test_quotient_congruence_rejects_disconnected():
    h = find_free_period(DISCONNECTED, 2)
    assert h is not None  # the swap is a legitimate free period
    with pytest.raises(DisconnectedGraphError):
        check_negami_quotient_congruence(DISCONNECTED, h, 2)


def test_quotient_congruence_rejects_bad_witness():
    from graphperiod.symmetry import NotAFreePeriodError, automorphism_from_vertex_perm

    g = named_graph("complete", 2)
    swap = automorphism_from_vertex_perm(g, (1, 0))
    with pytest.raises(NotAFreePeriodError):
        check_negami_quotient_congruence(g, swap, 2)


# -- chromatic remark ------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_chromatic_vanishing_on_cycles(p):
    g, h = cycle_rotation(p)
    report = check_chromatic_vanishing(g, h, p)
    assert report.passed
    assert any("loop" in note for note in report.notes)


def test_chromatic_vanishing_petersen():
    h = find_free_period(PETERSEN, 5)
    assert check_chromatic_vanishing(PETERSEN, h, 5).passed


def test_chromatic_comparison_without_loop_quotient():
    star = parse_edge_list("n 4\ne 0 1\ne 0 2\ne 0 3")
    h = find_free_period(star, 3)
    report = check_chromatic_vanishing(star, h, 3)
    assert report.passed
    assert any("loopless" in note for note in report.notes)


# -- exclusion batches ----------------------------------------------------------------------


def test_exclusion_frucht():
    reports = exclusion_report(FRUCHT, [2, 3, 5, 7], graph_label="frucht")
    assert 3 in excluded_primes(reports)


def test_exclusion_petersen_not_excluded():
    reports = exclusion_report(PETERSEN, [5], graph_label="petersen")
    assert excluded_primes(reports) == []


def test_exclusion_c6_neither_prime_excluded():
    reports = exclusion_report(named_graph("cycle", 6), [2, 3], use_oracle=True)
    assert excluded_primes(reports) == []
    assert any("free period of order 2 found" in n for r in reports for n in r.notes)


def test_exclusion_ordering_deterministic():
    reports = exclusion_report(FRUCHT, [5, 2, 3], graph_label="frucht")
    keys = [(r.graph, r.p, r.criterion) for r in reports]
    assert keys == sorted(keys)
    assert [r.p for r in reports] == [2, 2, 3, 3, 5, 5]


def test_exclusion_report_counts_components_once(monkeypatch):
    # the union-find runs once per graph, not once per check and prime
    calls = []
    original = graphs._component_labels

    def counting(vertex_count, pairs):
        calls.append(pairs)
        return original(vertex_count, pairs)

    monkeypatch.setattr(graphs, "_component_labels", counting)
    g = named_graph("petersen")
    exclusion_report(g, [2, 3, 5, 7], use_oracle=True)
    assert sum(pairs is g.endpoints for pairs in calls) == 1
    check_tutte_coefficients(g, 3)
    assert sum(pairs is g.endpoints for pairs in calls) == 1
    with pytest.raises(DisconnectedGraphError):
        exclusion_report(DISCONNECTED, [2, 3])


def test_exclusion_oracle_crosscheck_runs_clean():
    # a periodic graph is never excluded, so the cross-check must not raise;
    # petersen carries free 3- and 5-periods but every involution fixes an edge
    reports = exclusion_report(PETERSEN, [2, 3, 5], use_oracle=True)
    assert excluded_primes(reports) == [2]


def _connected_random_multigraphs(count):
    rng = random.Random(20261019)
    graphs = []
    while len(graphs) < count:
        g = random_multigraph(rng, max_vertices=7, max_edges=12)
        if is_connected(g):
            graphs.append(g)
    return graphs


def test_exclusion_report_matches_standalone_checks(small_connected_family):
    # one search root per graph serves every prime, and the batch's reports
    # read as the standalone checks' plus the oracle's note
    graphs = list(small_connected_family) + _connected_random_multigraphs(200)
    primes = (2, 3, 5, 7)
    checks = {"cor1.2": check_tutte_coefficients, "thm1.1": check_negami_shape}
    for g in graphs:
        reports = exclusion_report(g, primes, use_oracle=True)
        assert [(r.p, r.criterion) for r in reports] == [
            (p, c) for p in primes for c in sorted(checks)
        ]
        for report in reports:
            alone = checks[report.criterion](g, report.p)
            assert report.verdict == alone.verdict, (g, report.p)
            pairs = [(v.monomial, v.coefficient) for v in report.violations]
            assert pairs == [(v.monomial, v.coefficient) for v in alone.violations]
            assert report.violations == report.violations
            assert report.notes[:-1] == alone.notes
            found = find_free_period(g, report.p) is not None
            assert report.notes[-1] == f"oracle: free period of order {report.p} " + (
                "found" if found else "not found"
            )


# -- report plumbing ---------------------------------------------------------------------------


def test_report_verdict_matches_violations(small_connected_family):
    for g in small_connected_family[:12]:
        for p in (2, 3):
            report = check_negami_shape(g, p)
            assert (report.verdict == "fail") == bool(report.violations)


def test_report_json_schema():
    jsonschema = pytest.importorskip("jsonschema")
    for report in exclusion_report(FRUCHT, [2, 3], graph_label="frucht"):
        jsonschema.validate(report.to_dict(), REPORT_SCHEMA)
    failing = check_negami_shape(named_graph("complete", 2), 2)
    jsonschema.validate(failing.to_dict(), REPORT_SCHEMA)


def test_render_report_mentions_verdict_and_violations():
    report = check_tutte_coefficients(FRUCHT, 3, graph_label="frucht")
    text = render_report(report)
    assert "verdict: fail" in text
    assert "violations:" in text
