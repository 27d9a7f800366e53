"""Acceptance suite: one test per exit criterion, each printing a PASS line
on success (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Runtime budgets are asserted where the criterion states one."""

from __future__ import annotations

import random
import time

import pytest

from graphperiod.cli import main as cli_main
from graphperiod.criteria import (
    check_chromatic_vanishing,
    check_negami_quotient_congruence,
    check_negami_shape,
    check_selfdual_vertex_count,
    check_tutte_coefficients,
    check_tutte_quotient_congruence,
    NotSelfDualError,
)
from graphperiod.families import connected_simple_graphs
from graphperiod.graphs import is_connected, named_graph
from graphperiod.invariants import (
    TUTTE_SHIFTED_VARS,
    chromatic_deletion_contraction,
    negami_polynomial,
    negami_subset_expansion,
    tutte_deletion_contraction,
)
from graphperiod.polynomials import reduce_mod_p
from graphperiod.symmetry import enumerate_automorphisms, find_free_period
from conftest import (
    chromatic_from_negami,
    count_spanning_trees,
    cycle_rotation,
    loop_parallel_variants,
    parse_polynomial,
    random_multigraph,
    tutte_from_negami,
)

PETERSEN_TUTTE_MOD5 = "s^4 + s^9 + 2*t + 2*s^5*t + s*t^2 + t^6"

FRUCHT_TUTTE_MOD3 = (
    "1 + s + s^2 + 2*s^3 + s^6 + 2*s^7 + s^11"
    " + s*t + s^2*t + 2*s^3*t + 2*s^4*t + s^5*t + 2*s^6*t + 2*s^7*t + s^8*t"
    " + 2*t^2 + s^2*t^2 + s^4*t^2 + 2*s^5*t^2 + 2*s^6*t^2 + s^7*t^2"
    " + t^3 + 2*s*t^3 + s^2*t^3 + s^4*t^3 + s^5*t^3"
    " + 2*t^4 + 2*s*t^4 + 2*s^2*t^4 + 2*s^3*t^4"
    " + s*t^5 + t^7"
)


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_petersen_fixture():
    start = time.time()
    shifted = tutte_deletion_contraction(named_graph("petersen"), cache={}).shifted
    reduced = reduce_mod_p(shifted, 5)
    expected = parse_polynomial(PETERSEN_TUTTE_MOD5, TUTTE_SHIFTED_VARS)
    assert reduced.polynomial == expected
    elapsed = time.time() - start
    assert elapsed < 10, f"petersen fixture took {elapsed:.1f}s"
    report("1 (petersen tutte mod 5, exact term table)")


def test_criterion_2_frucht_fixture(capsys):
    start = time.time()
    shifted = tutte_deletion_contraction(named_graph("frucht"), cache={}).shifted
    reduced = reduce_mod_p(shifted, 3)
    expected = parse_polynomial(FRUCHT_TUTTE_MOD3, TUTTE_SHIFTED_VARS)
    assert len(expected.terms) == 32
    assert reduced.polynomial == expected
    assert check_tutte_coefficients(named_graph("frucht"), 3).verdict == "fail"
    exit_code = cli_main(["check", "cor1.2", "--graph", "frucht", "--p", "3"])
    capsys.readouterr()
    assert exit_code == 1
    elapsed = time.time() - start
    assert elapsed < 60, f"frucht fixture took {elapsed:.1f}s"
    report("2 (frucht tutte mod 3, 32 terms, cor1.2 fail, exit 1)")


def test_criterion_3_petersen_surviving_coefficients():
    g = named_graph("petersen")
    assert check_tutte_coefficients(g, 5).passed
    reduced = reduce_mod_p(tutte_deletion_contraction(g).shifted, 5)
    assert set(reduced.terms) == {(4, 0), (9, 0), (0, 1), (5, 1), (1, 2), (0, 6)}
    report("3 (petersen cor1.2 surviving set)")


def test_criterion_4_route_equivalence():
    start = time.time()
    family = []
    for g in connected_simple_graphs(5):
        family.append(g)
    rng = random.Random(20240902)
    while len(family) < 31 + 20:
        family.append(random_multigraph(rng, max_vertices=5, max_edges=8))
    mismatches = 0
    for g in family:
        n = negami_subset_expansion(g)
        if tutte_deletion_contraction(g).shifted != tutte_from_negami(n):
            mismatches += 1
        if chromatic_deletion_contraction(g) != chromatic_from_negami(n):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.time() - start
    assert elapsed < 120, f"route equivalence took {elapsed:.1f}s"
    report(f"4 (route equivalence over {len(family)} graphs, 0 mismatches)")


def test_criterion_5_soundness_sweep():
    start = time.time()
    checked = 0
    counterexamples = []
    for g in connected_simple_graphs(7):
        for p in (2, 3, 5):
            h = find_free_period(g, p)
            if h is None:
                continue
            checked += 1
            reports = [
                check_negami_shape(g, p),
                check_tutte_coefficients(g, p),
                check_negami_quotient_congruence(g, h, p),
                check_tutte_quotient_congruence(g, h, p),
                check_chromatic_vanishing(g, h, p),
            ]
            for rep in reports:
                if not rep.passed:
                    counterexamples.append((g, p, rep.criterion))
    assert not counterexamples, counterexamples
    assert checked > 0
    elapsed = time.time() - start
    assert elapsed < 600, f"soundness sweep took {elapsed:.1f}s"
    report(
        f"5 (soundness sweep: {checked} periodic graph/prime pairs, "
        "0 counterexamples)"
    )


def test_criterion_6_quotient_congruence_fixtures():
    for p in (2, 3, 5, 7):
        g, h = cycle_rotation(p)
        # independent recomputation: subset expansion must agree with the
        # recursion route before the criteria consume either
        assert negami_subset_expansion(g).polynomial == negami_polynomial(g).polynomial
        assert check_negami_quotient_congruence(g, h, p).passed
        assert check_tutte_quotient_congruence(g, h, p).passed
        from graphperiod.symmetry import quotient_graph

        quotient = quotient_graph(g, h).quotient
        assert quotient.vertex_count == 1 and quotient.endpoints == ((0, 0),)
    pet = named_graph("petersen")
    assert (
        negami_subset_expansion(pet).polynomial == negami_polynomial(pet).polynomial
    )
    h = find_free_period(pet, 5)
    assert check_negami_quotient_congruence(pet, h, 5).passed
    assert check_tutte_quotient_congruence(pet, h, 5).passed
    from graphperiod.symmetry import quotient_graph

    quotient = quotient_graph(pet, h).quotient
    assert quotient.vertex_count == 2 and quotient.edge_count == 3
    report("6 (quotient congruence fixtures: C_p and petersen)")


def test_criterion_7_oracle_ground_truth():
    frucht = named_graph("frucht")
    assert len(enumerate_automorphisms(frucht)) == 1
    assert len(enumerate_automorphisms(named_graph("petersen"))) == 120
    assert find_free_period(frucht, 3) is None
    report("7 (oracle: frucht rigid, petersen 120, no free 3-period on frucht)")


def test_criterion_8_selfdual_fixture():
    k4 = named_graph("complete", 4)
    assert check_selfdual_vertex_count(k4, 3, True).passed
    assert check_selfdual_vertex_count(k4, 2, True).verdict == "fail"
    with pytest.raises(NotSelfDualError):
        check_selfdual_vertex_count(named_graph("petersen"), 5, True)
    report("8 (cor1.3: K4 pass at 3 / fail at 2, petersen rejected)")


def test_criterion_9_spanning_tree_cross_check():
    checked = 0
    for base in connected_simple_graphs(5):
        for g in loop_parallel_variants(base):
            if g.edge_count > 8 or not is_connected(g):
                continue
            shifted = tutte_deletion_contraction(g).shifted
            assert shifted.coefficient((0, 0)) == count_spanning_trees(g), g
            checked += 1
    k4 = named_graph("complete", 4)
    assert tutte_deletion_contraction(k4).shifted.coefficient((0, 0)) == 16
    assert count_spanning_trees(k4) == 16
    report(f"9 (spanning trees: T(0,0) vs the matrix-tree theorem on {checked} graphs, K4=16)")
