from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphperiod import invariants
from graphperiod.graphs import (
    MultiGraph,
    is_connected,
    named_graph,
    parse_edge_list,
)
from graphperiod.invariants import (
    CHROMATIC_VARS,
    NEGAMI_VARS,
    TUTTE_CLASSIC_VARS,
    TUTTE_SHIFTED_VARS,
    SubsetCapExceededError,
    chromatic_deletion_contraction,
    negami_polynomial,
    negami_subset_expansion,
    negami_from_tutte,
    tutte_deletion_contraction,
)
from graphperiod.polynomials import Polynomial, substitute
from conftest import (
    chromatic_by_own_recursion,
    chromatic_from_negami,
    contract_edge_ids,
    count_proper_colorings,
    count_spanning_trees,
    delete_edge_ids,
    dodecahedron,
    ladder,
    loop_parallel_variants,
    parse_polynomial,
    random_multigraph,
    shuffled_copy,
    tutte_from_negami,
)


def classic(text):
    return parse_polynomial(text, TUTTE_CLASSIC_VARS)


LOOP = parse_edge_list("n 1\ne 0 0")
K2 = named_graph("complete", 2)


# -- tutte by recursion ---------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 4])
def test_tutte_edgeless(n):
    pair = tutte_deletion_contraction(MultiGraph(n))
    assert pair.classic == 1 and pair.shifted == 1


def test_tutte_bridge():
    pair = tutte_deletion_contraction(K2)
    assert pair.classic == classic("x")
    assert pair.shifted == parse_polynomial("s + 1", TUTTE_SHIFTED_VARS)


def test_tutte_loop():
    pair = tutte_deletion_contraction(LOOP)
    assert pair.classic == classic("y")
    assert pair.shifted == parse_polynomial("t + 1", TUTTE_SHIFTED_VARS)


def test_tutte_triangle():
    assert tutte_deletion_contraction(named_graph("cycle", 3)).classic == classic(
        "x^2 + x + y"
    )


def test_shifted_is_substituted_classic():
    # the random multigraphs have loops, bridges, parallel classes, several
    # components or no edges; q <= 14 keeps the subset expansion small
    s1 = parse_polynomial("s + 1", TUTTE_SHIFTED_VARS)
    t1 = parse_polynomial("t + 1", TUTTE_SHIFTED_VARS)
    rng = random.Random(20261019)
    graphs = [named_graph("cycle", 5), named_graph("complete", 4), LOOP]
    graphs += [random_multigraph(rng, max_vertices=8, max_edges=14) for _ in range(300)]
    for g in graphs:
        pair = tutte_deletion_contraction(g, cache={})
        assert pair.shifted == substitute(
            pair.classic, {"x": s1, "y": t1}, TUTTE_SHIFTED_VARS
        ), g
        assert chromatic_deletion_contraction(g, cache={}) == chromatic_from_negami(
            negami_subset_expansion(g)
        ), g


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([64, 128]).flatmap(
        lambda width: st.tuples(
            st.just(width),
            # at most 8 terms of degree <= 12 keep every shifted
            # coefficient below 2^width
            st.dictionaries(
                st.tuples(st.integers(0, 6), st.integers(0, 6)),
                st.integers(1, 2 ** (width - 24)),
                min_size=1,
                max_size=8,
            ),
        )
    )
)
def test_taylor_shift_matches_substitute(case):
    width, terms = case
    p = Polynomial(TUTTE_CLASSIC_VARS, terms)
    expected = substitute(p, {"x": classic("x + 1"), "y": classic("y + 1")})
    assert Polynomial(TUTTE_CLASSIC_VARS, invariants._taylor_shift(terms, width)) == expected


def test_shift_of_a_block_with_bridges_and_loops():
    # petersen with a 70-edge pendant path and 3 loops has q = 88, so the
    # shift packs 128-bit slots; bridges and loops enter as binomial rows
    petersen = named_graph("petersen")
    path = [0] + list(range(10, 80))
    loops = ((79, 79), (5, 5), (40, 40))
    g = MultiGraph(80, petersen.endpoints + tuple(zip(path, path[1:])) + loops)
    assert g.edge_count == 88
    pair = tutte_deletion_contraction(g, cache={})
    assert pair.classic == tutte_deletion_contraction(petersen, cache={}).classic * (
        Polynomial.monomial(TUTTE_CLASSIC_VARS, (70, 3))
    )
    s1 = parse_polynomial("s + 1", TUTTE_SHIFTED_VARS)
    t1 = parse_polynomial("t + 1", TUTTE_SHIFTED_VARS)
    assert pair.shifted == substitute(pair.classic, {"x": s1, "y": t1}, TUTTE_SHIFTED_VARS)
    assert chromatic_deletion_contraction(g, cache={}) == 0


def test_edge_order_independence(monkeypatch):
    rng = random.Random(5)
    graphs = [
        named_graph("petersen"),
        named_graph("complete", 5),
        parse_edge_list("n 4\ne 0 1\ne 0 1\ne 1 2\ne 2 3\ne 3 0\ne 2 2"),
    ]
    reference = [tutte_deletion_contraction(g, cache={}).classic for g in graphs]
    # a chooser returns a neighbour of vertex 0 in a block's adjacency map
    choosers = (
        lambda adj: min(adj[0]),
        lambda adj: max(adj[0]),
        lambda adj: rng.choice(sorted(adj[0])),
    )
    for chooser in choosers:
        monkeypatch.setattr(invariants, "_default_chooser", chooser)
        for g, expected in zip(graphs, reference):
            assert tutte_deletion_contraction(g, cache={}).classic == expected


# -- negami expansion ------------------------------------------------------------


def negami(text):
    return parse_polynomial(text, NEGAMI_VARS)


def test_negami_edgeless():
    assert negami_subset_expansion(MultiGraph(3)).polynomial == negami("u^3")


def test_negami_k2():
    assert negami_subset_expansion(K2).polynomial == negami("u^2*x + u*y")


def test_negami_loop():
    assert negami_subset_expansion(LOOP).polynomial == negami("u*x + u*y")


def test_negami_records_graph_counts():
    n = negami_subset_expansion(named_graph("cycle", 4))
    assert (n.vertex_count, n.edge_count, n.components) == (4, 4, 1)


def test_negami_term_shape(route_family):
    for g in route_family:
        n = negami_subset_expansion(g)
        for (eu, ex, ey) in n.polynomial.terms:
            assert ex + ey == g.edge_count
            assert n.components <= eu <= g.vertex_count


def test_negami_cap():
    g = named_graph("complete", 8)  # 28 edges
    with pytest.raises(SubsetCapExceededError) as err:
        negami_subset_expansion(g)
    assert "deletion-contraction" in str(err.value)
    # the recursion route handles it
    n = negami_polynomial(g)
    assert n.edge_count == 28


def test_route_equivalence_negami(route_family):
    # the recursion's N is its T with exponents relabelled one to one
    # (negami_from_tutte), so this compares T with the expansion too;
    # plus the empty graph, an edgeless graph, and a disconnected graph with
    # a loop and a parallel pair
    extra = [MultiGraph(0), MultiGraph(3), MultiGraph(5, ((0, 1), (0, 1), (2, 2), (3, 4)))]
    for g in route_family + extra:
        assert (
            negami_polynomial(g).polynomial
            == negami_subset_expansion(g).polynomial
        ), f"negami routes disagree on {g!r}"


def test_negami_polynomial_matches_expansion_on_petersen():
    # 15 edges, beyond the 8-edge graphs of route_family
    g = named_graph("petersen")
    assert negami_polynomial(g).polynomial == negami_subset_expansion(g).polynomial


# -- chromatic ------------------------------------------------------------------------


def lam(text):
    return parse_polynomial(text, CHROMATIC_VARS)


@pytest.mark.parametrize("tutte_first", [True, False], ids=["tutte-first", "chromatic-first"])
@pytest.mark.parametrize(
    "g",
    [
        named_graph("petersen"),
        MultiGraph(4, ((0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 3))),
    ],
    ids=["petersen", "k4-loop-parallel"],
)
def test_one_cache_serves_both_recursions(g, tutte_first):
    expected = (
        tutte_deletion_contraction(g, cache={}).classic,
        chromatic_deletion_contraction(g, cache={}),
    )
    shared = {}
    if tutte_first:
        tutte = tutte_deletion_contraction(g, cache=shared).classic
        chromatic = chromatic_deletion_contraction(g, cache=shared)
    else:
        chromatic = chromatic_deletion_contraction(g, cache=shared)
        tutte = tutte_deletion_contraction(g, cache=shared).classic
    assert (tutte, chromatic) == expected


def test_memo_is_keyed_by_layout():
    # a 60-edge cycle at one vertex: q = 75 takes petersen's blocks to a
    # wider packing than petersen alone uses
    petersen = named_graph("petersen")
    glued = one_point_join(petersen, named_graph("cycle", 60))
    assert glued.edge_count == 75
    graphs = [glued, petersen]
    expected = [
        (tutte_deletion_contraction(g, cache={}), chromatic_deletion_contraction(g, cache={}))
        for g in graphs
    ]
    for order in ((0, 1), (1, 0)):
        shared = {}
        got = [None, None]
        for i in order:
            got[i] = (
                tutte_deletion_contraction(graphs[i], cache=shared),
                chromatic_deletion_contraction(graphs[i], cache=shared),
            )
        assert got == expected


def test_memo_entries_belong_to_blocks():
    # each memoized block is packed under its own layout, so petersen's
    # entries serve petersen inside a larger graph and nothing is added
    petersen = named_graph("petersen")
    glued = one_point_join(petersen, named_graph("cycle", 60))
    for compute in (tutte_deletion_contraction, chromatic_deletion_contraction):
        shared = {}
        compute(petersen, cache=shared)
        entries = dict(shared)
        compute(glued, cache=shared)
        assert shared == entries


def _counting_chooser(monkeypatch, fail_at=None):
    """Count the recursion's edge choices, and raise on the ``fail_at``-th."""
    calls = []
    choose = invariants._default_chooser

    def chooser(adj):
        calls.append(adj)
        if len(calls) == fail_at:
            raise RuntimeError("interrupted")
        return choose(adj)

    monkeypatch.setattr(invariants, "_default_chooser", chooser)
    return calls


def test_relabelled_copies_share_the_first_ones_value(monkeypatch):
    # the first petersen parks its block under its degree sequence; each
    # later copy keys both canonically and finds the value without a split
    rng = random.Random(41)
    copies = [shuffled_copy(named_graph("petersen"), rng) for _ in range(4)]
    expected = tutte_deletion_contraction(copies[0], cache={})
    calls = _counting_chooser(monkeypatch)
    shared = {}
    chosen = []
    for g in copies:
        calls.clear()
        assert tutte_deletion_contraction(g, cache=shared) == expected
        chosen.append(len(calls))
    assert chosen[0] > 0 and chosen[1:] == [0, 0, 0]


@pytest.mark.parametrize("fail_at", [1, 2, 3, 5, 8])
def test_an_interrupted_recursion_leaves_the_memo_sound(monkeypatch, fail_at):
    # a split cut short leaves only finished blocks in the memo, so a later
    # block of a parked shape finds every parked value it keys
    rng = random.Random(fail_at)
    petersen = named_graph("petersen")
    graphs = [
        petersen,
        shuffled_copy(petersen, rng),
        one_point_join(petersen, named_graph("complete", 5)),
        shuffled_copy(named_graph("complete", 5), rng),
    ]
    computes = (tutte_deletion_contraction, chromatic_deletion_contraction)
    expected = [tuple(compute(g, cache={}) for compute in computes) for g in graphs]
    shared = {}
    for compute in computes:
        # petersen takes 18 choices on the Tutte line and 9 on y = 0
        _counting_chooser(monkeypatch, fail_at)
        with pytest.raises(RuntimeError, match="interrupted"):
            compute(shuffled_copy(petersen, rng), cache=shared)
        monkeypatch.undo()
    for g, pair in zip(graphs, expected):
        assert tuple(compute(g, cache=shared) for compute in computes) == pair


@pytest.mark.parametrize("tutte_first", [True, False], ids=["tutte-first", "chromatic-first"])
def test_one_cache_equals_fresh_caches_on_random_multigraphs(tutte_first):
    rng = random.Random(20261019)
    graphs = [random_multigraph(rng, max_vertices=9, max_edges=18) for _ in range(120)]
    expected = [
        (tutte_deletion_contraction(g, cache={}), chromatic_deletion_contraction(g, cache={}))
        for g in graphs
    ]
    shared = {}
    for g, pair in zip(graphs, expected):
        if tutte_first:
            tutte = tutte_deletion_contraction(g, cache=shared)
            chromatic = chromatic_deletion_contraction(g, cache=shared)
        else:
            chromatic = chromatic_deletion_contraction(g, cache=shared)
            tutte = tutte_deletion_contraction(g, cache=shared)
        assert (tutte, chromatic) == pair, g


def test_one_cache_equals_fresh_caches_across_word_sizes():
    # K4 with one class of k edges is memoized under keys of 1-byte words
    # up to k = 255 and of 2-byte words from k = 256 on.  The last graph
    # has the layout of the one before (q = 305) and classes of 44 and 257
    # edges, the 300 and 1 of that one modulo 256
    k4 = named_graph("complete", 4)
    graphs = [MultiGraph(4, k4.endpoints + ((0, 1),) * (k - 1)) for k in (254, 255, 256, 300)]
    graphs.append(MultiGraph(4, k4.endpoints + ((0, 1),) * 43 + ((2, 3),) * 256))
    expected = [
        (tutte_deletion_contraction(g, cache={}), chromatic_deletion_contraction(g, cache={}))
        for g in graphs
    ]
    for order in (range(5), range(4, -1, -1)):
        shared = {}
        for i in order:
            got = (
                tutte_deletion_contraction(graphs[i], cache=shared),
                chromatic_deletion_contraction(graphs[i], cache=shared),
            )
            assert got == expected[i], graphs[i].edge_count


def test_labelled_key_keeps_multiplicities_and_the_line():
    # two diamonds, one with the class 0-1 doubled: their maps differ in one
    # multiplicity, and each has a series path through vertex 3, so both
    # are looked up by their labelled maps; on y = 0 the two maps agree
    diamond = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
    doubled = MultiGraph(4, ((0, 1),) + diamond.endpoints)
    calls = [
        (compute, g)
        for g in (diamond, doubled)
        for compute in (tutte_deletion_contraction, chromatic_deletion_contraction)
    ]
    expected = [compute(g, cache={}) for compute, g in calls]
    assert expected[0] != expected[2]
    for order in (calls, calls[::-1]):
        shared = {}
        got = {(compute, g): compute(g, cache=shared) for compute, g in order}
        assert [got[call] for call in calls] == expected


def test_trusted_results_pass_the_public_checks():
    rng = random.Random(20261018)
    for _ in range(300):
        g = random_multigraph(rng, max_vertices=8, max_edges=14)
        pair = tutte_deletion_contraction(g, cache={})
        results = (
            pair.classic,
            pair.shifted,
            chromatic_deletion_contraction(g, cache={}),
            negami_from_tutte(g, pair.shifted).polynomial,
        )
        for h in results:
            checked = Polynomial(h.variables, h.terms)
            assert h.variables == checked.variables
            assert list(h.terms.items()) == list(checked.terms.items()), g


def test_chromatic_edgeless():
    assert chromatic_deletion_contraction(MultiGraph(3)) == lam("λ^3")
    assert chromatic_deletion_contraction(MultiGraph(0)) == 1


def test_chromatic_k2():
    assert chromatic_deletion_contraction(K2) == lam("λ^2 - λ")


def test_chromatic_triangle():
    assert chromatic_deletion_contraction(named_graph("cycle", 3)) == lam(
        "λ^3 - 3*λ^2 + 2*λ"
    )


def test_chromatic_loop_vanishes():
    assert chromatic_deletion_contraction(LOOP) == 0
    assert chromatic_from_negami(negami_subset_expansion(LOOP)) == 0


def test_chromatic_parallel_edges_collapse():
    simple = named_graph("cycle", 3)
    doubled = MultiGraph(3, simple.endpoints + ((0, 1),))
    assert chromatic_deletion_contraction(doubled) == chromatic_deletion_contraction(
        simple
    )


def test_chromatic_counts_colorings(small_connected_family):
    # independent oracle: count assignments directly for small color counts
    for g in small_connected_family:
        poly = chromatic_deletion_contraction(g)
        for colors in range(4):
            assert substitute(poly, {"λ": colors}) == count_proper_colorings(g, colors)


def test_route_equivalence_chromatic(route_family):
    for g in route_family:
        assert chromatic_deletion_contraction(g) == chromatic_from_negami(
            negami_subset_expansion(g)
        ), f"chromatic routes disagree on {g!r}"


# -- global structure ---------------------------------------------------------------------


def test_multiplicative_over_disjoint_union(route_family):
    rng = random.Random(11)
    pool = [g for g in route_family if g.vertex_count <= 4][:12]
    for _ in range(10):
        g1, g2 = rng.sample(pool, 2)
        shifted = tuple(
            (u + g1.vertex_count, v + g1.vertex_count) for u, v in g2.endpoints
        )
        union = MultiGraph(g1.vertex_count + g2.vertex_count, g1.endpoints + shifted)
        tau_union = tutte_deletion_contraction(union).classic
        tau_parts = (
            tutte_deletion_contraction(g1).classic
            * tutte_deletion_contraction(g2).classic
        )
        assert tau_union == tau_parts
        n_union = negami_subset_expansion(union).polynomial
        n_parts = (
            negami_subset_expansion(g1).polynomial
            * negami_subset_expansion(g2).polynomial
        )
        assert n_union == n_parts


def test_spanning_tree_count_via_shifted_origin(route_family):
    for g in route_family:
        if not is_connected(g):
            continue
        shifted = tutte_deletion_contraction(g).shifted
        assert shifted.coefficient((0, 0)) == count_spanning_trees(g)


def test_k4_spanning_trees():
    shifted = tutte_deletion_contraction(named_graph("complete", 4)).shifted
    assert shifted.coefficient((0, 0)) == 16


def test_chromatic_matches_own_recursion(small_connected_family):
    # the retired chromatic recursion as an oracle for the y = 0 route
    for g in small_connected_family:
        for variant in loop_parallel_variants(g):
            assert chromatic_deletion_contraction(
                variant, cache={}
            ) == chromatic_by_own_recursion(variant), f"disagree on {variant!r}"


# -- closed forms at corpus size --------------------------------------------------------------


def x_series(k):
    """1 + x + ... + x^(k-1) over the classic variables."""
    return Polynomial(TUTTE_CLASSIC_VARS, {(i, 0): 1 for i in range(k)})


def test_tutte_long_cycle():
    expected = x_series(100) - 1 + classic("y")
    assert tutte_deletion_contraction(named_graph("cycle", 100), cache={}).classic == expected


def test_chromatic_long_cycle_and_path():
    lam_minus_1 = lam("λ - 1")
    assert chromatic_deletion_contraction(named_graph("cycle", 100), cache={}) == (
        lam_minus_1**100 + lam_minus_1
    )
    assert chromatic_deletion_contraction(named_graph("path", 100), cache={}) == (
        lam("λ") * lam_minus_1**99
    )


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_tutte_theta(k):
    expected = Polynomial(TUTTE_CLASSIC_VARS, {(0, j): 1 for j in range(1, k)}) + classic("x")
    assert tutte_deletion_contraction(named_graph("theta", k), cache={}).classic == expected


def one_point_join(g1, g2):
    """Identify vertex 0 of g2 with vertex 0 of g1."""
    shift = g1.vertex_count - 1

    def place(v):
        return 0 if v == 0 else v + shift

    joined = tuple((place(u), place(v)) for u, v in g2.endpoints)
    return MultiGraph(g1.vertex_count + g2.vertex_count - 1, g1.endpoints + joined)


def test_one_point_join_multiplies():
    pieces = [
        named_graph("petersen"),
        named_graph("complete", 5),
        named_graph("cycle", 30),
        parse_edge_list("n 3\ne 0 1\ne 0 1\ne 1 2\ne 2 0\ne 2 2"),
    ]
    lam_var = lam("λ")
    for g1 in pieces:
        for g2 in pieces:
            joined = one_point_join(g1, g2)
            assert tutte_deletion_contraction(joined, cache={}).classic == (
                tutte_deletion_contraction(g1, cache={}).classic
                * tutte_deletion_contraction(g2, cache={}).classic
            )
            assert chromatic_deletion_contraction(joined, cache={}) * lam_var == (
                chromatic_deletion_contraction(g1, cache={})
                * chromatic_deletion_contraction(g2, cache={})
            )


def test_long_path_and_cycle():
    assert tutte_deletion_contraction(named_graph("path", 2000), cache={}).classic == (
        Polynomial.monomial(TUTTE_CLASSIC_VARS, (1999, 0))
    )
    assert tutte_deletion_contraction(named_graph("cycle", 1000), cache={}).classic == (
        x_series(1000) - 1 + classic("y")
    )


def test_shifts_of_a_long_path_and_cycle():
    shifted = tutte_deletion_contraction(named_graph("path", 2000), cache={}).shifted
    assert shifted == Polynomial(
        TUTTE_SHIFTED_VARS, {(i, 0): math.comb(1999, i) for i in range(2000)}
    )
    tracemalloc.start()
    try:
        chromatic = chromatic_deletion_contraction(named_graph("cycle", 1000), cache={})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # (λ - 1)^1000 + (λ - 1)
    expected = {(i,): (-1) ** (1000 - i) * math.comb(1000, i) for i in range(1001)}
    expected[(1,)] += 1
    expected[(0,)] -= 1
    assert chromatic == Polynomial(CHROMATIC_VARS, expected)
    assert peak < 5_000_000


def test_chromatic_of_a_long_fan():
    # a hub joined to every vertex of a 299-vertex path
    spokes = tuple((0, v) for v in range(1, 300))
    rim = tuple((v, v + 1) for v in range(1, 299))
    fan = MultiGraph(300, spokes + rim)
    assert chromatic_deletion_contraction(fan, cache={}) == (
        lam("λ") * lam("λ - 1") * lam("λ - 2") ** 298
    )


def test_long_subdivided_edge():
    # petersen with edge 0 drawn as a 60-edge path is one block with q = 74
    # and nullity 6: its packing has wider slots and a smaller D than the
    # blocks of petersen's minors, which are repacked into it
    petersen = named_graph("petersen")
    u, v = petersen.endpoints[0]
    path = [u] + list(range(10, 69)) + [v]
    g = MultiGraph(69, petersen.endpoints[1:] + tuple(zip(path, path[1:])))
    assert g.edge_count == 74
    rest = tutte_deletion_contraction(delete_edge_ids(petersen, [0]), cache={}).classic
    joined = tutte_deletion_contraction(contract_edge_ids(petersen, [0]), cache={}).classic
    assert tutte_deletion_contraction(g, cache={}).classic == x_series(60) * rest + joined


def test_chain_of_digons():
    # 300 blocks: (x + y)^300 has 301 terms in a 301 x 301 box
    chain = MultiGraph(301, tuple((v, v + 1) for v in range(300) for _ in range(2)))
    assert tutte_deletion_contraction(chain, cache={}).classic == classic("x + y") ** 300


def test_necklace_of_digons():
    # one block, and deleting a digon leaves a chain of digons:
    # T(N_k) = (x + y)^(k-1) + (1 + y) T(N_(k-1)), T(N_1) = y^2
    necklace = MultiGraph(100, tuple((v, (v + 1) % 100) for v in range(100) for _ in range(2)))
    expected, power = classic("y^2"), classic("1")
    for _ in range(99):
        power = power * classic("x + y")
        expected = power + classic("1 + y") * expected
    assert tutte_deletion_contraction(necklace, cache={}).classic == expected


def test_dodecahedron_evaluations():
    g = dodecahedron()
    assert g.edge_count == 30
    degrees = Counter(v for pair in g.endpoints for v in pair)
    assert degrees == dict.fromkeys(range(20), 3)
    tau = tutte_deletion_contraction(g, cache={}).classic
    assert substitute(tau, {"x": 1, "y": 1}) == 5_184_000  # spanning trees
    assert substitute(tau, {"x": 2, "y": 2}) == 2**30  # edge subsets


@pytest.mark.parametrize("k", [3, 4, 5])
def test_ladder_matches_subset_expansion(k):
    g = ladder(k)
    expected = tutte_from_negami(negami_subset_expansion(g))
    assert tutte_deletion_contraction(g, cache={}).shifted == expected


def test_ladder_spanning_trees_oracle():
    # OEIS A001353: t(L_k) = 4 t(L_(k-1)) - t(L_(k-2))
    assert [count_spanning_trees(ladder(k)) for k in range(1, 6)] == [1, 4, 15, 56, 209]


@pytest.mark.parametrize("k", [30, 60])
def test_long_ladder(k):
    # every rung is a 2-vertex cut; the series-path minors recur across
    # branches, so each is computed once under its labelled map
    g = ladder(k)
    shifted = tutte_deletion_contraction(g, cache={}).shifted
    assert shifted.coefficient((0, 0)) == count_spanning_trees(g)
    assert sum(shifted.terms.values()) == 2**g.edge_count
