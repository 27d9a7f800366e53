from __future__ import annotations

import json
import random
from itertools import permutations

import pytest

from graphperiod import criteria, symmetry
from graphperiod.graphs import MultiGraph, canonical_key, named_graph, parse_edge_list
from graphperiod.families import connected_simple_graphs
from graphperiod.symmetry import (
    Automorphism,
    NotAFreePeriodError,
    OracleLimitError,
    automorphism_from_vertex_perm,
    enumerate_automorphisms,
    find_free_period,
    orbits,
    quotient_graph,
    validate_automorphism,
)
from conftest import (
    cycle_rotation,
    free_edge_perm_by_class_orbits,
    free_period_by_enumeration,
    loop_parallel_variants,
    random_multigraph,
    shuffled_copy,
)

PRIMES = (2, 3, 5, 7)


# -- enumeration ------------------------------------------------------------


def test_frucht_is_rigid():
    autos = enumerate_automorphisms(named_graph("frucht"))
    assert len(autos) == 1 and autos[0].order() == 1


def test_petersen_automorphism_count():
    assert len(enumerate_automorphisms(named_graph("petersen"))) == 120


def test_c4_dihedral():
    assert len(enumerate_automorphisms(named_graph("cycle", 4))) == 8


def test_theta_vertex_automorphisms():
    # vertex permutations only: identity and the swap
    assert len(enumerate_automorphisms(named_graph("theta", 3))) == 2


def test_enumeration_respects_limit():
    with pytest.raises(OracleLimitError):
        enumerate_automorphisms(MultiGraph(33), limit=32)


def test_all_enumerated_are_valid():
    for g in (named_graph("petersen"), named_graph("theta", 2), named_graph("cycle", 5)):
        for h in enumerate_automorphisms(g):
            validate_automorphism(g, h)


def _brute_force_automorphisms(g):
    """Every vertex permutation preserving the endpoint multiset, in
    lexicographic order, with parallel classes mapped ascending."""
    classes = {}
    for e, pair in enumerate(g.endpoints):
        classes.setdefault(pair, []).append(e)
    out = []
    for vp in permutations(range(g.vertex_count)):
        image = {}
        for (u, v), members in classes.items():
            pair = tuple(sorted((vp[u], vp[v])))
            if len(classes.get(pair, ())) != len(members):
                break
            image.update(zip(members, classes[pair]))
        else:
            out.append((vp, tuple(image[e] for e in range(g.edge_count))))
    return out


def test_enumeration_matches_brute_force(small_connected_family):
    rng = random.Random(5)
    graphs = [v for g in small_connected_family for v in loop_parallel_variants(g)]
    graphs += [random_multigraph(rng, max_vertices=5, max_edges=8) for _ in range(40)]
    graphs += [MultiGraph(0), MultiGraph(3)]
    for g in graphs:
        autos = enumerate_automorphisms(g)
        assert isinstance(autos, list)
        assert [(h.vertex_perm, h.edge_perm) for h in autos] == (
            _brute_force_automorphisms(g)
        ), g


def test_petersen_vertex_transitive():
    g = named_graph("petersen")
    images = {h.vertex_perm[0] for h in enumerate_automorphisms(g)}
    assert images == set(range(10))


# -- free periods --------------------------------------------------------------


def test_petersen_free_period():
    h = find_free_period(named_graph("petersen"), 5)
    assert h is not None
    assert h.order() == 5
    assert not h.fixes_an_edge()


def test_frucht_has_no_free_period():
    assert find_free_period(named_graph("frucht"), 3) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cycle_rotation_found(p):
    h = find_free_period(named_graph("cycle", p), p)
    assert h is not None and h.order() == p and not h.fixes_an_edge()


def test_theta_parallel_action():
    # free period exists only through a nontrivial parallel-edge permutation
    h = find_free_period(named_graph("theta", 3), 3)
    assert h is not None
    assert h.vertex_perm == (0, 1)
    assert h.order() == 3


def test_theta_2_no_triple_period():
    assert find_free_period(named_graph("theta", 2), 3) is None


def test_k2_only_automorphism_fixes_the_edge():
    assert find_free_period(named_graph("complete", 2), 2) is None


def test_period_requires_prime():
    with pytest.raises(ValueError):
        find_free_period(named_graph("cycle", 4), 4)


def test_found_periods_power_to_identity(small_connected_family):
    for g in small_connected_family:
        for p in (2, 3, 5):
            h = find_free_period(g, p)
            if h is None:
                continue
            assert h.order() == p
            _, edge_orbits = orbits(g, h)
            assert all(len(orbit) == p for orbit in edge_orbits)


# -- direct search against the enumeration oracle ------------------------------


def _assert_same_witness(g, p):
    assert find_free_period(g, p) == free_period_by_enumeration(g, p), (g, p)


@pytest.mark.parametrize("p", PRIMES)
def test_search_matches_enumeration_on_small_family(p):
    for g in connected_simple_graphs(6):
        for variant in loop_parallel_variants(g):
            _assert_same_witness(variant, p)


@pytest.mark.parametrize("p", PRIMES)
def test_search_matches_enumeration_on_random_multigraphs(p):
    rng = random.Random(20140101)
    graphs = [random_multigraph(rng, max_vertices=7, max_edges=12) for _ in range(300)]
    assert any(u == v for g in graphs for u, v in g.endpoints)
    assert any(len(set(g.endpoints)) < g.edge_count for g in graphs)
    # the search answers these without a node, the enumeration does not
    assert sum(g.edge_count % p != 0 for g in graphs) > 100
    for g in graphs:
        _assert_same_witness(g, p)


@pytest.mark.parametrize("p", PRIMES)
def test_free_edge_perm_matches_class_orbit_walk(small_connected_family, p):
    rng = random.Random(20140101)
    graphs = [v for g in small_connected_family for v in loop_parallel_variants(g)]
    graphs += [random_multigraph(rng, max_vertices=7, max_edges=12) for _ in range(300)]
    compared = found = 0
    for g in graphs:
        identity = tuple(range(g.vertex_count))
        for h in enumerate_automorphisms(g):
            vp = power = h.vertex_perm
            for _ in range(p - 1):
                power = tuple(vp[v] for v in power)
            if power != identity:
                continue
            ep = symmetry._free_edge_perm(g, vp, p)
            assert ep == free_edge_perm_by_class_orbits(g, vp, p), (g, vp, p)
            compared += 1
            found += ep is not None and g.edge_count > 0
    assert found and compared > found


@pytest.mark.parametrize("p", PRIMES)
def test_every_map_of_the_period_search_has_a_free_edge_perm(small_connected_family, p):
    # find_free_period returns the period search's first map, so the search
    # must cut every map that fixes an edge class p does not divide
    rng = random.Random(20261020)
    graphs = list(connected_simple_graphs(7))
    graphs += [v for g in small_connected_family for v in loop_parallel_variants(g)]
    graphs += [random_multigraph(rng, max_vertices=7, max_edges=14) for _ in range(500)]
    moved = blocks = 0
    for g in graphs:
        edge_index = symmetry._edge_index(g)
        for vp in symmetry._vertex_automorphisms(symmetry._search_root(g), period=p):
            assert symmetry._free_edge_perm(g, vp, p) is not None, (g, vp, p)
            moved += vp != tuple(range(g.vertex_count))
            induced = symmetry._induced_edge_perm(edge_index, vp)
            blocks += any(e == f for e, f in enumerate(induced))
    # moved maps, and maps whose fixed classes are cycled in blocks of p
    assert moved > 1000 and blocks


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [0, 3])
def test_search_matches_enumeration_on_edgeless(n, p):
    _assert_same_witness(MultiGraph(n), p)


@pytest.mark.parametrize(
    "n, p, witness",
    [(9, 3, (1, 2, 0, 4, 5, 3, 7, 8, 6)), (8, 7, (0, 2, 3, 4, 5, 6, 7, 1))],
)
def test_complete_graph_first_witness(n, p, witness):
    h = find_free_period(named_graph("complete", n), p)
    assert h is not None and h.vertex_perm == witness
    assert h.order() == p and not h.fixes_an_edge()


# -- the search budget -----------------------------------------------------------


def test_budget_counts_search_nodes(monkeypatch):
    # K4: 4 + 12 + 24 + 24 partial maps consistent with adjacency
    k4 = named_graph("complete", 4)
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 64)
    assert len(enumerate_automorphisms(k4)) == 24
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 63)
    with pytest.raises(OracleLimitError, match="budget of 63 nodes"):
        enumerate_automorphisms(k4)


def test_budget_bounds_period_search(monkeypatch):
    # Frucht at p = 3 answers "none" after 272 nodes
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 10)
    with pytest.raises(OracleLimitError, match="budget of 10 nodes"):
        find_free_period(named_graph("frucht"), 3)


def test_exclusion_report_notes_exceeded_budget(monkeypatch):
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 10)
    reports = criteria.exclusion_report(named_graph("frucht"), [3], use_oracle=True)
    note = "oracle: skipped, search budget of 10 nodes exceeded"
    assert len(reports) == 2 and all(note in r.notes for r in reports)


def test_exclusion_report_budget_holds_per_prime(monkeypatch):
    # Petersen's searches take 20 and 28 nodes at p = 3 and 5, and none at
    # p = 2 and 7, which do not divide its 15 edges: each fits a budget of
    # 28, the two together do not
    petersen = named_graph("petersen")
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 28)
    reports = criteria.exclusion_report(petersen, PRIMES, use_oracle=True)
    assert len(reports) == 8
    assert not any("skipped" in note for r in reports for note in r.notes)
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 27)
    reports = criteria.exclusion_report(petersen, PRIMES, use_oracle=True)
    skipped = {r.p for r in reports if any("skipped" in note for note in r.notes)}
    assert skipped == {5}
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 0)
    reports = criteria.exclusion_report(petersen, (2, 7), use_oracle=True)
    assert len(reports) == 4
    for r in reports:
        assert f"oracle: free period of order {r.p} not found" in r.notes


# -- label independence ------------------------------------------------------------

def _star(k):
    return MultiGraph(k + 1, tuple((0, i) for i in range(1, k + 1)))


def _wheel(k):
    """A hub joined to every vertex of a k-cycle."""
    rim = tuple((i, i % k + 1) for i in range(1, k + 1))
    return MultiGraph(k + 1, _star(k).endpoints + rim)


def _sun(k):
    """A k-cycle with one pendant vertex on each of its vertices."""
    cycle = tuple((i, (i + 1) % k) for i in range(k))
    return MultiGraph(2 * k, cycle + tuple((i, k + i) for i in range(k)))


def _spider(legs, length):
    """``legs`` paths of ``length`` edges joined at one end."""
    edges = []
    for leg in range(legs):
        path = [0] + [1 + leg * length + j for j in range(length)]
        edges += zip(path, path[1:])
    return MultiGraph(1 + legs * length, tuple(edges))


# six symmetric cubic graphs of the Foster census among the named graphs,
# and the primes at which each has a free period
CENSUS_PERIODS = {
    "mobius-kantor": {2, 3},
    "pappus": {3},
    "desargues": {2, 3, 5},
    "nauru": {2, 3},
    "f26a": {3},
    "tutte-coxeter": {3, 5},
}

# name -> (graph in its own labels, the primes at which it has a free period)
PERIODIC = {
    "cycle21": (named_graph("cycle", 21), {3, 7}),
    "cycle30": (named_graph("cycle", 30), {2, 3, 5}),
    **{name: (named_graph(name), primes) for name, primes in CENSUS_PERIODS.items()},
    # every automorphism fixes the hub of a star, wheel or spider, and no
    # free period fixes a pendant vertex of the sun
    "star20": (_star(20), {2, 5}),
    "star30": (_star(30), {2, 3, 5}),
    "wheel20": (_wheel(20), {2, 5}),
    "sun10": (_sun(10), {2, 5}),
    "spider6x3": (_spider(6, 3), {2, 3}),
}


LABEL_CASES = (
    [("cycle21", (3, 7), 5), ("cycle30", (5,), 5)]
    + [
        (name, PRIMES, 1 if name == "tutte-coxeter" else 5)
        for name in CENSUS_PERIODS
    ]
    + [(name, PRIMES, 8) for name in ("star20", "star30", "wheel20", "sun10", "spider6x3")]
)


@pytest.mark.parametrize(
    "name, primes, copies", LABEL_CASES, ids=[name for name, _, _ in LABEL_CASES]
)
def test_period_search_does_not_depend_on_labels(monkeypatch, name, primes, copies):
    # a search that refines only at the root exceeds 200,000 nodes on many
    # of these copies, and so does one that counts a hub as fixed only once
    # it is placed, on shuffled stars; this search needs at most 18,962
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 20_000)
    g, periodic = PERIODIC[name]
    rng = random.Random(2014)
    for p in primes:
        for copy in [g] + [shuffled_copy(g, rng) for _ in range(copies)]:
            h = find_free_period(copy, p)
            assert (h is not None) == (p in periodic), (name, p, copy)
            if h is not None:
                symmetry.validate_free_period(copy, h, p)


def test_relabelled_tutte_coxeter_automorphism_count():
    g = shuffled_copy(PERIODIC["tutte-coxeter"][0], random.Random(2014))
    assert len(enumerate_automorphisms(g)) == 1440


# -- the cuts that need no search ------------------------------------------------

FIVE_HEXAGONS = MultiGraph(
    30, tuple((6 * i + j, 6 * i + (j + 1) % 6) for i in range(5) for j in range(6))
)
# 0 and 6 are joined to every other vertex, and 1 to 5
TWO_HUBS = MultiGraph(
    7,
    tuple((0, v) for v in range(1, 7)) + tuple((v, 6) for v in range(1, 6)) + ((1, 5),),
)


@pytest.mark.parametrize(
    "g, p",
    [
        (named_graph("petersen"), 2),
        (named_graph("petersen"), 7),
        (FIVE_HEXAGONS, 7),
        (named_graph("path", 4), 3),
    ],
    ids=["petersen-2", "petersen-7", "five-hexagons-7", "path4-3"],
)
def test_ruled_out_without_a_search_node(monkeypatch, g, p):
    # p does not divide 15 or 30 edges; path:4 has 3 edges, but its root
    # cells {0, 3} and {1, 2} each need 2 mod 3 = 2 fixed vertices, and no
    # vertex has a degree divisible by 3
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 0)
    assert find_free_period(g, p) is None


def test_root_cells_settle_most_small_pairs(monkeypatch):
    # 96 of the 150 pairs at p = 2, 3, 5 and all 25 at p = 7 but the
    # single vertex's, with no search node
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 0)
    pairs, settled = 0, []
    for g in connected_simple_graphs(6):
        for p in PRIMES:
            if g.edge_count % p == 0:
                pairs += 1
                try:
                    settled.append((g, p, find_free_period(g, p)))
                except OracleLimitError:
                    pass
    assert (pairs, len(settled)) == (175, 120)
    monkeypatch.undo()
    for g, p, h in settled:
        assert h is None and free_period_by_enumeration(g, p) is None, (g, p)


# -- vertices that can never be fixed together -----------------------------------


@pytest.mark.parametrize("n, p", [(12, 5), (10, 7), (11, 7), (12, 7)])
def test_complete_graph_without_free_period_answers_none(n, p):
    # n mod p >= 2 vertices must be fixed, and any two are joined by one
    # edge, a class that <h> fixes although p does not divide its size;
    # p does not divide the edge count either, which settles it first
    assert find_free_period(named_graph("complete", n), p) is None


def test_hubs_joined_by_one_edge_have_no_free_period():
    # at p = 3 the two hubs, of degree 6, must both be fixed, and <h> would
    # then fix the one edge between them
    assert find_free_period(TWO_HUBS, 3) is None
    _assert_same_witness(TWO_HUBS, 3)


@pytest.mark.parametrize("multiplicity", [0, 3])
def test_fixed_pair_joined_by_a_multiple_of_p(multiplicity):
    # K33 with each side's pairs joined by 0 or 3 edges: at p = 3 the first
    # witness fixes 0, 1 and 2, so the cell of all six vertices needs two
    # more fixed vertices once 0 is placed, and 1, 2 may be fixed together
    sides = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    g = MultiGraph(6, tuple(edges + sides * multiplicity))
    h = find_free_period(g, 3)
    assert h is not None and h.vertex_perm[:3] == (0, 1, 2)
    _assert_same_witness(g, 3)


# -- the search root kept for the last graph --------------------------------------


def _answers(calls, *, fresh):
    """find_free_period(g, p), or enumerate_automorphisms(g) where p is
    None, for each call in turn; with ``fresh`` each on a new root."""
    out = []
    for g, p in calls:
        if fresh:
            symmetry._search_root.cache_clear()
        out.append(enumerate_automorphisms(g) if p is None else find_free_period(g, p))
    return out


def test_kept_root_answers_as_a_fresh_one():
    # searches on A, on another graph B and on an equal copy of A take
    # turns, each starting from the root the one before it left
    rng = random.Random(40)
    a = shuffled_copy(named_graph("petersen"), rng)
    b = shuffled_copy(named_graph("mobius-kantor"), rng)
    a_copy = MultiGraph(a.vertex_count, a.endpoints)
    assert a_copy == a and a_copy is not a
    calls = [(g, p) for p in (2, 3, None, 5, 7) for g in (a, b, a_copy, a)]
    assert _answers(calls, fresh=False) == _answers(calls, fresh=True)


def test_search_stopped_by_the_budget_leaves_the_root_whole(monkeypatch):
    frucht = named_graph("frucht")
    calls = [(frucht, 3), (frucht, None)]
    fresh = _answers(calls, fresh=True)
    symmetry._search_root.cache_clear()
    monkeypatch.setattr(symmetry, "SEARCH_NODE_BUDGET", 10)
    with pytest.raises(OracleLimitError, match="budget of 10 nodes"):
        find_free_period(frucht, 3)
    monkeypatch.undo()
    assert _answers(calls, fresh=False) == fresh


# -- orbits ---------------------------------------------------------------------


def test_petersen_rotation_orbits():
    g = named_graph("petersen")
    h = find_free_period(g, 5)
    vertex_orbits, edge_orbits = orbits(g, h)
    assert sorted(len(o) for o in vertex_orbits) == [5, 5]
    assert sorted(len(o) for o in edge_orbits) == [5, 5, 5]


def test_identity_orbits_are_singletons():
    g = named_graph("cycle", 4)
    identity = automorphism_from_vertex_perm(g, (0, 1, 2, 3))
    vertex_orbits, edge_orbits = orbits(g, identity)
    assert all(len(o) == 1 for o in vertex_orbits)
    assert all(len(o) == 1 for o in edge_orbits)


def test_c6_rotation_by_two():
    g = named_graph("cycle", 6)
    h = automorphism_from_vertex_perm(g, tuple((i + 2) % 6 for i in range(6)))
    vertex_orbits, edge_orbits = orbits(g, h)
    assert sorted(len(o) for o in vertex_orbits) == [3, 3]
    assert sorted(len(o) for o in edge_orbits) == [3, 3]


@pytest.mark.parametrize(
    "text, vp",
    [
        ("n 3\ne 0 1\ne 1 2", (1, 0, 2)),  # {0, 2} is not an edge
        ("n 2\ne 0 0\ne 0 1", (1, 0)),  # no loop at 1
        # the simple edge {1, 2} onto the triple class {0, 1}, and back
        ("n 3\ne 0 1\ne 0 1\ne 0 1\ne 1 2", (2, 1, 0)),
        ("n 4\ne 0 1\ne 0 1\ne 2 3", (2, 3, 0, 1)),
    ],
)
def test_vertex_perm_of_non_automorphism_rejected(text, vp):
    g = parse_edge_list(text)
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphism_from_vertex_perm(g, vp)


def test_orbits_rejects_incompatible_pair():
    g = named_graph("cycle", 3)
    bad = Automorphism((1, 0, 2), (0, 1, 2))
    with pytest.raises(ValueError):
        orbits(g, bad)


# -- quotients ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cycle_quotient_is_single_loop(p):
    g, h = cycle_rotation(p)
    qm = quotient_graph(g, h)
    assert qm.quotient == MultiGraph(1, ((0, 0),))
    assert g.edge_count == p * qm.quotient.edge_count


def test_petersen_quotient_shape():
    g = named_graph("petersen")
    qm = quotient_graph(g, find_free_period(g, 5))
    assert qm.quotient.vertex_count == 2
    assert qm.quotient.edge_count == 3
    loops = [e for e in qm.quotient.endpoints if e[0] == e[1]]
    assert len(loops) == 2  # one loop per vertex orbit, plus the spoke edge


def test_disjoint_k2_swap_quotient():
    g = parse_edge_list("n 4\ne 0 1\ne 2 3")
    h = Automorphism((2, 3, 0, 1), (1, 0))
    qm = quotient_graph(g, h)
    assert canonical_key(qm.quotient) == canonical_key(named_graph("complete", 2))


def test_quotient_projections_consistent(small_connected_family):
    for g in small_connected_family:
        for p in (2, 3, 5):
            h = find_free_period(g, p)
            if h is None:
                continue
            qm = quotient_graph(g, h)
            assert qm.quotient.edge_count * p == g.edge_count
            assert qm.quotient.vertex_count <= g.vertex_count
            assert set(qm.vertex_projection) == set(
                range(qm.quotient.vertex_count)
            )
            assert set(qm.edge_projection) == set(range(qm.quotient.edge_count))
            for i, orbit in enumerate(qm.vertex_orbits):
                assert {qm.vertex_projection[v] for v in orbit} == {i}
            for i, orbit in enumerate(qm.edge_orbits):
                assert {qm.edge_projection[e] for e in orbit} == {i}


def test_quotient_rejects_edge_fixing_automorphism():
    g = named_graph("complete", 2)
    swap = automorphism_from_vertex_perm(g, (1, 0))  # fixes the unique edge
    with pytest.raises(NotAFreePeriodError):
        quotient_graph(g, swap)


def test_quotient_rejects_composite_order():
    g = named_graph("cycle", 4)
    rot = automorphism_from_vertex_perm(g, (1, 2, 3, 0))  # order 4
    with pytest.raises(ValueError):
        quotient_graph(g, rot)


def test_quotient_allows_fixed_vertices():
    star = parse_edge_list("n 4\ne 0 1\ne 0 2\ne 0 3")
    h = find_free_period(star, 3)
    assert h is not None and h.vertex_perm[0] == 0
    qm = quotient_graph(star, h)
    assert qm.quotient.vertex_count == 2 and qm.quotient.edge_count == 1


# -- serialization -------------------------------------------------------------------


def test_automorphism_serializes_to_json_arrays():
    g = named_graph("cycle", 3)
    h = find_free_period(g, 3)
    payload = json.loads(json.dumps(h.to_dict()))
    assert payload == {
        "vertex_perm": list(h.vertex_perm),
        "edge_perm": list(h.edge_perm),
    }


# -- cross-check against networkx ------------------------------------------------------


def test_family_counts_and_keys_against_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    atlas = graph_atlas_g()
    by_n = {}
    for G in atlas:
        n = G.number_of_nodes()
        if n == 0 or not nx.is_connected(G):
            continue
        relabeled = nx.convert_node_labels_to_integers(G)
        mg = MultiGraph(
            n, tuple((u, v) for u, v in relabeled.edges())
        )
        by_n.setdefault(n, set()).add(canonical_key(mg))

    ours = {}
    for g in connected_simple_graphs(7):
        ours.setdefault(g.vertex_count, set()).add(canonical_key(g))

    known_counts = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, expected in known_counts.items():
        assert len(by_n[n]) == expected
        assert ours[n] == by_n[n]
