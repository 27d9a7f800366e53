from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphperiod import graphs
from graphperiod.families import (
    connected_simple_graphs,
    loop_parallel_variants,
    random_multigraph,
)
from graphperiod.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    GraphFormatError,
    GraphTooLargeError,
    MultiGraph,
    _adjacency,
    _refine,
    blocks,
    canonical_key,
    component_count,
    component_subgraphs,
    contract_edges,
    delete_edges,
    edge_subgraph,
    named_graph,
    parse_edge_list,
    relabel,
    render_edge_list,
)
from conftest import (
    canonical_key_by_full_search,
    complete_bipartite,
    girth,
    prism,
    random_cubic,
    rook_4x4,
    shrikhande,
    symmetric_graphs,
)


# -- parsing ------------------------------------------------------------------


def test_parse_k2():
    g = parse_edge_list("n 2\ne 0 1")
    assert g == MultiGraph(2, ((0, 1),))


def test_parse_loop():
    g = parse_edge_list("n 1\ne 0 0")
    assert g.vertex_count == 1 and g.endpoints == ((0, 0),)


def test_parse_parallel_plus_isolated():
    g = parse_edge_list("n 3\ne 0 1\ne 0 1")
    assert g.vertex_count == 3
    assert g.endpoints == ((0, 1), (0, 1))


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# header comment\n\nn 2 # two vertices\ne 0 1\n")
    assert g == MultiGraph(2, ((0, 1),))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 0 1", "line 1"),
        ("n 2\nzz", "line 2"),
        ("n 2\ne 0 2", "line 2"),
        ("n 2\ne 0", "line 2"),
        ("# nothing\n", "missing"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_parse_refuses_oversized_header():
    # refused at the header, before any vertex is built
    with pytest.raises(GraphTooLargeError) as err:
        parse_edge_list(f"n {MAX_VERTICES + 1}\ne 0 1")
    assert str(MAX_VERTICES) in str(err.value)
    parse_edge_list(f"n {MAX_VERTICES}")


def test_parse_refuses_too_many_edges(monkeypatch):
    # the limit is read at parse time; a small one stands in for MAX_EDGES
    monkeypatch.setattr(graphs, "MAX_EDGES", 3)
    assert parse_edge_list("n 2" + "\ne 0 1" * 3).edge_count == 3
    with pytest.raises(GraphTooLargeError):
        parse_edge_list("n 2" + "\ne 0 1" * 4)


@pytest.mark.parametrize(
    "name,param",
    [
        ("empty", MAX_VERTICES + 1),
        ("path", MAX_VERTICES + 1),
        ("cycle", 100_000_000),
        ("complete", 1_000),  # 499,500 edges
        ("theta", MAX_EDGES + 1),
    ],
)
def test_named_graph_refuses_oversized(name, param):
    with pytest.raises(GraphTooLargeError):
        named_graph(name, param)


def test_render_roundtrip():
    g = named_graph("petersen")
    assert parse_edge_list(render_edge_list(g)) == g


# -- deletion and contraction ----------------------------------------------------


def test_delete_k2_gives_edgeless():
    assert delete_edges(parse_edge_list("n 2\ne 0 1"), (0,)) == MultiGraph(2)


def test_delete_cycle_edge_gives_path():
    c3 = named_graph("cycle", 3)
    for e in range(3):
        without = delete_edges(c3, (e,))
        assert without.edge_count == 2 and component_count(without) == 1


def test_delete_loop():
    assert delete_edges(parse_edge_list("n 1\ne 0 0"), (0,)) == MultiGraph(1)


def test_delete_out_of_range():
    with pytest.raises(ValueError):
        delete_edges(named_graph("cycle", 3), (3,))


def test_contract_k2():
    assert contract_edges(parse_edge_list("n 2\ne 0 1"), (0,)) == MultiGraph(1)


def test_contract_parallel_becomes_loop():
    c2 = named_graph("cycle", 2)
    assert contract_edges(c2, (0,)) == MultiGraph(1, ((0, 0),))


def test_contract_cycle_gives_smaller_cycle():
    c3 = named_graph("cycle", 3)
    contracted = contract_edges(c3, (0,))
    assert canonical_key(contracted) == canonical_key(named_graph("cycle", 2))


def test_contract_loop_rejected():
    with pytest.raises(ValueError):
        contract_edges(parse_edge_list("n 1\ne 0 0"), (0,))


def test_spanning_subgraph_range_check():
    with pytest.raises(ValueError):
        contract_edges(named_graph("cycle", 3), (5,))


# -- components --------------------------------------------------------------------


def test_component_count_edgeless():
    for n in (0, 1, 4):
        assert component_count(MultiGraph(n)) == n


def test_component_count_petersen():
    assert component_count(named_graph("petersen")) == 1


def test_component_count_disjoint():
    g = parse_edge_list("n 3\ne 0 1")
    assert component_count(g) == 2


# -- bridges and blocks ------------------------------------------------------------------


def test_deletion_component_growth_matches_classification():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        g = MultiGraph(
            n,
            tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 8))
            ),
        )
        # a bridge is a block of one edge that is not a loop
        bridges = {
            b[0] for b in blocks(g) if len(b) == 1 and len(set(g.endpoints[b[0]])) == 2
        }
        for e in range(g.edge_count):
            grew = component_count(delete_edges(g, (e,))) - component_count(g)
            assert grew in (0, 1)
            assert (grew == 1) == (e in bridges)


def test_blocks_of_necklace_and_loops():
    # two triangles sharing vertex 2, a pendant edge, a parallel pair, a loop
    g = parse_edge_list(
        "n 7\ne 0 1\ne 1 2\ne 2 0\ne 2 3\ne 3 4\ne 4 2\ne 4 5\ne 5 6\ne 5 6\ne 6 6"
    )
    assert blocks(g) == [[0, 1, 2], [3, 4, 5], [6], [7, 8], [9]]


def test_blocks_partition_edges_into_two_connected_pieces():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 7)
        g = MultiGraph(
            n,
            tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))),
        )
        parts = blocks(g)
        assert sorted(e for part in parts for e in part) == list(range(g.edge_count))
        for part in parts:
            piece = edge_subgraph(g, part)
            assert component_count(piece) == 1
            # no cut vertex: deleting any vertex leaves the rest connected
            if piece.vertex_count > 2:
                for v in range(piece.vertex_count):
                    kept = [(a, b) for a, b in piece.endpoints if v not in (a, b)]
                    rest = edge_subgraph(MultiGraph(piece.vertex_count, tuple(kept)), range(len(kept)))
                    assert rest.vertex_count == piece.vertex_count - 1
                    assert component_count(rest) == 1


# -- canonical keys ----------------------------------------------------------------------


def test_canonical_key_c3_all_labelings():
    c3 = named_graph("cycle", 3)
    keys = {
        canonical_key(relabel(c3, perm))
        for perm in itertools.permutations(range(3))
    }
    assert len(keys) == 1


def test_canonical_key_separates_c4_from_parallel_pairs():
    c4 = named_graph("cycle", 4)
    pairs = parse_edge_list("n 4\ne 0 1\ne 0 1\ne 2 3\ne 2 3")
    assert canonical_key(c4) != canonical_key(pairs)


def test_canonical_key_separates_k2_plus_isolated_from_path():
    a = parse_edge_list("n 3\ne 0 1")
    b = named_graph("path", 3)
    assert canonical_key(a) != canonical_key(b)


def test_canonical_key_multiplicity_sensitive():
    assert canonical_key(named_graph("theta", 2)) != canonical_key(
        named_graph("theta", 3)
    )


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 6))
    q = draw(st.integers(0, 8))
    edges = tuple(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(q)
    )
    return MultiGraph(n, edges)


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_canonical_key_relabeling_invariance(g, rnd):
    vperm = list(range(g.vertex_count))
    eperm = list(range(g.edge_count))
    rnd.shuffle(vperm)
    rnd.shuffle(eperm)
    assert canonical_key(g) == canonical_key(relabel(g, vperm, eperm))


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.data())
def test_delete_contract_commute_up_to_isomorphism(g, data):
    non_loops = [e for e, (u, v) in enumerate(g.endpoints) if u != v]
    if len(non_loops) < 2:
        return
    e = data.draw(st.sampled_from(non_loops))
    f = data.draw(st.sampled_from([x for x in non_loops if x != e]))
    # delete e first: f's id shifts down when f > e; contract f first: e likewise
    f_after = f - 1 if f > e else f
    e_after = e - 1 if e > f else e
    left = contract_edges(delete_edges(g, (e,)), (f_after,))
    right = delete_edges(contract_edges(g, (f,)), (e_after,))
    assert canonical_key(left) == canonical_key(right)


def _shuffled_copy(g: MultiGraph, rng: random.Random) -> MultiGraph:
    vperm = list(range(g.vertex_count))
    eperm = list(range(g.edge_count))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    return relabel(g, vperm, eperm)


def _doubled(g: MultiGraph) -> MultiGraph:
    return MultiGraph(g.vertex_count, g.endpoints + (g.endpoints[0],))


def test_canonical_key_matches_full_search_on_small_family():
    for g in connected_simple_graphs(6):
        for variant in loop_parallel_variants(g):
            assert canonical_key(variant) == canonical_key_by_full_search(variant)


def test_canonical_key_matches_full_search_on_random_multigraphs():
    rng = random.Random(20261018)
    loops = parallels = 0
    for _ in range(300):
        g = random_multigraph(rng, max_vertices=8, max_edges=14)
        loops += any(u == v for u, v in g.endpoints)
        parallels += len(set(g.endpoints)) < g.edge_count
        assert canonical_key(g) == canonical_key_by_full_search(g)
    assert loops and parallels


def test_canonical_key_matches_full_search_on_random_cubic_graphs():
    # regular, so refinement splits nothing until a vertex is individualised
    rng = random.Random(3)
    for n in (8, 10, 12, 14):
        for _ in range(10):
            g = random_cubic(rng, n)
            assert canonical_key(g) == canonical_key_by_full_search(g)


@pytest.mark.parametrize("name", sorted(symmetric_graphs()))
def test_canonical_key_matches_full_search_on_symmetric_graphs(name):
    g = _shuffled_copy(symmetric_graphs()[name], random.Random(name))
    assert canonical_key(g) == canonical_key_by_full_search(g)


def _two_triangles():
    return MultiGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))


REFINEMENT_BLIND_PAIRS = {
    "rook4x4-shrikhande": (rook_4x4, shrikhande),
    "prism3-K33": (lambda: prism(3), lambda: complete_bipartite(3, 3)),
    "C6-two-triangles": (lambda: named_graph("cycle", 6), _two_triangles),
}


@pytest.mark.parametrize("doubled", [False, True])
@pytest.mark.parametrize("pair", sorted(REFINEMENT_BLIND_PAIRS))
def test_pruned_search_separates_refinement_blind_pairs(pair, doubled):
    members = [build() for build in REFINEMENT_BLIND_PAIRS[pair]]
    for g in members:
        # regular graphs of one degree: refinement leaves a single cell
        loops, adj = _adjacency(g)
        assert set(_refine(g.vertex_count, adj, loops, [0] * g.vertex_count)) == {0}
    if doubled:
        members = [_doubled(g) for g in members]
    keys = [canonical_key(g) for g in members]
    assert keys[0] != keys[1]
    rng = random.Random(pair)
    for g, key in zip(members, keys):
        for _ in range(20):
            assert canonical_key(_shuffled_copy(g, rng)) == key


def _assert_built_as_validated(h: MultiGraph):
    validated = MultiGraph(h.vertex_count, h.endpoints)
    assert h == validated
    assert type(h.endpoints) is tuple and h.endpoints == validated.endpoints
    assert all(0 <= u <= v < h.vertex_count for u, v in h.endpoints)


def test_structural_operations_build_validated_graphs():
    rng = random.Random(7)
    for _ in range(300):
        g = random_multigraph(rng, max_vertices=8, max_edges=14)
        edges = list(range(g.edge_count))
        picked = rng.sample(edges, rng.randint(0, g.edge_count))
        non_loops = [e for e in edges if g.endpoints[e][0] != g.endpoints[e][1]]
        contracted = rng.sample(non_loops, rng.randint(0, len(non_loops)))
        results = [
            delete_edges(g, picked),
            contract_edges(g, contracted),
            edge_subgraph(g, picked),
            *component_subgraphs(g),
        ]
        for h in results:
            _assert_built_as_validated(h)


# -- named graphs -----------------------------------------------------------------------------


def test_petersen_shape():
    g = named_graph("petersen")
    assert g.vertex_count == 10 and g.edge_count == 15
    degrees = Counter(v for pair in g.endpoints for v in pair)
    assert degrees == dict.fromkeys(range(10), 3)
    assert girth(g) == 5


def test_frucht_shape():
    g = named_graph("frucht")
    assert g.vertex_count == 12 and g.edge_count == 18
    degrees = Counter(v for pair in g.endpoints for v in pair)
    assert degrees == dict.fromkeys(range(12), 3)


def test_empty_graph():
    g = named_graph("empty", 4)
    assert g.vertex_count == 4 and g.edge_count == 0


def test_theta_graph():
    g = named_graph("theta", 3)
    assert g.vertex_count == 2 and g.endpoints == ((0, 1),) * 3


def test_named_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        named_graph("cycle", 1)
    with pytest.raises(ValueError):
        named_graph("moebius")
    with pytest.raises(ValueError):
        named_graph("petersen", 5)
