from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphperiod import graphs, invariants
from graphperiod.invariants import tutte_deletion_contraction
from graphperiod.families import connected_simple_graphs
from graphperiod.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    GraphFormatError,
    GraphTooLargeError,
    MultiGraph,
    _adjacency,
    _canonical_search,
    _refine,
    blocks,
    canonical_key,
    component_count,
    contract_edges,
    delete_edges,
    encoding,
    named_graph,
    parse_edge_list,
    render_edge_list,
    submap,
)
from conftest import (
    canonical_key_by_full_search,
    complete_bipartite,
    contract_edge_ids,
    delete_edge_ids,
    girth,
    loop_parallel_variants,
    prism,
    random_cubic,
    random_multigraph,
    rook_4x4,
    shrikhande,
    shuffled_copy,
    symmetric_graphs,
)


# -- construction -------------------------------------------------------------


@pytest.mark.parametrize(
    "vertex_count,endpoints",
    [(2.5, ()), ("2", ()), (2, ((0, 1.0),)), (2, (("0", "1"),)), (2, ((0, None),))],
)
def test_multigraph_refuses_non_integers(vertex_count, endpoints):
    with pytest.raises(ValueError, match="not an integer"):
        MultiGraph(vertex_count, endpoints)


def test_multigraph_refuses_an_edge_that_is_not_a_pair():
    with pytest.raises(ValueError, match="not a pair of endpoints"):
        MultiGraph(2, (5,))


@pytest.mark.parametrize("param", [2.5, "3"])
def test_named_graph_refuses_non_integers(param):
    with pytest.raises(ValueError, match="must be integers"):
        named_graph("cycle", param)


def test_multigraph_normalises_integer_likes():
    # bools become the ints 0 and 1
    g = MultiGraph(True, ((False, False),))
    assert repr(g) == "MultiGraph(1, [(0, 0)])"
    assert type(g.vertex_count) is int and type(g.endpoints[0][0]) is int
    assert MultiGraph(3, ((True, 2), (2, 0))).endpoints == ((1, 2), (0, 2))


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
        # a superscript digit passes str.isdigit() but not int()
        ("n 2\ne 0 ¹", "line 2"),
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
    assert delete_edge_ids(parse_edge_list("n 2\ne 0 1"), (0,)) == MultiGraph(2)


def test_delete_cycle_edge_gives_path():
    c3 = named_graph("cycle", 3)
    for e in range(3):
        without = delete_edge_ids(c3, (e,))
        assert without.edge_count == 2 and component_count(without) == 1


def test_delete_loop():
    assert delete_edge_ids(parse_edge_list("n 1\ne 0 0"), (0,)) == MultiGraph(1)


def test_delete_out_of_range():
    with pytest.raises(ValueError):
        delete_edge_ids(named_graph("cycle", 3), (3,))


def test_contract_k2():
    assert contract_edge_ids(parse_edge_list("n 2\ne 0 1"), (0,)) == MultiGraph(1)


def test_contract_parallel_becomes_loop():
    c2 = named_graph("cycle", 2)
    assert contract_edge_ids(c2, (0,)) == MultiGraph(1, ((0, 0),))


def test_contract_cycle_gives_smaller_cycle():
    c3 = named_graph("cycle", 3)
    contracted = contract_edge_ids(c3, (0,))
    assert canonical_key(contracted) == canonical_key(named_graph("cycle", 2))


def test_contract_loop_rejected():
    with pytest.raises(ValueError):
        contract_edge_ids(parse_edge_list("n 1\ne 0 0"), (0,))


def test_spanning_subgraph_range_check():
    with pytest.raises(ValueError):
        contract_edge_ids(named_graph("cycle", 3), (5,))


# -- components --------------------------------------------------------------------


def test_component_count_edgeless():
    for n in (0, 1, 4):
        assert component_count(MultiGraph(n)) == n


def test_component_count_petersen():
    assert component_count(named_graph("petersen")) == 1


def test_component_count_disjoint():
    g = parse_edge_list("n 3\ne 0 1")
    assert component_count(g) == 2


# -- adjacency maps: blocks, deletion, contraction ---------------------------------------


def _random_graph(rng, max_vertices, max_edges):
    n = rng.randint(1, max_vertices)
    return MultiGraph(
        n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_edges)))
    )


def _map_graph(adj) -> MultiGraph:
    """The graph of a map on its vertices with neighbours, renumbered in
    order."""
    kept = [v for v, row in enumerate(adj) if row]
    index = {v: i for i, v in enumerate(kept)}
    pairs = [(index[v], index[w]) for v in kept for w, m in adj[v].items() if v < w for _ in range(m)]
    return MultiGraph(len(kept), tuple(pairs))


def test_deletion_component_growth_matches_classification():
    rng = random.Random(7)
    for _ in range(50):
        g = _random_graph(rng, 6, 8)
        _, adj = _adjacency(g)
        # a bridge is a two-vertex block of multiplicity 1
        bridges = {
            tuple(b) for b in blocks(adj) if len(b) == 2 and adj[b[0]][b[1]] == 1
        }
        for e in range(g.edge_count):
            grew = component_count(delete_edge_ids(g, (e,))) - component_count(g)
            assert grew in (0, 1)
            assert (grew == 1) == (g.endpoints[e] in bridges)


def test_blocks_of_necklace_and_loops():
    # two triangles sharing vertex 2, a pendant edge, a parallel pair, a loop
    g = parse_edge_list(
        "n 7\ne 0 1\ne 1 2\ne 2 0\ne 2 3\ne 3 4\ne 4 2\ne 4 5\ne 5 6\ne 5 6\ne 6 6"
    )
    loops, adj = _adjacency(g)
    assert loops == [0, 0, 0, 0, 0, 0, 1]
    assert sorted(blocks(adj)) == [[0, 1, 2], [2, 3, 4], [4, 5], [5, 6]]
    assert adj[4][5] == 1 and adj[5][6] == 2


def _connected(adj, drop=None) -> bool:
    """Whether the vertices of a map other than ``drop`` are connected."""
    vertices = [v for v in range(len(adj)) if v != drop]
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w != drop and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def test_blocks_partition_edges_into_two_connected_pieces():
    rng = random.Random(3)
    for _ in range(50):
        g = _random_graph(rng, 7, 10)
        _, adj = _adjacency(g)
        parts = blocks(adj)
        # every parallel class lies in exactly one block
        for u, row in enumerate(adj):
            for w in row:
                assert sum(u in part and w in part for part in parts) == 1
        for part in parts:
            piece = submap(adj, part)
            assert len(piece) == len(part) >= 2 and _connected(piece)
            # no cut vertex: deleting any vertex leaves the rest connected
            if len(piece) > 2:
                for v in range(len(piece)):
                    assert _connected(piece, drop=v)


def test_map_minors_match_the_edge_id_route():
    # deleting or contracting whole parallel classes of the map gives the
    # minors that the edge-id route gives for the same edges
    rng = random.Random(11)
    joined_ends = 0
    for _ in range(200):
        g = _random_graph(rng, 8, 14)
        # the map leaves loops out, so the edge-id route starts without them
        loopless = MultiGraph(g.vertex_count, tuple(p for p in g.endpoints if p[0] != p[1]))
        _, adj = _adjacency(g)
        classes = sorted(set(loopless.endpoints))
        picked = rng.sample(classes, rng.randint(0, len(classes)))
        ids = [e for e, pair in enumerate(loopless.endpoints) if pair in picked]

        deleted = _adjacency(delete_edge_ids(loopless, ids))[1]
        assert canonical_key(_map_graph(delete_edges(adj, picked))) == canonical_key(
            _map_graph(deleted)
        )

        contracted, inner = contract_edges(adj, picked)
        expected_loops, expected = _adjacency(contract_edge_ids(loopless, ids))
        assert inner == sum(expected_loops)
        joined_ends += inner
        assert canonical_key(_map_graph(contracted)) == canonical_key(_map_graph(expected))
        # the parent map is left as it was
        assert adj == _adjacency(g)[1]
    assert joined_ends


def test_block_key_is_the_canonical_key_of_a_block(monkeypatch):
    # the recursion keys a block with no degree-2 vertex on the canonical
    # search run on the block's map; that is canonical_key of the block.
    # It takes the key once a second block of the same degree sequence
    # turns up, so a relabelled copy finds the first block's value there
    rng = random.Random(5)
    chosen = []
    choose = invariants._default_chooser
    monkeypatch.setattr(invariants, "_default_chooser", lambda adj: chosen.append(1) or choose(adj))
    keyed = 0
    for _ in range(100):
        g = _random_graph(rng, 7, 16)
        _, adj = _adjacency(g)
        for part in blocks(adj):
            piece = submap(adj, part)
            block = _map_graph(piece)
            key = canonical_key(block)
            found, _, _, order = _canonical_search([0] * len(piece), piece)
            assert found == key
            degrees = [sum(row.values()) for row in piece]
            if block.edge_count > len(piece) > 2 and 2 not in degrees:
                memo = {}
                tutte_deletion_contraction(block, cache=memo)
                # the copy in the order of the minimum leaf: its label-order
                # bytes are the key
                position = {v: i for i, v in enumerate(order)}
                copy = [{position[w]: m for w, m in piece[v].items()} for v in order]
                chosen.clear()
                tutte_deletion_contraction(_map_graph(copy), cache=memo)
                assert key in {k for _, k in memo}
                assert not chosen
                keyed += 1
    assert keyed


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_a_block_in_canonical_order_has_its_canonical_key(seed):
    # one key space: relabelled into the order of the search's minimum
    # leaf, a block's label-order bytes are its canonical key
    g = _random_graph(random.Random(seed), 6, 10)
    _, adj = _adjacency(g)
    for part in blocks(adj):
        piece = submap(adj, part)
        n = len(piece)
        zeros = [0] * n
        key = _canonical_search(zeros, piece)[0]
        order = next(
            order
            for order in itertools.permutations(range(n))
            if encoding(piece, zeros, order) == key
        )
        position = {v: i for i, v in enumerate(order)}
        relabelled = [{position[w]: m for w, m in piece[v].items()} for v in order]
        assert encoding(relabelled, zeros, range(n)) == key


# -- canonical keys ----------------------------------------------------------------------


def test_canonical_key_c3_all_labelings():
    c3 = named_graph("cycle", 3)
    keys = {
        canonical_key(MultiGraph(3, tuple((perm[u], perm[v]) for u, v in c3.endpoints)))
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


@pytest.mark.parametrize(
    "left,right",
    [
        (MultiGraph(3, ((1, 2),)), MultiGraph(6, ((3, 3), (4, 4), (4, 4), (5, 5)))),
        (MultiGraph(0), MultiGraph(1)),
        (MultiGraph(1), MultiGraph(3)),
        (named_graph("theta", 255), named_graph("theta", 256)),
        (named_graph("theta", 44), named_graph("theta", 300)),
    ],
    ids=[
        "K2+K1-vs-loops",
        "no-vertex-vs-one",
        "one-vs-three-isolated",
        "class-255-vs-256",
        "class-44-vs-300",
    ],
)
def test_canonical_key_separates_what_a_careless_format_merges(left, right):
    # left out n, a vector of loop counts followed by edge triples writes
    # both graphs of the first pair as 0 0 0 1 2 1 in label order, and any
    # format writes all edgeless graphs alike; a one-byte word cannot hold
    # a class of 256 edges, and read modulo 256, 300 is 44
    assert canonical_key(left) != canonical_key(right)


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
    assert canonical_key(g) == canonical_key(shuffled_copy(g, rnd))


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
    left = contract_edge_ids(delete_edge_ids(g, (e,)), (f_after,))
    right = delete_edge_ids(contract_edge_ids(g, (f,)), (e_after,))
    assert canonical_key(left) == canonical_key(right)


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
    g = shuffled_copy(symmetric_graphs()[name], random.Random(name))
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
            assert canonical_key(shuffled_copy(g, rng)) == key


def _disjoint(parts) -> MultiGraph:
    """The disjoint union of ``parts``, numbered one after another."""
    endpoints, start = [], 0
    for g in parts:
        endpoints += [(u + start, v + start) for u, v in g.endpoints]
        start += g.vertex_count
    return MultiGraph(start, tuple(endpoints))


def test_canonical_key_of_disconnected_multigraphs_ignores_labels():
    # components searched one by one, some of them isomorphic: the key is
    # the same for every relabelling, and matches the full search's
    rng = random.Random(17)
    for _ in range(150):
        parts = [random_multigraph(rng, max_vertices=4, max_edges=6) for _ in range(rng.randint(2, 4))]
        parts += [shuffled_copy(parts[0], rng)] * rng.randint(0, 2)
        rng.shuffle(parts)
        g = _disjoint(parts)
        assert component_count(g) >= 2
        key = canonical_key(g)
        assert key == canonical_key_by_full_search(g)
        for _ in range(3):
            assert canonical_key(shuffled_copy(g, rng)) == key


@pytest.mark.parametrize(
    "parts",
    [
        [named_graph("cycle", 6)] * 50,
        [named_graph("petersen")] * 8,
        [MultiGraph(1)] * 500,
    ],
    ids=["50-cycles", "8-petersen", "500-isolated"],
)
def test_canonical_key_of_many_isomorphic_components_is_fast(parts):
    # one search per component, so the swaps of isomorphic components
    # never reach a search
    g = shuffled_copy(_disjoint(parts), random.Random(len(parts)))
    started = time.perf_counter()
    key = canonical_key(g)
    assert time.perf_counter() - started < 2.0
    assert key == canonical_key(_disjoint(parts))


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
