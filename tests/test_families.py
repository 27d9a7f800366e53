"""The small-graph family: the orbit-skipping generator against the
first-seen oracle, and the automorphisms it skips with."""

from __future__ import annotations

from conftest import (
    first_seen_connected_simple_graphs,
    loop_parallel_variants,
    symmetric_graphs,
)
from graphperiod import families
from graphperiod.families import _orbit_representatives, connected_simple_graphs
from graphperiod.graphs import _adjacency, _canonical_search


def _sequence(graphs):
    return [(g.vertex_count, g.endpoints) for g in graphs]


def test_generator_matches_the_first_seen_oracle():
    assert _sequence(connected_simple_graphs(7)) == _sequence(
        first_seen_connected_simple_graphs(7)
    )


def test_generator_without_vertices_yields_nothing():
    assert list(connected_simple_graphs(0)) == []
    assert list(connected_simple_graphs(-3)) == []
    assert _sequence(connected_simple_graphs(1)) == [(1, ())]


def _is_automorphism(loops, adj, gamma):
    n = len(adj)
    if sorted(gamma) != list(range(n)):
        return False
    return all(loops[gamma[v]] == loops[v] for v in range(n)) and all(
        adj[gamma[v]] == {gamma[w]: m for w, m in adj[v].items()} for v in range(n)
    )


def test_every_map_of_the_key_search_is_an_automorphism():
    graphs = [
        variant
        for g in connected_simple_graphs(6)
        for variant in loop_parallel_variants(g)
    ]
    graphs += symmetric_graphs().values()
    found = 0
    for g in graphs:
        loops, adj = _adjacency(g)
        _, maps, twins, _ = _canonical_search(loops, adj)
        for u, v in twins:
            swap = list(range(g.vertex_count))
            swap[u], swap[v] = v, u
            maps.append(swap)
        for gamma in maps:
            assert _is_automorphism(loops, adj, gamma), (g, gamma)
        found += len(maps)
    # hundreds of maps, so the check is not vacuous
    assert found > 500


def test_orbit_skip_keys_few_candidates(monkeypatch):
    keyed = 0
    search = families._canonical_search

    def counting(loops, adj):
        nonlocal keyed
        keyed += 1
        return search(loops, adj)

    monkeypatch.setattr(families, "_canonical_search", counting)
    assert sum(1 for _ in connected_simple_graphs(7)) == 996
    # every nonempty neighbourhood of every parent is 7,815 candidates
    assert keyed <= 4500


def test_orbit_representatives():
    # the symmetric group on three points: one orbit per subset size
    s3 = [(1, 0, 2), (1, 2, 0)]
    assert list(_orbit_representatives(3, s3)) == [0b001, 0b011, 0b111]
    # the reflection of a path on three vertices
    assert list(_orbit_representatives(3, [(2, 1, 0)])) == [1, 2, 3, 5, 7]
    assert list(_orbit_representatives(3, [])) == list(range(1, 8))
