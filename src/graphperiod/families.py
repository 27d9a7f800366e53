"""Exhaustive and random graph families for sweeps and property tests."""

from __future__ import annotations

import random

from .graphs import MultiGraph, canonical_key


def connected_simple_graphs(max_vertices: int):
    """All connected simple graphs with 1..max_vertices vertices, one
    representative per isomorphism class.

    Grown by vertex augmentation: every connected graph on n vertices is a
    connected graph on n-1 vertices plus a new vertex with a nonempty
    neighborhood, so attaching every nonempty subset and deduplicating by
    canonical form enumerates each class exactly once.
    """
    level = [MultiGraph(1)]
    yield level[0]
    for n in range(2, max_vertices + 1):
        seen = set()
        grown = []
        for g in level:
            base = g.endpoints
            for mask in range(1, 1 << (n - 1)):
                extra = tuple(
                    (v, n - 1) for v in range(n - 1) if mask >> v & 1
                )
                candidate = MultiGraph(n, base + extra)
                key = canonical_key(candidate)
                if key not in seen:
                    seen.add(key)
                    grown.append(candidate)
                    yield candidate
        level = grown


def loop_parallel_variants(g: MultiGraph):
    """The graph itself plus versions with one loop added, one edge doubled,
    and both."""
    yield g
    if g.vertex_count == 0:
        return
    with_loop = MultiGraph(g.vertex_count, g.endpoints + ((0, 0),))
    yield with_loop
    if g.edge_count:
        doubled = MultiGraph(g.vertex_count, g.endpoints + (g.endpoints[0],))
        yield doubled
        yield MultiGraph(g.vertex_count, doubled.endpoints + ((0, 0),))


def random_multigraph(rng: random.Random, max_vertices=5, max_edges=8) -> MultiGraph:
    """Random multigraph with loops and parallel edges allowed."""
    n = rng.randint(1, max_vertices)
    q = rng.randint(0, max_edges)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n)) for _ in range(q)
    )
    return MultiGraph(n, edges)

