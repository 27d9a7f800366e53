"""Differential tests against an outside oracle: networkx's Tutte and
chromatic polynomials (computed with sympy) and its biconnected
components."""

from __future__ import annotations

import random

import pytest

nx = pytest.importorskip("networkx")
sympy = pytest.importorskip("sympy")

from graphperiod.families import random_multigraph  # noqa: E402
from graphperiod.graphs import MultiGraph, _adjacency, blocks  # noqa: E402
from graphperiod.invariants import (  # noqa: E402
    CHROMATIC_VARS,
    TUTTE_CLASSIC_VARS,
    chromatic_deletion_contraction,
    tutte_deletion_contraction,
)
from graphperiod.polynomials import Polynomial  # noqa: E402

X, Y = sympy.symbols("x y")


def atlas_graphs():
    """The 31 connected graphs of the networkx atlas on 1..5 vertices."""
    out = []
    for h in nx.graph_atlas_g():
        if 0 < h.number_of_nodes() <= 5 and nx.is_connected(h):
            index = {v: i for i, v in enumerate(sorted(h.nodes))}
            edges = tuple((index[u], index[v]) for u, v in h.edges)
            out.append(MultiGraph(h.number_of_nodes(), edges))
    return out


def random_graphs():
    """30 seeded multigraphs on at most 5 vertices and 8 edges, loops and
    parallel edges included."""
    rng = random.Random(20261018)
    return [random_multigraph(rng, max_vertices=5, max_edges=8) for _ in range(30)]


def to_networkx(g: MultiGraph):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.endpoints)
    return h


def from_sympy(expr, symbols, variables) -> Polynomial:
    terms = sympy.Poly(sympy.expand(expr), *symbols).terms()
    return Polynomial(variables, {exps: int(coeff) for exps, coeff in terms})


CASES = [("atlas", g) for g in atlas_graphs()] + [("random", g) for g in random_graphs()]


def test_case_counts():
    assert sum(1 for kind, _ in CASES if kind == "atlas") == 31
    assert any(u == v for _, g in CASES for u, v in g.endpoints)
    assert any(len(set(g.endpoints)) < g.edge_count for _, g in CASES)


@pytest.mark.parametrize("kind,g", CASES, ids=[f"{k}{i}" for i, (k, _) in enumerate(CASES)])
def test_tutte_and_chromatic_match_networkx(kind, g):
    h = to_networkx(g)
    expected_tutte = from_sympy(nx.tutte_polynomial(h), (X, Y), TUTTE_CLASSIC_VARS)
    assert tutte_deletion_contraction(g, cache={}).classic == expected_tutte
    expected_chromatic = from_sympy(nx.chromatic_polynomial(h), (X,), CHROMATIC_VARS)
    assert chromatic_deletion_contraction(g, cache={}) == expected_chromatic


def test_blocks_match_networkx_biconnected_components():
    rng = random.Random(20261019)
    split = 0
    for _ in range(200):
        g = random_multigraph(rng, max_vertices=10, max_edges=20)
        _, adj = _adjacency(g)
        simple = nx.Graph()
        simple.add_nodes_from(range(g.vertex_count))
        simple.add_edges_from((u, v) for u, v in g.endpoints if u != v)
        expected = sorted(sorted(c) for c in nx.biconnected_components(simple))
        assert sorted(blocks(adj)) == expected, g
        split += len(expected) > 1
    assert split
