"""Shared test helpers: independent brute-force oracles and small families."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from graphperiod.graphs import (
    MultiGraph,
    canonical_key,
    contract_edge,
    delete_edge,
    delete_edges,
    named_graph,
    spanning_subgraph_components,
)
from graphperiod.families import (
    connected_simple_graphs,
    loop_parallel_variants,
    random_multigraph,
)
from graphperiod.invariants import CHROMATIC_VARS
from graphperiod.polynomials import ModPolynomial, Polynomial
from graphperiod.symmetry import (
    Automorphism,
    automorphism_from_vertex_perm,
    enumerate_automorphisms,
)


def cycle_rotation(p: int):
    """The p-cycle together with its rotation witness (for p = 2 the two
    parallel edges must swap explicitly)."""
    g = named_graph("cycle", p)
    if p == 2:
        return g, Automorphism((1, 0), (1, 0))
    vp = tuple((i + 1) % p for i in range(p))
    return g, automorphism_from_vertex_perm(g, vp)


def count_spanning_trees(g: MultiGraph) -> int:
    """Brute force: subsets of r-1 edges whose spanning subgraph is connected."""
    r, q = g.vertex_count, g.edge_count
    if r == 0:
        return 0
    total = 0
    for subset in combinations(range(q), r - 1):
        if spanning_subgraph_components(g, subset) == 1:
            total += 1
    return total


def count_proper_colorings(g: MultiGraph, colors: int) -> int:
    """Brute force over all color assignments."""
    total = 0
    for assignment in product(range(colors), repeat=g.vertex_count):
        if all(assignment[u] != assignment[v] for u, v in g.endpoints):
            total += 1
    return total


def chromatic_by_own_recursion(g: MultiGraph, memo=None) -> Polynomial:
    """Independent oracle: P(G) = P(G-e) - P(G/e) straight on the chromatic
    polynomial, P(edgeless on n) = λ^n, a loop gives 0 and parallel edges
    collapse; memoized on the canonical form, with no block split."""
    memo = {} if memo is None else memo
    if any(u == v for u, v in g.endpoints):
        return Polynomial.zero(CHROMATIC_VARS)
    seen = set()
    dupes = [e for e, pair in enumerate(g.endpoints) if pair in seen or seen.add(pair)]
    if dupes:
        g = delete_edges(g, dupes)
    if g.edge_count == 0:
        return Polynomial.monomial(CHROMATIC_VARS, (g.vertex_count,))
    key = canonical_key(g)
    if key not in memo:
        memo[key] = chromatic_by_own_recursion(
            delete_edge(g, 0), memo
        ) - chromatic_by_own_recursion(contract_edge(g, 0), memo)
    return memo[key]


def power_by_multiplication(a: ModPolynomial, k: int, fold_names) -> ModPolynomial:
    """Independent oracle for power_mod: a**k by k - 1 multiplications,
    folding the listed variables after each one."""
    fold_names = tuple(fold_names)
    result = a.fold(fold_names)
    for _ in range(k - 1):
        result = (result * a).fold(fold_names)
    return result


def free_edge_perm_by_class_orbits(g: MultiGraph, vp, p):
    """Independent oracle for symmetry._free_edge_perm: a compatible
    fixed-point-free edge permutation ep with ep^p = id for a vertex
    automorphism satisfying vp^p = id, or None, built by walking the orbit of
    each parallel class.

    Parallel classes are permuted by vp in orbits of size 1 or p.  Within a
    p-orbit, mapping ascending ids to ascending ids around the orbit closes
    up after p steps; a fixed class must have multiplicity divisible by p and
    is cycled in blocks of p.
    """
    classes: dict = {}
    for e, pair in enumerate(g.endpoints):
        classes.setdefault(pair, []).append(e)
    ep = [0] * g.edge_count
    visited = set()
    for start in sorted(classes):
        if start in visited:
            continue
        orbit = [start]
        a, b = start
        while True:
            na, nb = vp[a], vp[b]
            nxt = (na, nb) if na <= nb else (nb, na)
            if nxt == start:
                break
            orbit.append(nxt)
            a, b = nxt
        visited.update(orbit)
        if len(orbit) == 1:
            members = classes[start]
            if len(members) % p != 0:
                return None
            for base in range(0, len(members), p):
                block = members[base : base + p]
                for i, e in enumerate(block):
                    ep[e] = block[(i + 1) % p]
        else:
            if len(orbit) != p:
                return None
            for i in range(p):
                src = classes[orbit[i]]
                dst = classes[orbit[(i + 1) % p]]
                if len(src) != len(dst):
                    return None
                for e_src, e_dst in zip(src, dst):
                    ep[e_src] = e_dst
    return tuple(ep)


def free_period_by_enumeration(g: MultiGraph, p: int):
    """Independent oracle for find_free_period: walk the whole sorted
    automorphism list and return the first h with h^p = id (vertex part),
    other than the identity of an edgeless graph, that admits a free edge
    action; None if there is none."""
    n = g.vertex_count
    identity_v = tuple(range(n))
    for h in enumerate_automorphisms(g):
        vp = h.vertex_perm
        power = identity_v
        for _ in range(p):
            power = tuple(vp[v] for v in power)
        if power != identity_v:
            continue
        if vp == identity_v and g.edge_count == 0:
            continue
        ep = free_edge_perm_by_class_orbits(g, vp, p)
        if ep is not None:
            return Automorphism(vp, ep)
    return None


def girth(g: MultiGraph) -> int:
    """Shortest cycle length; loops count 1, parallel pairs 2; 0 if acyclic."""
    if any(u == v for u, v in g.endpoints):
        return 1
    seen = set()
    for pair in g.endpoints:
        if pair in seen:
            return 2
        seen.add(pair)
    best = 0
    adj = [[] for _ in range(g.vertex_count)]
    for u, v in g.endpoints:
        adj[u].append(v)
        adj[v].append(u)
    for src in range(g.vertex_count):
        dist = {src: 0}
        parent = {src: -1}
        queue = [src]
        while queue:
            v = queue.pop(0)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    length = dist[v] + dist[w] + 1
                    if best == 0 or length < best:
                        best = length
    return best


@pytest.fixture(scope="session")
def route_family():
    """Connected simple graphs on <= 5 vertices, their loop/parallel
    variants capped at 8 edges, plus 20 seeded random multigraphs."""
    graphs = []
    for g in connected_simple_graphs(5):
        for variant in loop_parallel_variants(g):
            if variant.edge_count <= 8:
                graphs.append(variant)
    rng = random.Random(20240901)
    for _ in range(20):
        graphs.append(random_multigraph(rng, max_vertices=5, max_edges=8))
    return graphs


@pytest.fixture(scope="session")
def small_connected_family():
    return list(connected_simple_graphs(5))
