"""Shared test helpers: independent brute-force oracles and small families."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from graphperiod.graphs import (
    MultiGraph,
    _adjacency,
    _refine,
    canonical_key,
    component_count,
    component_subgraphs,
    contract_edges,
    delete_edges,
    named_graph,
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
        if component_count(delete_edges(g, set(range(q)) - set(subset))) == 1:
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
            delete_edges(g, (0,)), memo
        ) - chromatic_by_own_recursion(contract_edges(g, (0,)), memo)
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


def canonical_key_by_full_search(g: MultiGraph) -> bytes:
    """Independent oracle for canonical_key: the same refinement and
    minimum leaf encoding, but the search visits every child of every node
    except twins (vertices whose transposition is an automorphism), with no
    automorphisms recorded at leaves and no backjumping."""
    return repr(
        sorted(_full_search_encoding(c) for c in component_subgraphs(g))
    ).encode()


def _full_search_encoding(g: MultiGraph):
    n = g.vertex_count
    loops, adj = _adjacency(g)
    best = None

    def encode(colors):
        order = sorted(range(n), key=colors.__getitem__)
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        loops_vec = tuple(loops[v] for v in order)
        rows = []
        for v in order:
            iv = position[v]
            for u, mult in adj[v].items():
                iu = position[u]
                if iv < iu:
                    rows.append((iv, iu, mult))
        rows.sort()
        return (n, loops_vec, tuple(rows))

    def swappable(u, v):
        row_u = {x: m for x, m in adj[u].items() if x != v}
        row_v = {x: m for x, m in adj[v].items() if x != u}
        return row_u == row_v

    def search(colors):
        nonlocal best
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            enc = encode(colors)
            if best is None or enc < best:
                best = enc
            return
        skip = set()
        for i, v in enumerate(target):
            if v in skip:
                continue
            for w in target[i + 1 :]:
                if w not in skip and swappable(v, w):
                    skip.add(w)
            split = [c * 2 + 1 for c in colors]
            split[v] -= 1
            search(_refine(n, adj, loops, split))

    search(_refine(n, adj, loops, [0] * n))
    return best


# -- symmetric graphs, where colour refinement alone leaves large cells --------


def lcf_graph(n: int, pattern) -> MultiGraph:
    """Hamiltonian cubic graph from LCF notation."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((min(i, j), max(i, j)))
    return MultiGraph(n, tuple(sorted(edges)))


def dodecahedron() -> MultiGraph:
    return lcf_graph(20, (10, 7, 4, -4, -7, 10, -4, 7, -7, 4))


def hypercube(d: int) -> MultiGraph:
    return MultiGraph(
        1 << d,
        tuple((v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1),
    )


def complete_bipartite(m: int, n: int) -> MultiGraph:
    return MultiGraph(m + n, tuple((i, m + j) for i in range(m) for j in range(n)))


def prism(k: int) -> MultiGraph:
    """Two k-cycles joined by a perfect matching."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return MultiGraph(2 * k, tuple(edges))


def cayley_z4z4(steps) -> MultiGraph:
    """Cayley graph of Z4 x Z4 for a generating set closed under negation."""
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in steps:
                u, v = 4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4
                edges.add((min(u, v), max(u, v)))
    return MultiGraph(16, tuple(sorted(edges)))


def rook_4x4() -> MultiGraph:
    """K4 x K4, strongly regular with parameters (16, 6, 2, 2)."""
    return cayley_z4z4([(0, d) for d in (1, 2, 3)] + [(d, 0) for d in (1, 2, 3)])


def shrikhande() -> MultiGraph:
    """The other strongly regular graph with parameters (16, 6, 2, 2)."""
    return cayley_z4z4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])


def random_cubic(rng: random.Random, n: int) -> MultiGraph:
    """A random simple cubic graph on n (even) vertices, by the pairing
    model with rejection."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = {tuple(sorted(ends[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return MultiGraph(n, tuple(sorted(pairs)))


def symmetric_graphs() -> dict:
    """Vertex-transitive graphs on which refinement splits nothing."""
    return {
        "petersen": named_graph("petersen"),
        "heawood": lcf_graph(14, (5, -5)),
        "Q4": hypercube(4),
        "K3,3": complete_bipartite(3, 3),
        "K4,4": complete_bipartite(4, 4),
        "dodecahedron": dodecahedron(),
        "rook4x4": rook_4x4(),
        "shrikhande": shrikhande(),
    }


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
