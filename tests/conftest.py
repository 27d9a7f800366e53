"""Shared test helpers: independent brute-force oracles and small families."""

from __future__ import annotations

import importlib.util
import random
import re
from itertools import product
from pathlib import Path

import pytest

from graphperiod.graphs import (
    MultiGraph,
    _adjacency,
    _refine,
    canonical_key,
    encoding,
    named_graph,
)
from graphperiod.families import connected_simple_graphs
from graphperiod.invariants import CHROMATIC_VARS, TUTTE_SHIFTED_VARS
from graphperiod.polynomials import ModPolynomial, Polynomial, substitute
from graphperiod.symmetry import (
    Automorphism,
    _free_edge_perm,
    automorphism_from_vertex_perm,
    enumerate_automorphisms,
)


# -- the fixture reader -----------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|([+\-*^])|(\S)", re.UNICODE)


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse the textual polynomial grammar produced by render_terms."""
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}
    width = len(variables)

    tokens = []
    for m in _TOKEN.finditer(text):
        number, name, op, junk = m.groups()
        if junk:
            raise ValueError(f"unexpected character {junk!r} in polynomial")
        if number is not None:
            tokens.append(("int", int(number)))
        elif name is not None:
            tokens.append(("var", name))
        else:
            tokens.append(("op", op))
    tokens.append(("end", None))

    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor(exps):
        kind, value = take()
        if kind == "int":
            return value
        if kind == "var":
            if value not in index:
                raise ValueError(f"unknown variable {value!r}")
            e = 1
            if peek() == ("op", "^"):
                take()
                kind2, value2 = take()
                if kind2 != "int":
                    raise ValueError("expected integer exponent after '^'")
                e = value2
            exps[index[value]] += e
            return 1
        raise ValueError(f"unexpected token {value!r} in term")

    table = {}
    sign = 1
    kind, value = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    while True:
        exps = [0] * width
        coeff = sign * parse_factor(exps)
        while peek() == ("op", "*"):
            take()
            coeff *= parse_factor(exps)
        key = tuple(exps)
        acc = table.get(key, 0) + coeff
        if acc:
            table[key] = acc
        elif key in table:
            del table[key]
        kind, value = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            take()
            sign = -1 if value == "-" else 1
        else:
            raise ValueError(f"expected '+' or '-' before {value!r}")
    return Polynomial(variables, table)


# -- Tutte and chromatic off the 2^q subset expansion -----------------------------


def tutte_from_negami(n) -> Polynomial:
    """Independent T(s, t) from a NegamiPolynomial, by the inverse of the
    exponent relabel in negami_from_tutte: the term u^(w+i) x^(nullity+i-j)
    y^(rank-i+j) of N is the term s^i t^j of T, with rank = r - w."""
    w, rank = n.components, n.vertex_count - n.components
    terms = {}
    for (eu, _, ey), coeff in n.polynomial.terms.items():
        terms[(eu - w, ey - rank + eu - w)] = coeff
    return Polynomial(TUTTE_SHIFTED_VARS, terms)


def chromatic_from_negami(n) -> Polynomial:
    """(-1)^q N(λ, -1, 1): the subset-expansion route to the chromatic
    polynomial (the sign pairs with the keep-Y expansion convention)."""
    lam = Polynomial.variable(CHROMATIC_VARS, "λ")
    value = substitute(n.polynomial, {"u": lam, "x": -1, "y": 1}, CHROMATIC_VARS)
    if n.edge_count % 2:
        value = -value
    return value


# -- test-only generators ---------------------------------------------------------


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
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(q))
    return MultiGraph(n, edges)


# -- small graphs and brute-force oracles -----------------------------------------


def cycle_rotation(p: int):
    """The p-cycle together with its rotation witness (for p = 2 the two
    parallel edges must swap explicitly)."""
    g = named_graph("cycle", p)
    if p == 2:
        return g, Automorphism((1, 0), (1, 0))
    vp = tuple((i + 1) % p for i in range(p))
    return g, automorphism_from_vertex_perm(g, vp)


def _check_edge_id(g: MultiGraph, e: int):
    if not (0 <= e < g.edge_count):
        raise ValueError(f"edge index {e} out of range for {g.edge_count} edges")


def delete_edge_ids(g: MultiGraph, edge_ids) -> MultiGraph:
    """Deletion by edge ids, the route that the oracles and the
    deletion-contraction identities use, independent of the adjacency maps
    of the recursion: g without the listed edges, on the same vertices."""
    drop = set(edge_ids)
    for e in drop:
        _check_edge_id(g, e)
    kept = tuple(pair for i, pair in enumerate(g.endpoints) if i not in drop)
    return MultiGraph(g.vertex_count, kept)


def contract_edge_ids(g: MultiGraph, edge_ids) -> MultiGraph:
    """Contraction by edge ids, independent of the adjacency maps: the
    endpoints within each connected chunk of the listed edges (no loops
    among them) become one vertex, the chunks numbered in the order of their
    smallest vertices, and the listed edges vanish; edges parallel to a
    listed one become loops."""
    selected = set(edge_ids)
    for e in selected:
        _check_edge_id(g, e)
        if g.endpoints[e][0] == g.endpoints[e][1]:
            raise ValueError(f"cannot contract loop edge {e}")
    # each vertex takes the smallest label along the listed edges, repeated
    # until nothing changes
    label = list(range(g.vertex_count))
    changed = True
    while changed:
        changed = False
        for e in selected:
            u, v = g.endpoints[e]
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    new_id = {root: i for i, root in enumerate(sorted(set(label)))}
    kept = tuple(
        (new_id[label[u]], new_id[label[v]])
        for i, (u, v) in enumerate(g.endpoints)
        if i not in selected
    )
    return MultiGraph(len(new_id), kept)


def count_spanning_trees(g: MultiGraph) -> int:
    """Kirchhoff's matrix-tree theorem: the determinant of the Laplacian
    without its last row and column, by Bareiss's fraction-free
    elimination, so every step is exact integer arithmetic.  Loops do not
    enter the Laplacian; k parallel edges enter as k."""
    r = g.vertex_count
    if r == 0:
        return 0
    n = r - 1
    m = [[0] * n for _ in range(n)]
    for u, v in g.endpoints:
        if u == v:
            continue
        for a, b in ((u, v), (v, u)):
            if a < n:
                m[a][a] += 1
                if b < n:
                    m[a][b] -= 1
    sign, pivot = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // pivot
        pivot = m[k][k]
    return sign * pivot


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
        g = delete_edge_ids(g, dupes)
    if g.edge_count == 0:
        return Polynomial.monomial(CHROMATIC_VARS, (g.vertex_count,))
    key = canonical_key(g)
    if key not in memo:
        memo[key] = chromatic_by_own_recursion(
            delete_edge_ids(g, (0,)), memo
        ) - chromatic_by_own_recursion(contract_edge_ids(g, (0,)), memo)
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
    """Independent oracle for canonical_key's pruning: the same refinement
    and leaf encoding on each component, but the search visits every child
    of every node except twins (vertices whose transposition is an
    automorphism), with no automorphisms recorded at leaves and no
    backjumping.  The components' minimum-leaf orders are joined with the
    components sorted by their keys, and a connected graph's key is its
    component's."""
    loops, adj = _adjacency(g)
    unseen = set(range(g.vertex_count))
    parts = []
    while unseen:
        part = {min(unseen)}
        stack = list(part)
        while stack:
            for w in adj[stack.pop()]:
                if w not in part:
                    part.add(w)
                    stack.append(w)
        unseen -= part
        part = sorted(part)
        position = {v: i for i, v in enumerate(part)}
        sub = [{position[w]: m for w, m in adj[v].items()} for v in part]
        key, order = _full_search([loops[v] for v in part], sub)
        parts.append((key, [part[i] for i in order]))
    if len(parts) == 1:
        return parts[0][0]
    parts.sort()
    return encoding(adj, loops, [v for _, order in parts for v in order])


def _full_search(loops, adj):
    """The minimum leaf encoding of the map adj with the given loop counts,
    and its vertex order, over every non-twin child of every node."""
    n = len(adj)
    best = best_order = None

    def swappable(u, v):
        row_u = {x: m for x, m in adj[u].items() if x != v}
        row_v = {x: m for x, m in adj[v].items() if x != u}
        return row_u == row_v

    def search(colors):
        nonlocal best, best_order
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            order = sorted(range(n), key=colors.__getitem__)
            enc = encoding(adj, loops, order)
            if best is None or enc < best:
                best, best_order = enc, order
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
    return best, best_order


def first_seen_connected_simple_graphs(max_vertices: int):
    """Independent oracle for connected_simple_graphs: every nonempty
    neighbourhood of every parent is attached and keyed by canonical_key, and
    the first graph of each class is kept, with no automorphisms used."""
    level = [MultiGraph(1)]
    yield level[0]
    for n in range(2, max_vertices + 1):
        seen = set()
        grown = []
        for g in level:
            for mask in range(1, 1 << (n - 1)):
                extra = tuple((v, n - 1) for v in range(n - 1) if mask >> v & 1)
                candidate = MultiGraph(n, g.endpoints + extra)
                key = canonical_key(candidate)
                if key not in seen:
                    seen.add(key)
                    grown.append(candidate)
                    yield candidate
        level = grown


# -- periodic graphs by construction ---------------------------------------------


def periodic_lift(p: int, lifted: int, fixed: int, edges):
    """(g, h): the Z_p lift g of a quotient multigraph and its free period h
    of order p (Gross & Tucker, "Generating all graph coverings by
    permutation voltage assignments", 1977).

    Quotient vertices 0..lifted-1 are lifted and the ``fixed`` after them
    are fixed; no edge joins two fixed vertices, which h would fix.  Lifted
    u becomes the p vertices (u, i) = u * p + i, i in Z_p, and a fixed
    vertex one vertex after those.  Each quotient edge (u, v, a), with
    voltage a in Z_p, gives the p edges (u, i)(v, i + a), reading (f, i) as
    f for a fixed f: so p loops at f for a loop (f, f, a).
    h sends (u, i) to (u, i + 1) and fixes the fixed vertices.  Its edge
    permutation is ``symmetry._free_edge_perm``'s: the induced one, with
    the loops at a fixed vertex cycled, which the induced one fixes."""

    def vertex(u, i):
        return u * p + i % p if u < lifted else lifted * (p - 1) + u

    endpoints = []
    for u, v, a in edges:
        endpoints += [(vertex(u, i), vertex(v, i + a)) for i in range(p)]
    g = MultiGraph(lifted * p + fixed, tuple(endpoints))
    vp = tuple(vertex(u, i + 1) for u in range(lifted) for i in range(p))
    vp += tuple(range(lifted * p, g.vertex_count))
    return g, Automorphism(vp, _free_edge_perm(g, vp, p))


# -- symmetric graphs, where colour refinement alone leaves large cells --------


def shuffled_copy(g: MultiGraph, rng: random.Random) -> MultiGraph:
    """An isomorphic copy: vertex v becomes vperm[v], edge e moves to
    position eperm[e]."""
    vperm = list(range(g.vertex_count))
    eperm = list(range(g.edge_count))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    endpoints = [None] * g.edge_count
    for e, (u, v) in enumerate(g.endpoints):
        endpoints[eperm[e]] = (vperm[u], vperm[v])
    return MultiGraph(g.vertex_count, tuple(endpoints))


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


def ladder(k: int) -> MultiGraph:
    """The 2 x k grid: two k-vertex paths joined by k rungs."""
    edges = [(v, v + k) for v in range(k)]
    edges += [(v, v + 1) for side in (0, k) for v in range(side, side + k - 1)]
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
        "heawood": named_graph("heawood"),
        "Q4": hypercube(4),
        "K3,3": complete_bipartite(3, 3),
        "K4,4": complete_bipartite(4, 4),
        "dodecahedron": named_graph("dodecahedron"),
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


# -- the documented scripts -----------------------------------------------------


SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "periodicity_survey.py"


def periodicity_survey():
    """scripts/periodicity_survey.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("periodicity_survey", SURVEY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
