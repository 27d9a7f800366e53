"""Ground-truth symmetry oracle: automorphism enumeration, free-period
search, orbits and quotient graphs.

An automorphism of a multigraph is a compatible pair of permutations (one of
vertices, one of edges).  On simple graphs the edge permutation is forced by
the vertex permutation; with parallel edges several edge permutations may be
compatible and a fixed-point-free action may need a nontrivial one, so the
free-period search reasons about parallel classes explicitly.

A graph has a free period of prime order p when some automorphism h satisfies
h^p = identity, h != identity, and the edge permutation has no fixed point
(an edge whose endpoints are swapped but which maps to itself counts as
fixed).  The quotient graph identifies each vertex orbit and each edge orbit
of <h> to a single vertex/edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import MultiGraph, _adjacency, _refine
from .polynomials import is_prime

DEFAULT_VERTEX_LIMIT = 32


class OracleLimitError(ValueError):
    """Graph too large for exhaustive automorphism search."""


class NotAFreePeriodError(ValueError):
    """The supplied automorphism is not a fixed-point-free prime action."""


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = perm[v]
        out.append(tuple(cycle))
    return tuple(out)


@dataclass(frozen=True)
class Automorphism:
    vertex_perm: tuple
    edge_perm: tuple

    def __post_init__(self):
        for name, perm in (("vertex", self.vertex_perm), ("edge", self.edge_perm)):
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"{name}_perm is not a permutation")

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.vertex_perm)) and all(
            i == e for i, e in enumerate(self.edge_perm)
        )

    def order(self) -> int:
        n = 1
        for cycle in _cycles(self.vertex_perm) + _cycles(self.edge_perm):
            n = math.lcm(n, len(cycle))
        return n

    def fixes_an_edge(self) -> bool:
        return any(i == e for i, e in enumerate(self.edge_perm))

    def to_dict(self) -> dict:
        return {
            "vertex_perm": list(self.vertex_perm),
            "edge_perm": list(self.edge_perm),
        }


def validate_automorphism(g: MultiGraph, h: Automorphism):
    """Raise ValueError unless h is incidence-compatible with g."""
    if len(h.vertex_perm) != g.vertex_count or len(h.edge_perm) != g.edge_count:
        raise ValueError("permutation sizes do not match the graph")
    vp = h.vertex_perm
    for e, (u, v) in enumerate(g.endpoints):
        image = g.endpoints[h.edge_perm[e]]
        mapped = (vp[u], vp[v]) if vp[u] <= vp[v] else (vp[v], vp[u])
        if image != mapped:
            raise ValueError(
                f"edge {e} maps to edge {h.edge_perm[e]} with endpoints {image}, "
                f"expected {mapped}"
            )


def _parallel_classes(g: MultiGraph):
    classes: dict = {}
    for e, pair in enumerate(g.endpoints):
        classes.setdefault(pair, []).append(e)
    return classes


def _induced_edge_perm(g: MultiGraph, vp) -> tuple:
    """The canonical edge permutation induced by a vertex automorphism:
    parallel edges map in ascending id order."""
    classes = _parallel_classes(g)
    ep = [0] * g.edge_count
    for (u, v), members in classes.items():
        a, b = vp[u], vp[v]
        image = classes.get((a, b) if a <= b else (b, a))
        if image is None or len(image) != len(members):
            raise ValueError("vertex permutation is not an automorphism")
        for src, dst in zip(members, image):
            ep[src] = dst
    return tuple(ep)


def automorphism_from_vertex_perm(g: MultiGraph, vertex_perm) -> Automorphism:
    """Pair a vertex automorphism with its canonical compatible edge
    permutation; raises ValueError if the vertex map is not an automorphism."""
    vp = tuple(vertex_perm)
    if sorted(vp) != list(range(g.vertex_count)):
        raise ValueError("vertex_perm is not a permutation of the vertices")
    h = Automorphism(vp, _induced_edge_perm(g, vp))
    validate_automorphism(g, h)
    return h


def _vertex_automorphisms(g: MultiGraph):
    """All vertex permutations preserving loop counts and adjacency
    multiplicities, by backtracking over a BFS vertex order with refined
    color classes as candidate sets."""
    n = g.vertex_count
    if n == 0:
        yield ()
        return
    loops, adj = _adjacency(g)
    colors = _refine(n, adj, loops, [0] * n)

    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)

    candidates = [
        [w for w in range(n) if colors[w] == colors[v] and loops[w] == loops[v]]
        for v in range(n)
    ]
    image = [-1] * n
    used = [False] * n

    def extend(k):
        if k == len(order):
            yield tuple(image)
            return
        v = order[k]
        row = adj[v]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for prev in order[:k]:
                if row.get(prev, 0) != adj[w].get(image[prev], 0):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used[w] = True
            yield from extend(k + 1)
            used[w] = False
            image[v] = -1

    yield from extend(0)


def enumerate_automorphisms(g: MultiGraph, *, limit=DEFAULT_VERTEX_LIMIT):
    """Complete automorphism list, each vertex permutation paired with the
    canonical edge permutation, sorted by vertex permutation."""
    if g.vertex_count > limit:
        raise OracleLimitError(
            f"{g.vertex_count} vertices exceeds the oracle limit of {limit}"
        )
    perms = sorted(_vertex_automorphisms(g))
    return [Automorphism(vp, _induced_edge_perm(g, vp)) for vp in perms]


def _free_edge_perm(g: MultiGraph, vp, p):
    """A compatible fixed-point-free edge permutation ep with ep^p = id for a
    vertex automorphism satisfying vp^p = id, or None.

    Parallel classes are permuted by vp in orbits of size 1 or p.  Within a
    p-orbit, mapping ascending ids to ascending ids around the orbit closes
    up after p steps; a fixed class must have multiplicity divisible by p and
    is cycled in blocks of p.
    """
    classes = _parallel_classes(g)
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


def find_free_period(g: MultiGraph, p: int, *, limit=DEFAULT_VERTEX_LIMIT):
    """First automorphism (in vertex-lexicographic order) of order exactly p
    whose edge permutation has no fixed point, or None.

    The identity vertex permutation is considered too: parallel classes of
    multiplicity divisible by p admit a free edge action on their own.
    """
    if not is_prime(p):
        raise ValueError(f"period must be prime, got {p}")
    identity_v = tuple(range(g.vertex_count))
    for h in enumerate_automorphisms(g, limit=limit):
        vp = h.vertex_perm
        # vp^p = id exactly when every cycle has length 1 or p
        if any(len(c) not in (1, p) for c in _cycles(vp)):
            continue
        if vp == identity_v and g.edge_count == 0:
            continue  # the identity pair has order 1, not p
        ep = _free_edge_perm(g, vp, p)
        if ep is None:
            continue
        return Automorphism(vp, ep)
    return None


def orbits(g: MultiGraph, h: Automorphism):
    """Vertex and edge orbit partitions under the cyclic group generated by
    h, each orbit ascending, orbits ordered by smallest member."""
    validate_automorphism(g, h)
    vertex_orbits = tuple(
        tuple(sorted(c)) for c in sorted(_cycles(h.vertex_perm), key=min)
    )
    edge_orbits = tuple(
        tuple(sorted(c)) for c in sorted(_cycles(h.edge_perm), key=min)
    )
    return vertex_orbits, edge_orbits


@dataclass(frozen=True)
class QuotientMap:
    vertex_orbits: tuple
    edge_orbits: tuple
    quotient: MultiGraph
    vertex_projection: tuple
    edge_projection: tuple


def validate_free_period(g: MultiGraph, h: Automorphism, p: int):
    """Raise NotAFreePeriodError unless h witnesses a free period of order p."""
    if not is_prime(p):
        raise ValueError(f"period must be prime, got {p}")
    try:
        validate_automorphism(g, h)
    except ValueError as exc:
        raise NotAFreePeriodError(str(exc)) from None
    if h.order() != p:
        raise NotAFreePeriodError(
            f"automorphism has order {h.order()}, expected {p}"
        )
    if g.edge_count and h.fixes_an_edge():
        fixed = [e for e, img in enumerate(h.edge_perm) if e == img]
        raise NotAFreePeriodError(f"automorphism fixes edges {fixed}")


def quotient_graph(g: MultiGraph, h: Automorphism) -> QuotientMap:
    """Quotient by a free prime-order action: one vertex per vertex orbit,
    one edge per edge orbit, endpoints projected; loops appear when an
    edge orbit joins a single vertex orbit.  Asserts q = p * q_bar."""
    p = h.order()
    validate_free_period(g, h, p)
    vertex_orbits, edge_orbits = orbits(g, h)
    v_class = [0] * g.vertex_count
    for i, orbit in enumerate(vertex_orbits):
        for v in orbit:
            v_class[v] = i
    e_class = [0] * g.edge_count
    quotient_edges = []
    for i, orbit in enumerate(edge_orbits):
        if g.edge_count and len(orbit) != p:
            raise NotAFreePeriodError(
                f"edge orbit {orbit} has size {len(orbit)}, expected {p}"
            )
        for e in orbit:
            e_class[e] = i
        u, v = g.endpoints[orbit[0]]
        quotient_edges.append((v_class[u], v_class[v]))
    quotient = MultiGraph(len(vertex_orbits), tuple(quotient_edges))
    assert g.edge_count == p * quotient.edge_count
    return QuotientMap(
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        quotient=quotient,
        vertex_projection=tuple(v_class),
        edge_projection=tuple(e_class),
    )
