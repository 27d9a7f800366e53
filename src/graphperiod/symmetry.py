"""Ground-truth symmetry oracle: automorphism enumeration, free-period
search, orbits and quotient graphs.

Both searches run on one backtracking routine.  It places vertices 0, 1,
... in order, each on an unplaced vertex of its colour, so automorphisms
come out in vertex-lexicographic order.  After each placement it refines
the colours with the individualise-and-refine step of the canonical search
(``graphs._individualise``; McKay & Piperno, "Practical graph isomorphism,
II", J. Symbolic Comput. 60, 2014).  The free-period search also cuts every
branch that cannot extend to a free action of order p, and stops at the
first witness.  The routine gives up with OracleLimitError above a vertex
limit and after SEARCH_NODE_BUDGET nodes.

An automorphism of a multigraph is a compatible pair of permutations (one of
vertices, one of edges).  With parallel edges several edge permutations may
be compatible and a fixed-point-free action may need a nontrivial one, so
the free-period search reasons about parallel classes explicitly.

A graph has a free period of prime order p when some automorphism h satisfies
h^p = identity, h != identity, and the edge permutation has no fixed point
(an edge whose endpoints are swapped but which maps to itself counts as
fixed).  The quotient graph identifies each vertex orbit and each edge orbit
of <h> to a single vertex/edge.
"""

from __future__ import annotations

import functools
import math
from operator import index

from .graphs import Frozen, MultiGraph, _adjacency, _individualise, _refine
from .polynomials import require_prime

DEFAULT_VERTEX_LIMIT = 32
SEARCH_NODE_BUDGET = 200_000


class OracleLimitError(ValueError):
    """Graph above the vertex limit, or search past the node budget."""


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


class Automorphism(Frozen):
    _fields = ("vertex_perm", "edge_perm")

    def __init__(self, vertex_perm: tuple, edge_perm: tuple):
        for name, perm in (("vertex_perm", vertex_perm), ("edge_perm", edge_perm)):
            # operator.index refuses floats, which sort like ints but fail
            # later as list indices
            try:
                perm = tuple(map(index, perm))
            except TypeError:
                perm = None
            if perm is None or sorted(perm) != list(range(len(perm))):
                raise ValueError(f"{name} is not a permutation")
            object.__setattr__(self, name, perm)

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


def _edge_index(g: MultiGraph):
    """(edges, classes) for inducing edge permutations: each edge as (u, v,
    its rank in its parallel class), and both orientations of every joined
    pair mapped to the class's ascending edge ids."""
    classes: dict = {}
    for e, pair in enumerate(g.endpoints):
        classes.setdefault(pair, []).append(e)
    edges = [None] * g.edge_count
    for (u, v), members in list(classes.items()):
        classes[v, u] = members
        for rank, e in enumerate(members):
            edges[e] = (u, v, rank)
    return edges, classes


def _induced_edge_perm(edge_index, vp) -> tuple:
    """The canonical edge permutation induced by a vertex automorphism:
    parallel edges map in ascending id order."""
    edges, classes = edge_index
    return tuple([classes[vp[u], vp[v]][rank] for u, v, rank in edges])


def automorphism_from_vertex_perm(g: MultiGraph, vertex_perm) -> Automorphism:
    """Pair a vertex automorphism with its canonical compatible edge
    permutation; raises ValueError if the vertex map is not an automorphism."""
    vp = tuple(vertex_perm)
    if sorted(vp) != list(range(g.vertex_count)):
        raise ValueError("vertex_perm is not a permutation of the vertices")
    edges, classes = _edge_index(g)
    for (u, v), members in classes.items():
        if len(classes.get((vp[u], vp[v]), ())) != len(members):
            raise ValueError("vertex permutation is not an automorphism")
    h = Automorphism(vp, _induced_edge_perm((edges, classes), vp))
    validate_automorphism(g, h)
    return h


def _require_within(g: MultiGraph, limit):
    """Raise OracleLimitError when g has more than ``limit`` vertices."""
    if g.vertex_count > limit:
        raise OracleLimitError(f"{g.vertex_count} vertices exceed the limit of {limit}")


@functools.lru_cache(maxsize=1)
def _search_root(g: MultiGraph):
    """(loops, adj, cells, levels, first): the graph's loop counts and
    adjacency multiplicities, each vertex's refined colour cell, and the
    domain colourings and image cache of ``_vertex_automorphisms``, which
    every search on g extends and shares.

    The root depends only on g's vertex count and endpoints, so it is kept
    for the last graph: the primes of one ``exclusion_report``, and any
    later search on an equal graph, share what earlier searches added.
    """
    n = g.vertex_count
    loops, adj = _adjacency(g)
    levels = [_refine(n, adj, loops, [0] * n)]
    cells: dict = {}
    for v, c in enumerate(levels[0]):
        cells.setdefault(c, []).append(v)
    return loops, adj, [cells[c] for c in levels[0]], levels, {}


def _vertex_automorphisms(root, *, period=None):
    """Vertex permutations preserving loop counts and adjacency
    multiplicities, in vertex-lexicographic order, by backtracking from
    the search root ``root`` of a graph (see ``_search_root``).

    Vertex k is placed on the unplaced vertices of its colour in its root
    cell, ascending, that keep its multiplicities to 0..k-1.  The domain
    colouring ``levels[k]`` has 0..k-1 individualised and refined in turn,
    the image colouring their images; the colours are label-free, so a
    placement after which the two sort differently is cut.  Where
    individualising k splits off only k, neither side is split: on a
    branch that extends, the image side splits off only the image.
    ``first`` keeps the image side's split of the root colouring for every
    search on the root.  The root outlives the search, so each is extended
    only with finished entries: a search stopped by the budget or an
    interrupt leaves it whole.

    With a prime ``period`` p every branch that cannot extend to a free
    action of order p is cut as well, and the search yields nothing when
    the root cells rule the period out (see ``_period_step``).

    Raises OracleLimitError once the search visits more than
    SEARCH_NODE_BUDGET nodes.
    """
    loops, adj, cells, levels, first = root
    n = len(loops)
    image, preimage = [-1] * n, [-1] * n
    step = period and _period_step(period, loops, adj, cells, image, preimage)
    if period and step is None:
        return  # the root cells rule the period out
    budget = SEARCH_NODE_BUDGET
    nodes = 0

    def extend(k, colors):
        nonlocal nodes
        if k == n:
            yield tuple(image)
            return
        here = levels[k]
        row = adj[k]
        if len(levels) == k + 1:
            # individualising k splits off more than k exactly when two
            # vertices of one colour differ in their multiplicity to k
            to_k = {}
            deeper = here
            for x, c in enumerate(here):
                if x != k and to_k.setdefault(c, row.get(x, 0)) != row.get(x, 0):
                    deeper = _individualise(adj, loops, here, k)
                    break
            levels.append(deeper)
        # both sides refine the root colouring, monotone in its colours,
        # and sort alike, so a vertex of k's colour lies in k's root cell
        for w in cells[k]:
            if colors[w] != here[k] or preimage[w] != -1:
                continue
            row_w = adj[w]
            ok = True
            for u in range(k):
                if row.get(u, 0) != row_w.get(image[u], 0):
                    ok = False
                    break
            if not ok:
                continue
            nodes += 1
            if nodes > budget:
                raise OracleLimitError(f"search budget of {budget} nodes exceeded")
            image[k] = w
            preimage[w] = k
            split = colors
            if step is None or step(k, w):
                if levels[k + 1] is not here:
                    split = first.get(w) if colors is levels[0] else None
                    if split is None:
                        split = _individualise(adj, loops, colors, w)
                        if colors is levels[0]:
                            first[w] = split
                if split is colors or sorted(split) == sorted(levels[k + 1]):
                    yield from extend(k + 1, split)
            preimage[w] = -1
            image[k] = -1

    yield from extend(0, levels[0])


def enumerate_automorphisms(g: MultiGraph, *, limit=DEFAULT_VERTEX_LIMIT):
    """Complete automorphism list, each vertex permutation paired with the
    canonical edge permutation, sorted by vertex permutation."""
    _require_within(g, limit)
    edge_index = _edge_index(g)
    vertex_perms = list(_vertex_automorphisms(_search_root(g)))
    return [Automorphism(vp, _induced_edge_perm(edge_index, vp)) for vp in vertex_perms]


def _free_edge_perm(g: MultiGraph, vp, p):
    """A compatible fixed-point-free edge permutation ep with ep^p = id for a
    vertex automorphism satisfying vp^p = id, or None.

    The induced permutation maps each parallel class onto its image class in
    ascending id order, so on classes that vp moves (in orbits of size p) it
    closes up after p steps.  It fixes every edge of a class that vp maps
    onto itself; such a class must have multiplicity divisible by p and is
    cycled in blocks of p instead.
    """
    edges, classes = edge_index = _edge_index(g)
    ep = list(_induced_edge_perm(edge_index, vp))
    for e, (u, v, rank) in enumerate(edges):
        if rank == 0 and ep[e] == e:
            members = classes[u, v]
            if len(members) % p:
                return None
            for base in range(0, len(members), p):
                block = members[base : base + p]
                for i, f in enumerate(block):
                    ep[f] = block[(i + 1) % p]
    return tuple(ep)


def _period_step(p, loops, adj, cell_of, image, preimage):
    """The pruning step ``step(v, w)`` of the free-period search at prime p,
    over the search's own adjacency, colour cells (``cell_of[v]`` is the
    cell of v) and partial map; it is called after v is mapped to w and
    returns False to cut the branch.  A branch dies as soon as it cannot
    extend to an h with h^p = id whose fixed edge classes all have
    multiplicity divisible by p:

    * the cycle through the new arrow closes with a length other than 1 or
      p, or the open chain through it has more than p vertices;
    * a newly fixed vertex carries a loop class, or joins a fixed vertex by
      an edge class, of multiplicity not divisible by p; a vertex alone in
      its root cell counts as fixed, since every automorphism fixes it; at
      p = 2 the new arrow v -> w fixes the class {v, w} (w must map back
      to v);
    * the refined colour cell of v, a union of <h>-orbits, cannot be
      completed: its open chains need more vertices than it has left
      unplaced, or the fixed vertices it still needs (its size minus its
      fixed vertices is divisible by p) outnumber the unplaced vertices
      that could still be fixed.

    Returns None instead when some root cell cannot be completed with
    nothing placed.  There a vertex can be fixed only if its degree is
    divisible by p as well: its edges to other vertices form <h>-orbits of
    p edges.  The search itself leaves the degree out: measured, it saves
    little there and makes searches on long cycles run far longer.
    """
    # a vertex alone in its root cell is fixed by every automorphism
    fixable_at_root = [
        loops[x] % p == 0
        and all(m % p == 0 for y, m in adj[x].items() if len(cell_of[y]) == 1)
        for x in range(len(loops))
    ]

    def fixable(x):
        # x may be fixed beside the vertices fixed so far
        return fixable_at_root[x] and all(
            m % p == 0 for y, m in adj[x].items() if image[y] == y
        )

    def step(v, w):
        if w == v:
            if not fixable(v):
                return False
        elif p == 2 and adj[v].get(w, 0) % 2:
            return False
        # the cycle, or the open chain, through the arrow v -> w
        length, x = 1, w
        while x != v and x != -1:
            length += 1
            x = image[x]
        if x == v:
            if length != 1 and length != p:
                return False
        else:
            x = preimage[v]
            while x != -1:
                length += 1
                x = preimage[x]
            if length > p:
                return False
        return completes(cell_of[v], fixable)

    def completes(cell, can_fix):
        fixed = unplaced = 0
        for x in cell:
            if image[x] == x:
                fixed += 1
            elif image[x] == -1 and preimage[x] == -1:
                unplaced += 1
        # the moved vertices end on p-cycles, so the open chains need
        # (-moved) mod p unplaced vertices, and (|cell| - fixed) mod p
        # unplaced vertices must end fixed
        if unplaced < (fixed + unplaced - len(cell)) % p:
            return False
        need = (len(cell) - fixed) % p
        if need:
            free = [
                x for x in cell
                if image[x] == -1 and preimage[x] == -1 and can_fix(x)
            ]
            if len(free) < need:
                return False
        return True

    def fixable_alone(x):
        return fixable_at_root[x] and sum(adj[x].values()) % p == 0

    roots = [cell for v, cell in enumerate(cell_of) if cell[0] == v]
    return step if all(completes(cell, fixable_alone) for cell in roots) else None


def find_free_period(g: MultiGraph, p: int, *, limit=DEFAULT_VERTEX_LIMIT):
    """First automorphism (in vertex-lexicographic order) of order exactly p
    whose edge permutation has no fixed point, or None.

    The search stops at its first map, which is a witness: it cuts every
    map that fixes an edge class of multiplicity not divisible by p, and
    ``_free_edge_perm`` cycles the others, even under the identity.  Only
    the identity of an edgeless graph is skipped.

    Raises OracleLimitError above ``limit`` vertices, at every prime p.
    Every edge orbit of a free action has p edges, so the answer is None
    without a search when p does not divide the edge count, and when a
    root colour cell, a union of vertex orbits, cannot be made of orbits
    of sizes 1 and p (see ``_period_step``).  The search root is kept for
    the last graph (see ``_search_root``).
    """
    p = require_prime(p, "period")
    _require_within(g, limit)
    if g.edge_count % p:
        return None  # every edge orbit of a free action has p edges
    identity_v = tuple(range(g.vertex_count))
    for vp in _vertex_automorphisms(_search_root(g), period=p):
        if vp != identity_v or g.edge_count:  # the identity pair has order 1
            return Automorphism(vp, _free_edge_perm(g, vp, p))
    return None


def _orbit_partition(perm):
    # _cycles starts each cycle at its smallest vertex, in ascending order
    return tuple(tuple(sorted(c)) for c in _cycles(perm))


def orbits(g: MultiGraph, h: Automorphism):
    """Vertex and edge orbit partitions under the cyclic group generated by
    h, each orbit ascending, orbits ordered by smallest member."""
    validate_automorphism(g, h)
    return _orbit_partition(h.vertex_perm), _orbit_partition(h.edge_perm)


class QuotientMap(Frozen):
    _fields = (
        "vertex_orbits", "edge_orbits", "quotient", "vertex_projection", "edge_projection"
    )

    def __init__(
        self,
        vertex_orbits: tuple,
        edge_orbits: tuple,
        quotient: MultiGraph,
        vertex_projection: tuple,
        edge_projection: tuple,
    ):
        object.__setattr__(self, "vertex_orbits", vertex_orbits)
        object.__setattr__(self, "edge_orbits", edge_orbits)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "vertex_projection", vertex_projection)
        object.__setattr__(self, "edge_projection", edge_projection)


def validate_free_period(g: MultiGraph, h: Automorphism, p: int):
    """Raise NotAFreePeriodError unless h witnesses a free period of order p."""
    p = require_prime(p, "period")
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
    edge orbit joins a single vertex orbit.  Every edge orbit has p edges,
    since p is prime and no edge is fixed, so q = p * q_bar."""
    validate_free_period(g, h, h.order())
    vertex_orbits = _orbit_partition(h.vertex_perm)
    edge_orbits = _orbit_partition(h.edge_perm)
    v_class = [0] * g.vertex_count
    for i, orbit in enumerate(vertex_orbits):
        for v in orbit:
            v_class[v] = i
    e_class = [0] * g.edge_count
    quotient_edges = []
    for i, orbit in enumerate(edge_orbits):
        for e in orbit:
            e_class[e] = i
        u, v = g.endpoints[orbit[0]]
        quotient_edges.append((v_class[u], v_class[v]))
    return QuotientMap(
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        quotient=MultiGraph(len(vertex_orbits), tuple(quotient_edges)),
        vertex_projection=tuple(v_class),
        edge_projection=tuple(e_class),
    )
