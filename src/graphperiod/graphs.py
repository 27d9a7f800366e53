"""Finite multigraphs (loops and parallel edges allowed), their adjacency
maps, and the structural operations that deletion-contraction invariants
consume.

Vertices are dense ints 0..vertex_count-1; edges are dense ints identified by
their position in ``endpoints``.  Parallel edges are distinct edge ids sharing
an endpoint pair; a loop has both endpoints equal.  MultiGraph values are
immutable and hashable.

The deletion-contraction recursion reads a graph as an adjacency map (see
below); the block split, the deletion and contraction of whole parallel
classes and a block's canonical key work on the map.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, index


# Largest graphs accepted from outside the program (files, named specs).
# Every exact polynomial here is exponential in the edge count, so these
# bound what is built, not what can be solved.
MAX_VERTICES = 10_000
MAX_EDGES = 100_000


class GraphFormatError(ValueError):
    """Malformed graph text input."""


class GraphTooLargeError(ValueError):
    """A graph beyond MAX_VERTICES or MAX_EDGES was requested."""


def _check_size(vertices: int, edges: int):
    """Refuse sizes beyond MAX_VERTICES / MAX_EDGES before anything is built."""
    if vertices > MAX_VERTICES:
        raise GraphTooLargeError(
            f"{vertices} vertices exceed the limit of {MAX_VERTICES}"
        )
    if edges > MAX_EDGES:
        raise GraphTooLargeError(f"{edges} edges exceed the limit of {MAX_EDGES}")


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists in ``_fields`` the fields that equality, hashing and
    the repr read, in constructor order, and sets them in ``__init__``
    through ``object.__setattr__``; every other assignment raises
    AttributeError.  Instances keep a ``__dict__``: pickle and copy restore
    it without calling ``__setattr__``, and ``cached_property`` writes to it.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the values of _fields as one tuple (every subclass has two or more)
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MultiGraph(Frozen):
    _fields = ("vertex_count", "endpoints")

    def __init__(self, vertex_count: int, endpoints: tuple = ()):
        # operator.index takes ints (bools as 0 and 1) and refuses floats
        # and strings, which would fail later as list indices
        try:
            vertex_count = index(vertex_count)
        except TypeError:
            raise ValueError(f"vertex count {vertex_count!r} is not an integer") from None
        if vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        for u, v in endpoints:
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise ValueError(f"edge endpoint in ({u!r}, {v!r}) is not an integer") from None
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge endpoint out of range: ({u}, {v}) with "
                    f"{vertex_count} vertices"
                )
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "endpoints", tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.endpoints)

    @cached_property
    def _components(self) -> int:
        """The number of connected components, counted on first read."""
        return len(set(_component_labels(self.vertex_count, self.endpoints)))

    def __repr__(self):
        return f"MultiGraph({self.vertex_count}, {list(self.endpoints)!r})"


def _trusted(vertex_count: int, endpoints: tuple) -> MultiGraph:
    """A MultiGraph built without re-validation, for the structural
    operations below: their endpoints are in range and ordered u <= v by
    construction."""
    g = object.__new__(MultiGraph)
    object.__setattr__(g, "vertex_count", vertex_count)
    object.__setattr__(g, "endpoints", endpoints)
    return g


# -- text format --------------------------------------------------------


def parse_edge_list(text: str) -> MultiGraph:
    """Parse the line-oriented graph format.

    ``#`` starts a comment, the first significant line is ``n <vertices>``,
    every following significant line is ``e <u> <v>``.  Parallel ``e`` lines
    create parallel edges and ``e v v`` creates a loop.  Sizes beyond
    MAX_VERTICES / MAX_EDGES raise GraphTooLargeError.
    """
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if vertex_count is None:
            if fields[0] != "n" or len(fields) != 2 or not fields[1].isdecimal():
                raise GraphFormatError(
                    f"line {lineno}: expected 'n <vertex count>' header, got {line!r}"
                )
            vertex_count = int(fields[1])
            _check_size(vertex_count, 0)
            continue
        if fields[0] != "e" or len(fields) != 3:
            raise GraphFormatError(
                f"line {lineno}: expected 'e <u> <v>', got {line!r}"
            )
        if not (fields[1].isdecimal() and fields[2].isdecimal()):
            raise GraphFormatError(
                f"line {lineno}: endpoints must be non-negative integers, got {line!r}"
            )
        _check_size(vertex_count, len(edges) + 1)
        u, v = int(fields[1]), int(fields[2])
        if u >= vertex_count or v >= vertex_count:
            raise GraphFormatError(
                f"line {lineno}: endpoint {max(u, v)} out of range for "
                f"{vertex_count} vertices"
            )
        edges.append((u, v))
    if vertex_count is None:
        raise GraphFormatError("missing 'n <vertex count>' header")
    return MultiGraph(vertex_count, tuple(edges))


def render_edge_list(g: MultiGraph) -> str:
    lines = [f"n {g.vertex_count}"]
    lines.extend(f"e {u} {v}" for u, v in g.endpoints)
    return "\n".join(lines) + "\n"


# -- named graphs --------------------------------------------------------

NAMED_GRAPHS = ("empty", "path", "cycle", "complete", "theta", "petersen", "frucht")

# 12-cycle chord offsets for the rigid cubic graph on 12 vertices.
FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)


def named_graph(name: str, *params: int) -> MultiGraph:
    """Build one of NAMED_GRAPHS: empty n, path n, cycle n, complete n,
    theta k, petersen, frucht.  Parameters count vertices (theta counts edges).
    Sizes beyond MAX_VERTICES / MAX_EDGES raise GraphTooLargeError before
    any edge is built."""

    def need(count):
        if len(params) != count:
            raise ValueError(f"{name!r} takes {count} parameter(s), got {len(params)}")

    if name == "empty":
        need(1)
        if params[0] < 0:
            raise ValueError("empty n requires n >= 0")
        _check_size(params[0], 0)
        return MultiGraph(params[0])
    if name == "path":
        need(1)
        n = params[0]
        if n < 1:
            raise ValueError("path n requires n >= 1")
        _check_size(n, n - 1)
        return MultiGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    if name == "cycle":
        need(1)
        n = params[0]
        if n < 2:
            raise ValueError("cycle n requires n >= 2")
        _check_size(n, n)
        return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
    if name == "complete":
        need(1)
        n = params[0]
        if n < 1:
            raise ValueError("complete n requires n >= 1")
        _check_size(n, n * (n - 1) // 2)
        return MultiGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    if name == "theta":
        need(1)
        k = params[0]
        if k < 1:
            raise ValueError("theta k requires k >= 1")
        _check_size(2, k)
        return MultiGraph(2, ((0, 1),) * k)
    if name == "petersen":
        need(0)
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return MultiGraph(10, tuple(outer + spokes + inner))
    if name == "frucht":
        need(0)
        cycle = [(i, (i + 1) % 12) for i in range(12)]
        chords = set()
        for i, offset in enumerate(FRUCHT_LCF):
            j = (i + offset) % 12
            chords.add((min(i, j), max(i, j)))
        return MultiGraph(12, tuple(cycle + sorted(chords)))
    raise ValueError(
        f"unknown graph name {name!r}; expected one of {', '.join(NAMED_GRAPHS)}"
    )


# -- structural operations ------------------------------------------------


def _component_labels(vertex_count: int, pairs):
    """The smallest vertex of each vertex's component of the graph on
    0..vertex_count-1 with the edges ``pairs``."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(vertex_count)]


def component_count(g: MultiGraph) -> int:
    return g._components


def is_connected(g: MultiGraph) -> bool:
    return component_count(g) == 1


def component_subgraphs(g: MultiGraph):
    """Split into connected components, vertices and edges keeping their
    relative order.  Returns a list of MultiGraphs."""
    labels = _component_labels(g.vertex_count, g.endpoints)
    roots = sorted(set(labels))
    if len(roots) == 1:
        return [g]
    vmaps = {root: {} for root in roots}
    for v in range(g.vertex_count):
        m = vmaps[labels[v]]
        m[v] = len(m)
    pieces = []
    for root in roots:
        vmap = vmaps[root]
        edges = tuple(
            (vmap[u], vmap[v]) for u, v in g.endpoints if labels[u] == root
        )
        pieces.append(_trusted(len(vmap), edges))
    return pieces


# -- adjacency maps --------------------------------------------------------
#
# The deletion-contraction recursion, the canonical form and the automorphism
# search read a graph as its loop counts and one loopless adjacency map:
# adj[v] is {neighbour: multiplicity} for the vertices 0..len(adj)-1, so a
# parallel class is one entry in each of its two rows.  A map and its rows
# are never changed once built; a minor shares the rows it leaves alone.


def _adjacency(g: MultiGraph):
    """(loops, adj): the loop count at each vertex, and for each vertex a
    dict from every other neighbour to the number of edges joining them."""
    n = g.vertex_count
    loops = [0] * n
    adj = [dict() for _ in range(n)]
    for u, v in g.endpoints:
        if u == v:
            loops[u] += 1
        else:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
    return loops, adj


def blocks(adj):
    """The vertices of each block (maximal 2-connected piece) of a map, each
    list sorted, the blocks in the order an iterative lowlink DFS over
    neighbour keys closes them.

    Two blocks share at most one vertex, so a block's edges are all those
    among its vertices: a parallel class lies in one block, a bridge is a
    two-vertex block of multiplicity 1, and vertices without neighbours are
    in no block.
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    out = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # visited vertices not yet closed into a block, in discovery order
        open_vertices = [root]
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            # resume v's neighbours; a tree edge breaks out to descend
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    open_vertices.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                # the parent lowers low[v] only to disc of the parent, which
                # the block test below allows, so it needs no exception
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= disc[pv]:
                        # pv separates v's subtree: they form one block
                        block = [pv]
                        while True:
                            x = open_vertices.pop()
                            block.append(x)
                            if x == v:
                                break
                        block.sort()
                        out.append(block)
    return out


def submap(adj, vertices):
    """The map induced on the sorted ``vertices``, renumbered 0.. in their
    order: the map of a block given its vertices."""
    if len(vertices) == len(adj):
        return adj
    index = {v: i for i, v in enumerate(vertices)}
    return [{index[w]: m for w, m in adj[v].items() if w in index} for v in vertices]


def delete_edges(adj, pairs):
    """The map without the parallel class of each vertex pair in ``pairs``;
    a vertex left without neighbours stays, isolated."""
    out = list(adj)
    for v in {v for pair in pairs for v in pair}:
        out[v] = dict(adj[v])
    for u, v in pairs:
        del out[u][v], out[v][u]
    return out


def contract_edges(adj, pairs):
    """(map, loops) after contracting the parallel class of each vertex pair
    in ``pairs``: each connected chunk of the pairs becomes its smallest
    vertex, and the others stay, isolated.  The listed classes vanish; the
    other edges among the vertices of a chunk are the ``loops``."""
    labels = _component_labels(len(adj), pairs)
    merged = {v for pair in pairs for v in pair}
    # the rows that change: the merged vertices and their neighbours
    touched = merged.union(*(adj[v] for v in merged))
    out = list(adj)
    for v in touched:
        out[v] = {}
    loops = 0
    for v in touched:
        a = labels[v]
        row = out[a]
        for w, m in adj[v].items():
            b = labels[w]
            if b != a:
                row[b] = row.get(b, 0) + m
            elif v < w:
                loops += m
    return out, loops - sum(adj[u][v] for u, v in pairs)


# -- exact canonical form -------------------------------------------------
#
# Isomorphic multigraphs must map to identical keys and non-isomorphic ones
# to distinct keys: the key is the minimum adjacency encoding over all vertex
# orderings consistent with iterated neighborhood refinement, computed per
# connected component (component encodings commute with isomorphism, so the
# sorted list of them is canonical for the whole graph).
#
# The search individualises one vertex of the first non-singleton cell at a
# time.  Two leaves with equal encodings give an automorphism (the map from
# one leaf order to the other); it fixes the two paths' common prefix, so
# the search jumps back to where they diverge, and a node skips every child
# in the orbit of an explored sibling under the recorded automorphisms (and
# twin transpositions) that fix its prefix (after McKay & Piperno,
# "Practical graph isomorphism, II", 2014).  Skipped subtrees are images of
# explored ones, so the minimum, and the key, is that of the full search.


def _refine(n, adj, loops, colors):
    """Iterate color refinement until the class count stops growing.

    Returns the colors from the last strictly-refining round; the cell order
    induced by signature sorting is label-independent.
    """
    ncolors = len(set(colors))
    while True:
        size = {}
        for c in colors:
            size[c] = size.get(c, 0) + 1
        sigs = []
        for v in range(n):
            c = colors[v]
            if size[c] == 1:
                # a singleton's own colour fixes its rank: the rest of its
                # signature never meets another with the same colour
                sigs.append((c,))
                continue
            row = sorted([(colors[u], mult) for u, mult in adj[v].items()])
            sigs.append((c, loops[v], tuple(row)))
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_colors = [ranking[sig] for sig in sigs]
        new_count = len(ranking)
        if new_count == ncolors:
            return colors
        colors = new_colors
        ncolors = new_count


def _canonical_search(loops, adj):
    """(encoding, automorphisms, twins) of a connected graph given as its
    loop counts and adjacency map: the minimum leaf encoding, the vertex
    maps the search found between leaves with equal encodings, and the
    vertex pairs whose transposition it pruned with.  Every map and every
    transposition is an automorphism of the graph."""
    n = len(adj)
    best = best_path = best_order = None
    automorphisms = []
    twins = []

    def encode(order):
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
        # transposing u and v is an automorphism: identical multiplicity
        # rows away from each other (u and v share a refined cell, and the
        # refinement separates loop counts)
        row_u = {x: m for x, m in adj[u].items() if x != v}
        row_v = {x: m for x, m in adj[v].items() if x != u}
        return row_u == row_v

    def search(colors, path):
        """Explore the node reached by individualising ``path``.  Returns
        None, or the depth of the ancestor to resume at when this subtree
        is the image of an explored one."""
        nonlocal best, best_path, best_order
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
            enc = encode(order)
            if best is None or enc < best:
                best, best_path, best_order = enc, path, order
                return None
            if enc > best:
                return None
            # gamma maps best_path to path, so it fixes their common prefix
            # and carries the explored sibling subtree there onto this one
            gamma = [0] * n
            for a, b in zip(best_order, order):
                gamma[a] = b
            automorphisms.append(gamma)
            depth = 0
            while best_path[depth] == path[depth]:
                depth += 1
            return depth
        depth = len(path)
        # children already explored, closed under twin transpositions and
        # under the recorded automorphisms that fix path pointwise: a child
        # in that orbit union leads to the leaf encodings of an explored one
        reached = set()
        fixing = []
        used = 0
        for i, v in enumerate(target):
            fixing += [
                gamma
                for gamma in automorphisms[used:]
                if all(gamma[x] == x for x in path)
            ]
            used = len(automorphisms)
            reached = _closure(reached, fixing)
            if v in reached:
                continue
            reached.add(v)
            for w in target[i + 1 :]:
                if w not in reached and swappable(v, w):
                    reached.add(w)
                    twins.append((v, w))
            split = [c * 2 + 1 for c in colors]
            split[v] -= 1
            resume = search(_refine(n, adj, loops, split), path + (v,))
            if resume is not None and resume < depth:
                return resume
        return None

    search(_refine(n, adj, loops, [0] * n), ())
    return best, automorphisms, twins


def _closure(points, maps):
    """The smallest superset of points that every map sends into itself."""
    if not maps:
        return points
    out = set(points)
    stack = list(out)
    while stack:
        x = stack.pop()
        for gamma in maps:
            y = gamma[x]
            if y not in out:
                out.add(y)
                stack.append(y)
    return out


def canonical_key(g: MultiGraph) -> bytes:
    """Exact canonical form: equal for isomorphic multigraphs, distinct
    otherwise.  Safe as a memoization key."""
    encodings = sorted(
        _canonical_search(*_adjacency(c))[0] for c in component_subgraphs(g)
    )
    return repr(encodings).encode()


def block_key(adj) -> bytes:
    """canonical_key of the connected, loopless graph of a map, read off the
    map: no component split and no second adjacency build."""
    return repr([_canonical_search([0] * len(adj), adj)[0]]).encode()
