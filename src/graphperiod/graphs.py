"""Finite multigraphs (loops and parallel edges allowed) and the structural
operations that deletion-contraction invariants consume.

Vertices are dense ints 0..vertex_count-1; edges are dense ints identified by
their position in ``endpoints``.  Parallel edges are distinct edge ids sharing
an endpoint pair; a loop has both endpoints equal.  All operations return new
graphs; MultiGraph values are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class MultiGraph:
    vertex_count: int
    endpoints: tuple = ()

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        for pair in self.endpoints:
            u, v = pair
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(
                    f"edge endpoint out of range: ({u}, {v}) with "
                    f"{self.vertex_count} vertices"
                )
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "endpoints", tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.endpoints)

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
            if fields[0] != "n" or len(fields) != 2 or not fields[1].isdigit():
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
        if not (fields[1].isdigit() and fields[2].isdigit()):
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


def _check_edge(g: MultiGraph, e: int):
    if not (0 <= e < g.edge_count):
        raise ValueError(f"edge index {e} out of range for {g.edge_count} edges")


def delete_edges(g: MultiGraph, edge_ids) -> MultiGraph:
    drop = set(edge_ids)
    for e in drop:
        _check_edge(g, e)
    kept = tuple(pair for i, pair in enumerate(g.endpoints) if i not in drop)
    return _trusted(g.vertex_count, kept)


def contract_edges(g: MultiGraph, edge_ids) -> MultiGraph:
    """Identify endpoints within each connected chunk of the selected edges
    (which must contain no loops), dropping the selected edges; edges
    parallel to a selected one become loops."""
    selected = sorted(set(edge_ids))
    labels = _component_labels(g, selected)
    for e in selected:
        a, b = g.endpoints[e]
        if a == b:
            raise ValueError(f"cannot contract loop edge {e}")

    # each label is its class's smallest member, so ordering classes by
    # label keeps indices stable
    roots = sorted(set(labels))
    new_id = {root: i for i, root in enumerate(roots)}
    drop = set(selected)
    kept = []
    for i, (u, v) in enumerate(g.endpoints):
        if i not in drop:
            # relabelling can reverse a pair: u's class may have the larger label
            a, b = new_id[labels[u]], new_id[labels[v]]
            kept.append((a, b) if a <= b else (b, a))
    return _trusted(len(roots), tuple(kept))


def _component_labels(g: MultiGraph, edge_ids=None):
    """The smallest vertex of each vertex's component of (V, edge_ids), all
    edges when edge_ids is None."""
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if edge_ids is None:
        pairs = g.endpoints
    else:
        pairs = []
        for e in edge_ids:
            _check_edge(g, e)
            pairs.append(g.endpoints[e])
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(g.vertex_count)]


def component_count(g: MultiGraph) -> int:
    return len(set(_component_labels(g)))


def is_connected(g: MultiGraph) -> bool:
    return component_count(g) == 1


def component_subgraphs(g: MultiGraph):
    """Split into connected components, vertices and edges keeping their
    relative order.  Returns a list of MultiGraphs."""
    labels = _component_labels(g)
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


def blocks(g: MultiGraph):
    """Edge ids of every block (maximal 2-connected piece), each sorted, the
    list ordered by smallest edge id.

    A loop is a block of its own, so is a bridge; parallel edges share a
    block.  Isolated vertices are in no block.  Iterative lowlink DFS with an
    edge stack that refuses to walk back along the tree edge id, so parallel
    edges count as back edges.
    """
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    out = []
    for eid, (u, v) in enumerate(g.endpoints):
        if u == v:
            out.append([eid])
        else:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    disc = [-1] * n
    low = [0] * n
    edge_stack = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            # resume v's neighbours; a tree edge breaks out to descend
            for w, eid in it:
                if eid == in_edge:
                    continue
                if disc[w] == -1:
                    edge_stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    # back edge to an ancestor, pushed once from the lower end
                    edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= disc[pv]:
                        # pv separates v's subtree: its edges form one block
                        block = []
                        while True:
                            e = edge_stack.pop()
                            block.append(e)
                            if e == in_edge:
                                break
                        block.sort()
                        out.append(block)
    out.sort()
    return out


def edge_subgraph(g: MultiGraph, edge_ids) -> MultiGraph:
    """The listed edges, in the given order, on the vertices they touch;
    those vertices keep their relative order."""
    pairs = [g.endpoints[e] for e in edge_ids]
    touched = sorted({v for pair in pairs for v in pair})
    new_id = {v: i for i, v in enumerate(touched)}
    return _trusted(len(touched), tuple((new_id[u], new_id[v]) for u, v in pairs))


def relabel(g: MultiGraph, vertex_perm, edge_perm=None) -> MultiGraph:
    """Isomorphic copy: vertex v becomes vertex_perm[v], edge e becomes
    edge id edge_perm[e] (identity if omitted)."""
    vp = tuple(vertex_perm)
    if sorted(vp) != list(range(g.vertex_count)):
        raise ValueError("vertex_perm is not a permutation of the vertices")
    if edge_perm is None:
        ep = tuple(range(g.edge_count))
    else:
        ep = tuple(edge_perm)
        if sorted(ep) != list(range(g.edge_count)):
            raise ValueError("edge_perm is not a permutation of the edges")
    new_endpoints = [None] * g.edge_count
    for e, (u, v) in enumerate(g.endpoints):
        new_endpoints[ep[e]] = (vp[u], vp[v])
    return MultiGraph(g.vertex_count, tuple(new_endpoints))


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


def _component_encoding(g: MultiGraph):
    n = g.vertex_count
    loops, adj = _adjacency(g)
    best = best_path = best_order = None
    # vertex maps found between leaves with equal encodings: automorphisms
    automorphisms = []

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
            split = [c * 2 + 1 for c in colors]
            split[v] -= 1
            resume = search(_refine(n, adj, loops, split), path + (v,))
            if resume is not None and resume < depth:
                return resume
        return None

    search(_refine(n, adj, loops, [0] * n), ())
    return best


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
    encodings = sorted(_component_encoding(c) for c in component_subgraphs(g))
    return repr(encodings).encode()
