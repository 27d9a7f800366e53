"""The exhaustive family of connected simple graphs, for sweeps and tests."""

from __future__ import annotations

# canonical_key is not called here, but the benchmark's tracer
# (perfbench/spans.py) wraps it on this module by name, so it stays imported.
from .graphs import MultiGraph, _canonical_search, canonical_key  # noqa: F401


def connected_simple_graphs(max_vertices: int):
    """All connected simple graphs with 1..max_vertices vertices, one
    representative per isomorphism class, the first-seen one.

    Grown by vertex augmentation: every connected graph on n vertices is a
    connected graph on n-1 vertices plus a new vertex with a nonempty
    neighborhood, so attaching every nonempty subset and deduplicating by
    canonical form enumerates each class exactly once.  A parent is grown
    only by the smallest neighborhood of each orbit of its automorphisms
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998):
    another neighborhood of the orbit is the image of a smaller one under an
    automorphism of the parent, which extends to an isomorphism fixing the
    new vertex, so it gives no new class.  The automorphisms are those the
    parent's own canonical search found.
    """
    if max_vertices < 1:
        return
    first = MultiGraph(1)
    yield first
    # each class of the last size: graph, adjacency map, automorphisms
    level = [(first, [{}], [])]
    for n in range(2, max_vertices + 1):
        new = n - 1
        seen = set()
        grown = []
        for g, adj, automorphisms in level:
            for mask in _orbit_representatives(new, automorphisms):
                neighbours = [v for v in range(new) if mask >> v & 1]
                candidate = list(adj)
                for v in neighbours:
                    candidate[v] = {**adj[v], new: 1}
                candidate.append(dict.fromkeys(neighbours, 1))
                # the canonical key, the candidate's map as bytes in the
                # order of the search's minimum leaf, tells the classes apart
                key, maps, twins, _ = _canonical_search([0] * n, candidate)
                if key in seen:
                    continue
                seen.add(key)
                graph = MultiGraph(n, g.endpoints + tuple((v, new) for v in neighbours))
                if n < max_vertices:
                    for u, v in twins:
                        swap = list(range(n))
                        swap[u], swap[v] = v, u
                        maps.append(swap)
                    grown.append((graph, candidate, maps))
                yield graph
        level = grown


def _orbit_representatives(n: int, automorphisms):
    """The smallest mask of each orbit of the group the vertex maps
    ``automorphisms`` generate, acting on the nonempty subsets of 0..n-1 as
    bitmasks, in increasing order."""
    full = 1 << n
    if not automorphisms:
        return range(1, full)
    images = []
    for gamma in {tuple(gamma) for gamma in automorphisms}:
        image = [0] * full
        for mask in range(1, full):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << gamma[low.bit_length() - 1]
        images.append(image)
    covered = bytearray(full)
    out = []
    for mask in range(1, full):
        if covered[mask]:
            continue
        out.append(mask)
        covered[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not covered[y]:
                    covered[y] = 1
                    stack.append(y)
    return out

