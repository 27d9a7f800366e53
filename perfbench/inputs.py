"""Inputs for the benchmark workloads.

Sizes are fixed per workload member.  The graphs of poly-dense, poly-sparse
and cli-symmetric (the random cubic graphs, the arrangement of necklaces and
chains, and the vertex ids and edge order that ``relabel`` gives) are drawn
once from GRAPHS_SEED, not from ``--seed``: under another draw or labelling
one member costs up to twice as much, and the spread gate of the benchmark
compares runs made with different seeds.  ``--seed`` orders the requests of
those workloads and labels the 996 graphs of sweep7, which average over
their labellings (see ``workloads.build_inputs``).
"""

from __future__ import annotations

import random

from graphperiod.graphs import MultiGraph, named_graph

PRIMES = (2, 3, 5, 7)
GRAPHS_SEED = 0


def relabel(rng: random.Random, g: MultiGraph) -> MultiGraph:
    """Isomorphic copy with shuffled vertex ids and shuffled edge order."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.endpoints]
    rng.shuffle(edges)
    return MultiGraph(g.vertex_count, tuple(edges))


def lcf(n: int, pattern) -> MultiGraph:
    """Hamiltonian cubic graph from LCF notation."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((min(i, j), max(i, j)))
    return MultiGraph(n, tuple(sorted(edges)))


def grid(rows: int, cols: int) -> MultiGraph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return MultiGraph(rows * cols, tuple(edges))


def complete_bipartite(m: int, n: int) -> MultiGraph:
    return MultiGraph(m + n, tuple((i, m + j) for i in range(m) for j in range(n)))


def hypercube(d: int) -> MultiGraph:
    return MultiGraph(
        1 << d,
        tuple((v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1),
    )


def necklace(cycle_lengths) -> MultiGraph:
    """Cycles glued in a chain: each cycle shares one cut vertex with the
    next, the vertex opposite to the one it shares with the previous."""
    edges = []
    attach, n = 0, 1
    for k in cycle_lengths:
        ring = [attach] + list(range(n, n + k - 1))
        n += k - 1
        edges.extend((ring[i], ring[(i + 1) % k]) for i in range(k))
        attach = ring[k // 2]
    return MultiGraph(n, tuple(edges))


def parallel_chain(multiplicities) -> MultiGraph:
    """Theta graphs in series: class i joins vertices i and i+1."""
    edges = []
    for i, k in enumerate(multiplicities):
        edges.extend([(i, i + 1)] * k)
    return MultiGraph(len(multiplicities) + 1, tuple(edges))


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_cubic_2connected(rng: random.Random, n: int) -> MultiGraph:
    """Simple cubic graph by the configuration model with rejection; for
    cubic graphs bridgeless is the same as 2-connected."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])]
        if any(a == b for a, b in edges) or len(set(edges)) < len(edges):
            continue
        if all(_connected(n, edges[:i] + edges[i + 1 :]) for i in range(len(edges))):
            return MultiGraph(n, tuple(edges))


def poly_dense():
    """(label, graph) pairs: 2-connected cubic and grid graphs, four of
    them random cubic graphs on 12 vertices."""
    rng = random.Random(GRAPHS_SEED)
    base = [
        ("petersen", named_graph("petersen")),
        ("frucht", named_graph("frucht")),
        ("heawood", lcf(14, (5, -5))),
        ("grid4x4", grid(4, 4)),
    ]
    for i, n in enumerate((12, 12, 12, 12)):
        base.append((f"cubic{n}-{i}", random_cubic_2connected(rng, n)))
    return base


def poly_sparse():
    """(label, graph) pairs with no ordinary-edge structure to exploit:
    cycles, paths, parallel-class chains and necklaces of small cycles."""
    rng = random.Random(GRAPHS_SEED)

    def shuffled(values):
        values = list(values)
        rng.shuffle(values)
        return values

    return [
        ("cycle24", named_graph("cycle", 24)),
        ("cycle28", named_graph("cycle", 28)),
        ("path16", named_graph("path", 16)),
        ("path20", named_graph("path", 20)),
        ("chain6", parallel_chain(shuffled((2, 3, 4, 5, 2, 3)))),
        ("necklace4", necklace(shuffled((3, 4, 5, 3)))),
        ("necklace5", necklace(shuffled((3, 4, 3, 4, 3)))),
        ("necklace6", necklace(shuffled((3, 3, 4, 3, 3, 4)))),
    ]


def sweep7(connected_simple_graphs):
    """Every connected simple graph on at most 7 vertices.  The generator
    is passed in so that a traced run times it where it is called."""
    return [(f"g{i}", g) for i, g in enumerate(connected_simple_graphs(7))]


# graphs the CLI mix reads from files: (name, graph, automorphism group order)
CLI_GRAPHS = {
    "k7": (named_graph("complete", 7), 5040),
    "k8": (named_graph("complete", 8), 40320),
    "k33": (complete_bipartite(3, 3), 72),
    "k44": (complete_bipartite(4, 4), 1152),
    "q3": (hypercube(3), 48),
    "q4": (hypercube(4), 384),
    "petersen": (named_graph("petersen"), 120),
    "heawood": (lcf(14, (5, -5)), 336),
}


def cli_graphs():
    """name -> relabelled graph for every graph of the CLI mix."""
    rng = random.Random(GRAPHS_SEED)
    return {name: relabel(rng, g) for name, (g, _) in sorted(CLI_GRAPHS.items())}
