"""Graph polynomials from one deletion-contraction recursion.

Three invariants of a multigraph G with r vertices, q edges and w components:

* Tutte polynomial tau(x, y), by one reduction-first deletion-contraction
  recursion (after Haggard, Pearce & Royle, "Computing Tutte polynomials",
  ACM TOMS 37, 2010): tau is multiplicative over blocks, so components, cut
  vertices, loops (y) and bridges (x) are one split; two-vertex blocks,
  cycles and maximal series paths have closed forms; only what remains is
  memoized on the exact canonical form and split on a whole parallel class.
  The shifted form T(s, t) = tau(s+1, t+1) is one binomial change of
  variable.
* Negami polynomial N(u, x, y) = sum over edge subsets Y of
  u^{components of (V, Y)} x^{q-|Y|} y^{|Y|}, read off the shifted Tutte
  polynomial of the same recursion: with rank = r - w and nullity = q - rank,
  each term a_{ij} s^i t^j of T(s, t) is the term
  a_{ij} u^(w+i) x^(nullity+i-j) y^(rank-i+j) of N, because a subset of
  rank r(Y) has i = rank - r(Y) and j = |Y| - r(Y) (Negami, "Polynomial
  invariants of graphs", Trans. AMS 299, 1987).
* Chromatic polynomial P(lam) = (-1)^{r-w} lam^w tau(1-lam, 0), by the same
  recursion run on the line y = 0 (a loop gives 0, a parallel class counts
  as one edge), and independently by specializing N as (-1)^q N(lam, -1, 1).

The direct 2^q subset expansion of N is kept only as the ground-truth
oracle that the recursion is tested against on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    MultiGraph,
    blocks,
    canonical_key,
    component_count,
    contract_edges,
    delete_edges,
    edge_subgraph,
)
from .polynomials import (
    Polynomial,
    binomial_substitute,
    divide_exact_monomial,
    substitute,
)

TUTTE_CLASSIC_VARS = ("x", "y")
TUTTE_SHIFTED_VARS = ("s", "t")
NEGAMI_VARS = ("u", "x", "y")
CHROMATIC_VARS = ("λ",)

SUBSET_EXPANSION_MAX_EDGES = 24


class SubsetCapExceededError(ValueError):
    """The 2^q subset expansion was refused because q is too large."""


@dataclass(frozen=True)
class TuttePair:
    """Tutte polynomial in both coordinate systems.

    ``shifted`` is ``classic`` with x -> s+1, y -> t+1; the two carry the
    same information and the criteria are stated on the shifted form.
    """

    classic: Polynomial
    shifted: Polynomial


@dataclass(frozen=True)
class NegamiPolynomial:
    """Three-variable subset-expansion polynomial plus the source graph's
    vertex/edge/component counts needed by downstream specializations."""

    polynomial: Polynomial
    vertex_count: int
    edge_count: int
    components: int

    def __post_init__(self):
        u_low = self.components
        for exps in self.polynomial.terms:
            eu, ex, ey = exps
            if ex + ey != self.edge_count:
                raise ValueError(
                    f"term u^{eu}*x^{ex}*y^{ey} violates x+y degree {self.edge_count}"
                )
            if not u_low <= eu <= self.vertex_count:
                raise ValueError(
                    f"u-exponent {eu} outside {u_low}..{self.vertex_count}"
                )


# -- Tutte by deletion-contraction -----------------------------------------

_ONE_XY = Polynomial.constant(TUTTE_CLASSIC_VARS, 1)
_ZERO_XY = Polynomial.zero(TUTTE_CLASSIC_VARS)
_X = Polynomial.variable(TUTTE_CLASSIC_VARS, "x")
_Y = Polynomial.variable(TUTTE_CLASSIC_VARS, "y")

_tutte_cache: dict = {}
_chromatic_cache: dict = {}


def clear_caches():
    _tutte_cache.clear()
    _chromatic_cache.clear()


def _default_chooser(g: MultiGraph) -> int:
    """An edge at vertex 0, where earlier contractions merged, in its largest
    parallel class; ties go to the other endpoint of larger degree, then to
    the smallest id.  g is a block with no series path when this runs."""
    degree = [0] * g.vertex_count
    multiplicity: dict = {}
    for pair in g.endpoints:
        degree[pair[0]] += 1
        degree[pair[1]] += 1
        multiplicity[pair] = multiplicity.get(pair, 0) + 1
    best, best_score = 0, None
    for e, pair in enumerate(g.endpoints):
        if pair[0] == 0:
            score = (multiplicity[pair], degree[pair[1]])
            if best_score is None or score > best_score:
                best, best_score = e, score
    return best


def _x_series(k: int) -> Polynomial:
    """1 + x + ... + x^(k-1)."""
    return Polynomial(TUTTE_CLASSIC_VARS, {(i, 0): 1 for i in range(k)})


def _y_series(k: int, y_zero: bool) -> Polynomial:
    """1 + y + ... + y^(k-1), which is 1 on the line y = 0."""
    if y_zero:
        return _ONE_XY
    return Polynomial(TUTTE_CLASSIC_VARS, {(0, j): 1 for j in range(k)})


def _tau(g: MultiGraph, memo, y_zero: bool) -> Polynomial:
    """tau(G), or tau(G; x, 0) when ``y_zero``: the product over blocks."""
    loops = bridge_count = 0
    pieces = []
    for block in blocks(g):
        if len(block) > 1:
            pieces.append(block)
        elif g.endpoints[block[0]][0] == g.endpoints[block[0]][1]:
            loops += 1
        else:
            bridge_count += 1
    if loops and y_zero:
        return _ZERO_XY
    result = None
    for block in pieces:
        part = _tau_block(edge_subgraph(g, block), memo, y_zero)
        result = part if result is None else result * part
    monomial = Polynomial.monomial(TUTTE_CLASSIC_VARS, (bridge_count, loops))
    if result is None:
        return monomial
    return result * monomial if bridge_count or loops else result


def _tau_block(g: MultiGraph, memo, y_zero: bool) -> Polynomial:
    """tau of a loopless 2-connected block with at least two edges."""
    if g.vertex_count == 2:
        # k parallel edges: x + y + ... + y^(k-1)
        return _X + _y_series(g.edge_count, y_zero) - 1
    if y_zero:
        # on y = 0 a parallel class is worth one edge
        seen = set()
        dupes = [e for e, pair in enumerate(g.endpoints) if pair in seen or seen.add(pair)]
        if dupes:
            g = delete_edges(g, dupes)

    incident = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.endpoints):
        incident[u].append(e)
        incident[v].append(e)
    if all(len(inc) == 2 for inc in incident):
        # cycle of k edges: x + ... + x^(k-1) + y
        cycle = _x_series(g.edge_count) - 1
        return cycle if y_zero else cycle + _Y

    path = _series_path(g, incident)
    if path:
        # T = (1 + x + ... + x^(k-1)) T(G - P) + T(G / P)
        rest = _tau(delete_edges(g, path), memo, y_zero)
        joined = _tau(contract_edges(g, path), memo, y_zero)
        return _x_series(len(path)) * rest + joined

    # one memo may serve both lines: tau(x, 0) and tau(x, y) differ
    key = (y_zero, canonical_key(g))
    cached = memo.get(key)
    if cached is not None:
        return cached
    u, v = g.endpoints[_default_chooser(g)]
    parallel = [e for e, pair in enumerate(g.endpoints) if pair == (u, v)]
    # T = T(G - E) + (1 + y + ... + y^(k-1)) T(G / E) for the class E of e
    result = _tau(delete_edges(g, parallel), memo, y_zero) + _y_series(
        len(parallel), y_zero
    ) * _tau(contract_edges(g, parallel), memo, y_zero)
    memo[key] = result
    return result


def _series_path(g: MultiGraph, incident):
    """Edge ids of a maximal path through degree-2 vertices, or [] if no
    vertex has degree 2.  In a 2-connected block that is not a cycle the
    path runs between two distinct vertices of degree at least 3."""
    start = next((v for v, inc in enumerate(incident) if len(inc) == 2), None)
    if start is None:
        return []
    path = []
    for first in incident[start]:
        prev, e = start, first
        while True:
            path.append(e)
            u, v = g.endpoints[e]
            nxt = v if u == prev else u
            if len(incident[nxt]) != 2:
                break
            a, b = incident[nxt]
            prev, e = nxt, (b if a == e else a)
    return path


def tutte_deletion_contraction(g: MultiGraph, *, cache=None) -> TuttePair:
    """Tutte polynomial by the reduction-first recursion: blocks multiply
    (loop -> y, bridge -> x), a two-vertex block of k edges is
    x + y + ... + y^(k-1), a k-cycle x + ... + x^(k-1) + y, a maximal series
    path P of k edges gives (1 + ... + x^(k-1)) tau(G-P) + tau(G/P), and
    otherwise the parallel class E of the chosen edge gives
    tau(G-E) + (1 + y + ... + y^(k-1)) tau(G/E); edgeless -> 1.

    The result is independent of which edge ``_default_chooser`` picks.
    ``cache`` overrides the shared session memo (pass a fresh dict to
    isolate a computation).
    """
    memo = _tutte_cache if cache is None else cache
    classic = _tau(g, memo, False)
    shifted = binomial_substitute(
        classic, {"x": (1, 1, "s"), "y": (1, 1, "t")}, TUTTE_SHIFTED_VARS
    )
    return TuttePair(classic=classic, shifted=shifted)


# -- Negami by subset expansion (the reference oracle) -----------------------


def negami_subset_expansion(g: MultiGraph) -> NegamiPolynomial:
    """Sum over all 2^q edge subsets Y of u^{w(V,Y)} x^{q-|Y|} y^{|Y|}.

    The independent reference that ``negami_polynomial`` is tested against.
    Exponential; refuses when q exceeds SUBSET_EXPANSION_MAX_EDGES.
    """
    q = g.edge_count
    if q > SUBSET_EXPANSION_MAX_EDGES:
        raise SubsetCapExceededError(
            f"subset expansion over {q} edges exceeds the cap of "
            f"{SUBSET_EXPANSION_MAX_EDGES}; use the deletion-contraction route "
            "(negami_polynomial) instead"
        )
    n = g.vertex_count

    # depth-first over include/exclude per edge with a rollback union-find,
    # so each subset costs O(alpha) instead of a fresh scan
    parent = list(range(n))
    size = [1] * n
    trail = []
    counts: dict = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            trail.append(None)
            return 0
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        trail.append(rb)
        return 1

    def undo_union():
        rb = trail.pop()
        if rb is not None:
            ra = parent[rb]
            size[ra] -= size[rb]
            parent[rb] = rb

    def walk(e, picked, comps):
        if e == q:
            key = (comps, picked)
            counts[key] = counts.get(key, 0) + 1
            return
        walk(e + 1, picked, comps)
        u, v = g.endpoints[e]
        merged = union(u, v)
        walk(e + 1, picked + 1, comps - merged)
        undo_union()

    walk(0, 0, n)
    table = {
        (comps, q - picked, picked): mult for (comps, picked), mult in counts.items()
    }
    return NegamiPolynomial(
        polynomial=Polynomial(NEGAMI_VARS, table),
        vertex_count=n,
        edge_count=q,
        components=component_count(g),
    )


def negami_from_tutte(g: MultiGraph, shifted: Polynomial) -> NegamiPolynomial:
    """Negami polynomial of g from its shifted Tutte polynomial T(s, t).

    An edge subset A of rank r(A) contributes s^i t^j to T with
    i = rank - r(A) and j = |A| - r(A), where rank = r - w and
    nullity = q - rank.  The same subset contributes u^{w(V,A)} x^{q-|A|}
    y^{|A|} to N, and w(V,A) = w + i, |A| = rank - i + j,
    q - |A| = nullity + i - j.  So each term a_{ij} s^i t^j of T is the term

        a_{ij} u^(w+i) x^(nullity+i-j) y^(rank-i+j)

    of N: the conversion only relabels exponents.
    """
    r = g.vertex_count
    q = g.edge_count
    w = component_count(g)
    rank = r - w
    nullity = q - rank
    table = {
        (w + i, nullity + i - j, rank - i + j): coeff
        for (i, j), coeff in shifted.terms.items()
    }
    return NegamiPolynomial(
        polynomial=Polynomial(NEGAMI_VARS, table),
        vertex_count=r,
        edge_count=q,
        components=w,
    )


def negami_polynomial(g: MultiGraph) -> NegamiPolynomial:
    """The Negami polynomial of g, converted from the memoized Tutte
    polynomial (``negami_from_tutte``); ``negami_subset_expansion`` is its
    independent test oracle."""
    return negami_from_tutte(g, tutte_deletion_contraction(g).shifted)


def tutte_from_negami(n: NegamiPolynomial) -> Polynomial:
    """Shifted Tutte polynomial T(s, t) = N(s*t, 1, t) / (s^w t^r).

    The division is exact under the keep-Y reading of the subset expansion; a
    NonDivisibleTermError here means the expansion convention was violated.
    """
    st = Polynomial(TUTTE_SHIFTED_VARS, {(1, 1): 1})
    t = Polynomial.variable(TUTTE_SHIFTED_VARS, "t")
    specialized = substitute(
        n.polynomial, {"u": st, "x": 1, "y": t}, TUTTE_SHIFTED_VARS
    )
    return divide_exact_monomial(
        specialized, {"s": n.components, "t": n.vertex_count}
    )


# -- chromatic polynomial ----------------------------------------------------


def chromatic_deletion_contraction(g: MultiGraph, *, cache=None) -> Polynomial:
    """Proper-coloring counting polynomial (-1)^(r-w) λ^w tau(1-λ, 0), with
    tau(x, 0) from the Tutte recursion run on the line y = 0; any loop forces
    the zero polynomial.  ``cache`` overrides the shared session memo."""
    memo = _chromatic_cache if cache is None else cache
    on_line = _tau(g, memo, True)
    value = binomial_substitute(
        on_line, {"x": (1, -1, "λ"), "y": (0, 0, None)}, CHROMATIC_VARS
    )
    w = component_count(g)
    sign = -1 if (g.vertex_count - w) % 2 else 1
    return Polynomial(CHROMATIC_VARS, {(e + w,): sign * c for (e,), c in value.terms.items()})


def chromatic_from_negami(n: NegamiPolynomial) -> Polynomial:
    """(-1)^q N(λ, -1, 1): the subset-expansion route to the chromatic
    polynomial (the sign pairs with the keep-Y expansion convention)."""
    lam = Polynomial.variable(CHROMATIC_VARS, "λ")
    value = substitute(n.polynomial, {"u": lam, "x": -1, "y": 1}, CHROMATIC_VARS)
    if n.edge_count % 2:
        value = -value
    return value
