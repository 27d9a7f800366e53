"""Graph polynomials from one deletion-contraction recursion.

Three invariants of a multigraph G with r vertices, q edges and w components:

* Tutte polynomial tau(x, y), by one reduction-first deletion-contraction
  recursion (after Haggard, Pearce & Royle, "Computing Tutte polynomials",
  ACM TOMS 37, 2010): tau is multiplicative over blocks, so components, cut
  vertices, loops (y) and bridges (x) are one split; two-vertex blocks and
  cycles have closed forms.  Every other block is memoized under its map
  written as bytes (``graphs.encoding``) in label order, so a block that
  recurs, as the minors of a ladder's maximal series paths do, is computed
  once.  A series path P of k edges gives
  (1 + ... + x^(k-1)) tau(G - P) + tau(G / P); a block without one is
  split on a whole parallel class, and once a second block of its layout
  and degree sequence turns up, both are memoized under the same bytes in
  canonical order as well, so isomorphic blocks share a value.
  The recursion reads each graph as one adjacency map,
  vertex -> {neighbour: multiplicity} (``graphs._adjacency``, built once
  per call), so a parallel class is one entry, and splits, deletes and
  contracts whole classes on the map.
  The shifted form T(s, t) = tau(s+1, t+1) is a Taylor shift of the
  blocks' packed product by Horner's rule, in x and, after a transpose, in
  y (von zur Gathen & Gerhard, ISSAC 1997), in slots of the whole graph's
  W: every coefficient of tau(x+1, y) and of tau(x+1, y+1) is nonnegative
  and at most tau(2, 2) = 2^q < 2^W.  Bridges and loops enter afterwards,
  as the rows (s+1)^b and (t+1)^l.

  Inside the recursion tau travels as one Python int (Kronecker
  substitution; von zur Gathen & Gerhard, "Modern Computer Algebra"): the
  term c x^i y^j is c in the W-bit slot at bit W*(i*D + j), so the closed
  forms and the two-way splits are int sums, products and shifts.  Each
  block is packed under a layout (W, D) of its own, is memoized under it,
  and moves into a caller's larger layout by slices of 64-bit words.  The
  layout is safe because every value met in a block's recursion has
  nonnegative coefficients, each at most the matching coefficient of tau
  of some minor of the block, hence at most T(1, 1) <= 2^q < 2^W; and no
  minor has y-degree (nullity) D or more, so neither a slot nor a y-row
  carries into the next.  A packed value costs its (rank+1) x (nullity+1)
  box, not its terms.  The tau of one block fills much of its box (36 to
  60 % for the memoized blocks of the poly-dense benchmark), but a product
  of k blocks fills a share that shrinks with k ((x + y)^k has k + 1 terms
  in (k + 1)^2 slots), so blocks multiply term by term.
* Negami polynomial N(u, x, y) = sum over edge subsets Y of
  u^{components of (V, Y)} x^{q-|Y|} y^{|Y|}, read off the shifted Tutte
  polynomial of the same recursion: with rank = r - w and nullity = q - rank,
  each term a_{ij} s^i t^j of T(s, t) is the term
  a_{ij} u^(w+i) x^(nullity+i-j) y^(rank-i+j) of N, because a subset of
  rank r(Y) has i = rank - r(Y) and j = |Y| - r(Y) (Negami, "Polynomial
  invariants of graphs", Trans. AMS 299, 1987).
* Chromatic polynomial P(lam) = (-1)^{r-w} lam^w tau(1-lam, 0), by the same
  recursion run on the line y = 0 (a loop gives 0, a parallel class counts
  as one edge) and the same shift at x = -lam.

The direct 2^q subset expansion of N (``negami_subset_expansion``) is kept
only as the ground-truth oracle that the recursion is tested against on
small graphs; the tests read T and P off it themselves.
"""

from __future__ import annotations

from array import array

from .graphs import (
    Frozen,
    MultiGraph,
    _adjacency,
    _canonical_search,
    blocks,
    # not called here: the benchmark's tracer (perfbench/spans.py) wraps
    # this module's canonical_key, so the name stays importable from it
    canonical_key,
    component_count,
    contract_edges,
    delete_edges,
    encoding,
    submap,
)
from .polynomials import (
    Polynomial,
    # not called here: the benchmark's tracer (perfbench/spans.py) wraps
    # these two names on this module, so they stay importable from it
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


class TuttePair(Frozen):
    """Tutte polynomial in both coordinate systems.

    ``shifted`` is ``classic`` with x -> s+1, y -> t+1; the two carry the
    same information and the criteria are stated on the shifted form.
    Unhashable, as Polynomial is.
    """

    _fields = ("classic", "shifted")

    def __init__(self, classic: Polynomial, shifted: Polynomial):
        object.__setattr__(self, "classic", classic)
        object.__setattr__(self, "shifted", shifted)


class NegamiPolynomial(Frozen):
    """Three-variable subset-expansion polynomial plus the source graph's
    vertex/edge/component counts needed by downstream specializations.
    Unhashable, as Polynomial is."""

    _fields = ("polynomial", "vertex_count", "edge_count", "components")

    def __init__(
        self, polynomial: Polynomial, vertex_count: int, edge_count: int, components: int
    ):
        for exps in polynomial.terms:
            eu, ex, ey = exps
            if ex + ey != edge_count:
                raise ValueError(
                    f"term u^{eu}*x^{ex}*y^{ey} violates x+y degree {edge_count}"
                )
            if not components <= eu <= vertex_count:
                raise ValueError(
                    f"u-exponent {eu} outside {components}..{vertex_count}"
                )
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edge_count", edge_count)
        object.__setattr__(self, "components", components)


# -- Tutte by deletion-contraction -----------------------------------------

_tutte_cache: dict = {}
_chromatic_cache: dict = {}


def clear_caches():
    _tutte_cache.clear()
    _chromatic_cache.clear()


def _layout(vertices: int, edges: int, y_zero: bool):
    """The packing (W, D) of a block with q = ``edges`` edges and r =
    ``vertices`` vertices: c x^i y^j is c in the W-bit slot at bit
    W*(i*D + j).

    W is q + 1 rounded up to a multiple of 64, so a slot holds
    2^q >= T(1, 1) of the block and of every minor of it, in whole 64-bit
    words.  D is 1 on the line y = 0; otherwise it exceeds the nullity
    q - r + 1, and is at least 16 below 64 edges, so that small blocks (all
    those of simple graphs on at most 7 vertices) share one layout and pass
    values between them unchanged.
    """
    width = (edges // 64 + 1) * 64
    if y_zero:
        return width, 1
    return width, max(edges - vertices + 2, 16 if edges < 64 else 1)


def _ones(k: int, step: int) -> int:
    """1 + z + ... + z^(k-1) for z = 2^step (step a multiple of 8), built
    from bytes in time linear in its length."""
    return int.from_bytes((1).to_bytes(step // 8, "little") * k, "little")


def _pack(terms: dict, layout) -> int:
    """The packed int of a term table {(i, j): c}, written as bytes."""
    width, depth = layout
    size = width // 8
    data = bytearray(size * (1 + max(i * depth + j for i, j in terms)))
    for (i, j), c in terms.items():
        at = size * (i * depth + j)
        data[at : at + size] = c.to_bytes(size, "little")
    return int.from_bytes(data, "little")


# a translation table that maps every nonzero byte to 1
_NONZERO = bytes([0] + [1] * 255)


def _unpack(packed: int, layout) -> dict:
    """The term table {(i, j): c} of a packed tau, in time linear in its
    bytes: ``find`` jumps from one nonzero slot to the next."""
    width, depth = layout
    size = width // 8
    data = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    flags = data.translate(_NONZERO)
    terms = {}
    at = flags.find(1)
    while at >= 0:
        k = at // size
        terms[divmod(k, depth)] = int.from_bytes(data[k * size : (k + 1) * size], "little")
        at = flags.find(1, (k + 1) * size)
    return terms


def _repack(packed: int, source, target) -> int:
    """A value packed under ``source`` moved to ``target``, whose W is no
    smaller and whose D exceeds the value's y-degree: one slice of 64-bit
    words per column and word of a slot, so linear in the bytes."""
    if source == target:
        return packed
    (w1, d1), (w2, d2) = source, target
    a, b = w1 // 64, w2 // 64
    rows = -(-packed.bit_length() // (w1 * d1))
    words = array("Q", packed.to_bytes(8 * a * d1 * rows, "little"))
    out = array("Q", bytes(8 * b * d2 * rows))
    for j in range(min(d1, d2)):
        for t in range(a):
            out[j * b + t :: b * d2] = words[j * a + t :: a * d1]
    return int.from_bytes(out, "little")


def _default_chooser(adj) -> int:
    """A neighbour of vertex 0, where earlier contractions merged, in its
    largest parallel class; ties go to the neighbour of larger degree, then
    to the smallest.  adj is a block with no series path when this runs."""
    row = adj[0]
    return max(sorted(row), key=lambda w: (row[w], sum(adj[w].values())))


def _split(adj):
    """The maps of the blocks of adj with two or more edges, and adj's
    number of bridges."""
    bridges = 0
    pieces = []
    for block in blocks(adj):
        if len(block) == 2 and adj[block[0]][block[1]] == 1:
            bridges += 1
        else:
            pieces.append(submap(adj, block))
    return pieces, bridges


def _times(pieces, memo, y_zero: bool) -> dict:
    """The product of tau of the block maps ``pieces``, as a term table.
    Each block is packed under its own layout, but the product is taken
    term by term: k blocks fill a share of their joint
    (rank+1) x (nullity+1) box that shrinks with k ((x + y)^k has k + 1
    terms in (k + 1)^2 slots), so a packed product would cost the box, not
    the terms."""
    product = Polynomial.constant(TUTTE_CLASSIC_VARS, 1)
    for h in pieces:
        layout = _layout(len(h), sum(sum(row.values()) for row in h) // 2, y_zero)
        tau = _unpack(_tau_block(h, memo, layout), layout)
        product = product * Polynomial._trusted(TUTTE_CLASSIC_VARS, tau)
    return product.terms


def _tau(adj, loops: int, memo, layout) -> int:
    """tau of the map adj with ``loops`` loops, packed under ``layout``, or
    tau(G; x, 0) when its D is 1: one block stays packed, several multiply
    term by term, and the result is shifted by x^bridges y^loops."""
    width, depth = layout
    if loops and depth == 1:
        return 0
    pieces, bridges = _split(adj)
    if len(pieces) > 1:
        result = _pack(_times(pieces, memo, depth == 1), layout)
    else:
        result = _tau_block(pieces[0], memo, layout) if pieces else 1
    return result << width * (bridges * depth + loops)


def _tau_block(adj, memo, layout) -> int:
    """Packed tau, under ``layout``, of the map of a 2-connected block with
    at least two edges.  The closed forms are written in ``layout``; a
    series path and a split run under the block's own layout, which its
    minors share, and the result moves into ``layout`` once.

    Every other block is memoized under its map as bytes in label order,
    and a split block also under its canonical key: the same bytes in the
    order of its canonical search's minimum leaf.  Both keys are one
    encoding, so equal bytes mean equal maps, hence equal tau; the map and
    the line determine the own layout, which is (W, 1) on y = 0 and has
    D >= 3 otherwise (q > n here), so the key (own layout, bytes)
    determines the packed value exactly and keeps the Tutte and chromatic
    lines apart in one dict.  Deletion keeps labels and ``submap``
    renumbers a block by its sorted vertices, so the same labelled block
    recurs across the branches of one call and across calls; the canonical
    key, dearer, lets isomorphic blocks share a value and is taken only
    when it can hit.  Isomorphic blocks share the shape key (own layout,
    sorted degrees): the first split block of a shape is computed
    unsearched and parked there as [(map, labelled key)]; the next labelled
    miss of the shape keys the parked map canonically, empties the list
    (kept as the mark of a seen shape) and looks itself up.  So every block
    that could give a canonical hit is keyed before a later one looks it
    up, and the recursion visits the nodes a search on every miss would."""
    width, depth = layout
    y_zero = depth == 1
    x = 1 << width * depth
    n = len(adj)
    if n == 2:
        # k parallel edges: x + y + ... + y^(k-1), which is x on y = 0
        return x if y_zero else x - 1 + _ones(adj[0][1], width)
    if y_zero:
        # on y = 0 a parallel class is worth one edge
        adj = [dict.fromkeys(row, 1) for row in adj]
    degree = [sum(row.values()) for row in adj]
    q = sum(degree) // 2
    if q == n:
        # a 2-connected block with as many edges as vertices is a cycle:
        # x + ... + x^(q-1) + y
        cycle = _ones(q, width * depth) - 1
        return cycle if y_zero else cycle + (1 << width)

    # the memo holds each block under its own layout, so an entry is the
    # size of its block and serves every graph that has the block
    own = _layout(n, q, y_zero)
    loopless = [0] * n
    labelled = (own, encoding(adj, loopless, range(n)))
    cached = memo.get(labelled)
    if cached is not None:
        return _repack(cached, own, layout)
    path = _series_path(adj, degree)
    if path:
        # T = (1 + x + ... + x^(k-1)) T(G - P) + T(G / P); edges joining
        # the ends of P directly are loops of G / P
        rest = _tau(delete_edges(adj, path), 0, memo, own)
        joined = _tau(*contract_edges(adj, path), memo, own)
        cached = _ones(len(path), own[0] * own[1]) * rest + joined
    else:
        shape = (own, tuple(sorted(degree)))
        parked = memo.get(shape)
        key = labelled
        if parked is not None:
            for other, at in parked:
                memo[own, _canonical_search(loopless, other)[0]] = memo[at]
            parked.clear()
            key = (own, _canonical_search(loopless, adj)[0])
            cached = memo.get(key)
        if cached is None:
            w = _default_chooser(adj)
            parallel = [(0, w)]
            # T = T(G - E) + (1 + y + ... + y^(k-1)) T(G / E) for the
            # class E of k edges (k = 1 on y = 0)
            cached = _tau(delete_edges(adj, parallel), 0, memo, own) + _ones(
                adj[0][w], own[0]
            ) * _tau(*contract_edges(adj, parallel), memo, own)
            memo[key] = cached
        if parked is None:
            # parked only now that memo[labelled] holds its value: a
            # recursion cut short parks no block whose value is missing
            memo[shape] = [(adj, labelled)]
    memo[labelled] = cached
    return _repack(cached, own, layout)


def _series_path(adj, degree):
    """The vertex pairs of a maximal path through degree-2 vertices, or []
    if no vertex has degree 2.  In a 2-connected block that is not a cycle
    the path runs between two distinct vertices of degree at least 3, and
    each of its classes is one edge."""
    start = next((v for v, d in enumerate(degree) if d == 2), None)
    if start is None:
        return []
    path = []
    for first in adj[start]:
        prev, v = start, first
        path.append((prev, v))
        while degree[v] == 2:
            a, b = adj[v]
            prev, v = v, (b if a == prev else a)
            path.append((prev, v))
    return path


def _horner(packed: int, row: int) -> int:
    """p(x + 1) for p packed with one power of x per ``row`` bits (a
    multiple of 8), by g <- g (x + 1) + p_i from the top row down; each p_i
    is a slice of p's bytes, so no step shifts p itself."""
    size = row // 8
    data = packed.to_bytes(-(-packed.bit_length() // row) * size, "little")
    shifted = 0
    for at in range(len(data) - size, -1, -size):
        shifted = (shifted << row) + shifted + int.from_bytes(data[at : at + size], "little")
    return shifted


def _transpose(packed: int, width: int, depth: int):
    """A value packed under (width, depth) with x-rows and y-columns,
    repacked with y-rows and x-columns, and its number of x-rows: one slice
    of 64-bit words per column and word of a slot, as in ``_repack``."""
    a = width // 64
    rows = -(-packed.bit_length() // (width * depth))
    words = array("Q", packed.to_bytes(8 * a * depth * rows, "little"))
    out = array("Q", bytes(len(words) * 8))
    for j in range(depth):
        for t in range(a):
            out[j * rows * a + t : (j + 1) * rows * a : a] = words[j * a + t :: a * depth]
    return int.from_bytes(out, "little"), rows


def _taylor_shift(terms: dict, width: int) -> dict:
    """The term table of p(x + 1, y + 1) for p = ``terms``, packed once with
    D = its y-degree + 1, which the shift keeps.  Every coefficient of p and
    of the result must lie in 0 .. 2^width - 1; those of the steps between
    are then at most those of the result."""
    depth = 1 + max(j for _, j in terms)
    packed = _horner(_pack(terms, (width, depth)), width * depth)
    packed, rows = _transpose(packed, width, depth)
    packed = _horner(packed, width * rows)
    return {(i, j): c for (j, i), c in _unpack(packed, (width, rows)).items()}


def _binomial_row(k: int, at: int) -> Polynomial:
    """(1 + s)^k if ``at`` is 0, (1 + t)^k if it is 1, with each coefficient
    from the one before as c (k - i) / (i + 1)."""
    terms, c = {}, 1
    for i in range(k + 1):
        terms[(i, 0) if at == 0 else (0, i)] = c
        c = c * (k - i) // (i + 1)
    return Polynomial._trusted(TUTTE_SHIFTED_VARS, terms)


def _shifted(g: MultiGraph, terms: dict, bridges: int, loops: int) -> Polynomial:
    """tau(s + 1, t + 1) of g from the product ``terms`` of tau of its
    blocks: the blocks are shifted packed, with the W of g's layout, and
    x^bridges y^loops, which would only enlarge the Horner passes, enters
    afterwards as (s + 1)^bridges (t + 1)^loops."""
    width, _ = _layout(g.vertex_count, g.edge_count, True)
    shifted = Polynomial._trusted(TUTTE_SHIFTED_VARS, _taylor_shift(terms, width))
    for at, k in ((0, bridges), (1, loops)):
        if k:
            shifted = shifted * _binomial_row(k, at)
    return shifted


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
    loops, adj = _adjacency(g)
    loops = sum(loops)
    pieces, bridges = _split(adj)
    terms = _times(pieces, memo, False)
    classic = {(i + bridges, j + loops): c for (i, j), c in terms.items()}
    return TuttePair(
        classic=Polynomial._trusted(TUTTE_CLASSIC_VARS, classic),
        shifted=_shifted(g, terms, bridges, loops),
    )


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
        polynomial=Polynomial._trusted(NEGAMI_VARS, table),
        vertex_count=r,
        edge_count=q,
        components=w,
    )


def negami_polynomial(g: MultiGraph) -> NegamiPolynomial:
    """The Negami polynomial of g, converted from the memoized Tutte
    polynomial (``negami_from_tutte``); ``negami_subset_expansion`` is its
    independent test oracle."""
    return negami_from_tutte(g, tutte_deletion_contraction(g).shifted)


# -- chromatic polynomial ----------------------------------------------------


def chromatic_deletion_contraction(g: MultiGraph, *, cache=None) -> Polynomial:
    """Proper-coloring counting polynomial (-1)^(r-w) λ^w tau(1-λ, 0), with
    tau(x, 0) from the Tutte recursion run on the line y = 0; any loop forces
    the zero polynomial.  ``cache`` overrides the shared session memo."""
    memo = _chromatic_cache if cache is None else cache
    loops, adj = _adjacency(g)
    if any(loops):
        return Polynomial.zero(CHROMATIC_VARS)
    pieces, bridges = _split(adj)
    w = component_count(g)
    sign = -1 if (g.vertex_count - w) % 2 else 1
    # tau(1 - λ, 0) is tau(x + 1, 0) at x = -λ
    shifted = _shifted(g, _times(pieces, memo, True), bridges, 0).terms
    return Polynomial._trusted(
        CHROMATIC_VARS, {(i + w,): (-sign if i % 2 else sign) * c for (i, _), c in shifted.items()}
    )
