"""Independent checks of the program's outputs.

Nothing here calls into graphperiod: the spanning-tree count, the component
count, the polynomial parser and the automorphism checks are written out
again so that a defect in the program cannot hide in its own checker.
Polynomials are plain dicts mapping exponent tuples to integer coefficients.
"""

from __future__ import annotations

import math
import re
from itertools import product


class Mismatch(Exception):
    """An output of the program failed verification."""


def require(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


# -- graph facts --------------------------------------------------------


def components(n: int, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def spanning_tree_count(n: int, edges) -> int:
    """Kirchhoff: any cofactor of the Laplacian, by exact Bareiss
    elimination.  Loops do not count; parallel edges do.  0 when
    disconnected."""
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    prev = 1
    sign = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


# -- polynomial arithmetic on dicts ----------------------------------------


def evaluate(terms: dict, point, modulus=None) -> int:
    total = 0
    for exps, coeff in terms.items():
        value = coeff
        for x, e in zip(point, exps):
            value *= x**e
        total += value
    return total % modulus if modulus else total


def _univariate_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def chromatic_from_tutte(classic: dict, n: int, w: int) -> dict:
    """P(lam) = (-1)^(r-w) lam^w tau(1-lam, 0) with r = n vertices, as
    {(k,): coefficient}."""
    one_minus = [1, -1]
    total = [0]
    for (i, j), coeff in classic.items():
        if j:
            continue
        power = [1]
        for _ in range(i):
            power = _univariate_mul(power, one_minus)
        term = [coeff * c for c in power]
        if len(term) > len(total):
            total.extend([0] * (len(term) - len(total)))
        for k, c in enumerate(term):
            total[k] += c
    sign = -1 if (n - w) % 2 else 1
    return {(k + w,): sign * c for k, c in enumerate(total) if c}


def falling_factorial(n: int, modulus=None) -> dict:
    """Chromatic polynomial of the complete graph K_n: lam (lam-1)...(lam-n+1)."""
    poly = [1]
    for i in range(n):
        poly = _univariate_mul(poly, [-i, 1])
    if modulus:
        poly = [c % modulus for c in poly]
    return {(k,): c for k, c in enumerate(poly) if c}


def proper_colourings(n: int, edges, colours: int) -> int:
    return sum(
        all(c[u] != c[v] for u, v in edges) for c in product(range(colours), repeat=n)
    )


# -- polynomial text ------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)\*)?(.+)$")


def parse_polynomial(text: str, variables) -> dict:
    """Parse the program's rendering: terms joined by ' + ' / ' - ', each a
    coefficient and/or '*'-joined factors 'v' or 'v^e'."""
    text = text.strip()
    index = {name: i for i, name in enumerate(variables)}
    if text == "0":
        return {}
    chunks = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if s == "+" else -1 for s in chunks[1::2]]
    terms = {}
    for sign, body in zip(signs, chunks[0::2]):
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        exps = [0] * len(variables)
        if body.isdigit():
            coeff = int(body)
        else:
            match = _TERM.match(body)
            require(match is not None, f"unparsable term {body!r}")
            coeff = int(match.group(1) or 1)
            for factor in match.group(2).split("*"):
                name, _, power = factor.partition("^")
                require(name in index, f"unknown variable {name!r} in {text!r}")
                exps[index[name]] += int(power or 1)
        key = tuple(exps)
        require(key not in terms, f"repeated monomial in {text!r}")
        terms[key] = sign * coeff
    return terms


# -- checks on library results ----------------------------------------------


def check_tutte(n: int, edges, classic: dict, shifted: dict):
    """T(1,1) = spanning trees and T(2,2) = 2^q on the classic form, and the
    shifted form agrees at the same points."""
    q = len(edges)
    if components(n, edges) == 1:
        trees = spanning_tree_count(n, edges)
        require(evaluate(classic, (1, 1)) == trees, "tau(1,1) != spanning-tree count")
        require(evaluate(shifted, (0, 0)) == trees, "T(0,0) != spanning-tree count")
    require(evaluate(classic, (2, 2)) == 2**q, "tau(2,2) != 2^q")
    require(evaluate(shifted, (1, 1)) == 2**q, "T(1,1) != 2^q")


def check_chromatic(n: int, edges, classic: dict, chromatic: dict):
    """The chromatic polynomial equals the specialisation of a verified
    Tutte polynomial."""
    require(
        chromatic == chromatic_from_tutte(classic, n, components(n, edges)),
        "chromatic polynomial != (-1)^(r-w) lam^w tau(1-lam, 0)",
    )


# -- automorphisms -----------------------------------------------------------


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if not seen[start]:
            cycle = []
            v = start
            while not seen[v]:
                seen[v] = True
                cycle.append(v)
                v = perm[v]
            out.append(cycle)
    return out


def check_automorphism(n: int, edges, vertex_perm, edge_perm):
    require(sorted(vertex_perm) == list(range(n)), "vertex map is not a permutation")
    require(sorted(edge_perm) == list(range(len(edges))), "edge map is not a permutation")
    for e, (u, v) in enumerate(edges):
        a, b = vertex_perm[u], vertex_perm[v]
        require(
            sorted(edges[edge_perm[e]]) == sorted((a, b)),
            f"edge {e} is not mapped onto the image of its endpoints",
        )


def check_free_period(n: int, edges, vertex_perm, edge_perm, p: int):
    """A witness of a free period of order p: an automorphism of order
    exactly p whose edge action has no fixed point."""
    check_automorphism(n, edges, vertex_perm, edge_perm)
    order = 1
    for cycle in _cycles(vertex_perm) + _cycles(edge_perm):
        order = math.lcm(order, len(cycle))
    require(order == p, f"witness has order {order}, expected {p}")
    require(all(e != f for e, f in enumerate(edge_perm)), "witness fixes an edge")


def quotient_of(n: int, edges, vertex_perm, edge_perm):
    """Vertex orbits (ascending, ordered by smallest member) and the
    quotient's sorted edge list under the same numbering."""
    orbits = sorted((sorted(c) for c in _cycles(vertex_perm)), key=min)
    label = [0] * n
    for i, orbit in enumerate(orbits):
        for v in orbit:
            label[v] = i
    quotient_edges = []
    for cycle in _cycles(edge_perm):
        u, v = edges[min(cycle)]
        quotient_edges.append(tuple(sorted((label[u], label[v]))))
    return orbits, sorted(quotient_edges)


def parse_edge_list(text: str):
    n = None
    edges = []
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if n is None:
            require(fields[0] == "n" and len(fields) == 2, f"bad header {line!r}")
            n = int(fields[1])
        else:
            require(fields[0] == "e" and len(fields) == 3, f"bad edge line {line!r}")
            edges.append((int(fields[1]), int(fields[2])))
    require(n is not None, "missing header")
    return n, edges
