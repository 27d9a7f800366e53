#!/usr/bin/env python3
"""Survey of small connected simple graphs: which have free periods of prime
order, and do all congruence criteria hold on every one of them (they must;
the criteria are necessary conditions).

Usage: python scripts/periodicity_survey.py [max_vertices] [primes...]
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from graphperiod.criteria import (
    check_chromatic_vanishing,
    check_negami_quotient_congruence,
    check_negami_shape,
    check_tutte_coefficients,
    check_tutte_quotient_congruence,
)
from graphperiod.families import connected_simple_graphs
from graphperiod.polynomials import is_prime
from graphperiod.symmetry import find_free_period, quotient_graph

USAGE = "usage: python scripts/periodicity_survey.py [max_vertices] [primes...]"


def parse_args(argv):
    """(max_vertices, primes) from the command line; ValueError when they
    are not a positive vertex count and primes."""
    max_vertices = int(argv[1]) if len(argv) > 1 else 6
    if max_vertices < 1:
        raise ValueError(f"max_vertices must be at least 1, got {max_vertices}")
    primes = tuple(int(a) for a in argv[2:]) or (2, 3, 5)
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
    return max_vertices, primes


def main(argv):
    try:
        max_vertices, primes = parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}\n{USAGE}", file=sys.stderr)
        return 2

    start = time.time()
    per_size = Counter()
    periodic = Counter()
    quotients = Counter()
    failures = []
    for g in connected_simple_graphs(max_vertices):
        per_size[g.vertex_count] += 1
        for p in primes:
            h = find_free_period(g, p)
            if h is None:
                continue
            periodic[(g.vertex_count, p)] += 1
            quotient = quotient_graph(g, h).quotient
            quotients[
                (quotient.vertex_count, quotient.edge_count)
            ] += 1
            reports = [
                check_negami_shape(g, p),
                check_tutte_coefficients(g, p),
                check_negami_quotient_congruence(g, h, p),
                check_tutte_quotient_congruence(g, h, p),
                check_chromatic_vanishing(g, h, p),
            ]
            for report in reports:
                if not report.passed:
                    failures.append((g, p, report))

    print(f"connected simple graphs per vertex count: {dict(sorted(per_size.items()))}")
    print(f"primes surveyed: {list(primes)}")
    print()
    print("free periods found (vertex count, p) -> graphs:")
    for key in sorted(periodic):
        print(f"  {key}: {periodic[key]}")
    print()
    print("quotient shapes (vertices, edges) -> occurrences:")
    for key in sorted(quotients):
        print(f"  {key}: {quotients[key]}")
    print()
    if failures:
        print(f"CRITERIA FAILURES ON PERIODIC GRAPHS: {len(failures)}  <- bug!")
        for g, p, report in failures[:10]:
            print(f"  {g!r} p={p} {report.criterion}")
        return 1
    total = sum(periodic.values())
    print(f"all criteria passed on all {total} periodic (graph, p) pairs "
          f"in {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
