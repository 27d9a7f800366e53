"""Command-line front end.

Subcommands: ``compute`` (print a polynomial), ``check`` (run one criterion),
``exclude`` (batch criteria over primes), ``oracle`` (automorphism search),
``quotient`` (orbits and quotient graph).  Exit status: 0 pass/not-excluded,
1 fail/excluded (or nothing found), 2 usage or input errors and internal
errors, so a crash is never read as a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# criteria and invariants are imported inside the handlers that run them,
# so a command loads only the modules it uses.  The benchmark's tracer
# (perfbench/spans.py) wraps named_graph, parse_edge_list, render_edge_list,
# reduce_mod_p, enumerate_automorphisms, find_free_period, quotient_graph
# and orbits on this module, so those names stay imported here.
from .graphs import (
    NAMED_GRAPHS,
    MultiGraph,
    named_graph,
    parse_edge_list,
    render_edge_list,
)
from .polynomials import reduce_mod_p, require_prime
from .symmetry import (
    DEFAULT_VERTEX_LIMIT,
    enumerate_automorphisms,
    find_free_period,
    # not called here: _quotient reads the orbits from the QuotientMap
    orbits,
    quotient_graph,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

CRITERION_IDS = (
    "thm1.1",
    "cor1.2",
    "cor1.3",
    "thm3.1",
    "cor3.2",
    "chromatic-remark",
)


def load_graph(spec: str) -> tuple[MultiGraph, str]:
    """Resolve --graph: a known name spec like ``cycle:5`` wins, otherwise the
    value is read as a file in the edge-list format."""
    name, _, raw_params = spec.partition(":")
    if name in NAMED_GRAPHS:
        params = []
        if raw_params:
            for chunk in raw_params.split(","):
                if not chunk.isdecimal():
                    raise ValueError(
                        f"bad parameter {chunk!r} in graph spec {spec!r}"
                    )
                params.append(int(chunk))
        return named_graph(name, *params), spec
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read()), spec
    raise ValueError(
        f"graph spec {spec!r} is neither a named graph "
        f"({', '.join(NAMED_GRAPHS)}) nor an existing file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphperiod",
        description="graph polynomials and periodicity-exclusion criteria",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, handler):
        p.add_argument("--graph", required=True, help="named spec or file path")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(handler=handler)

    def add_searching(p, handler):
        add_common(p, handler)
        p.add_argument(
            "--oracle-limit",
            type=int,
            default=DEFAULT_VERTEX_LIMIT,
            help="vertex limit for exhaustive automorphism search",
        )

    p_compute = sub.add_parser("compute", help="print a graph polynomial")
    p_compute.add_argument("invariant", choices=("tutte", "negami", "chromatic"))
    add_common(p_compute, _compute)
    p_compute.add_argument("--mod", type=int, default=None, help="reduce mod a prime")
    p_compute.add_argument(
        "--fold",
        action="store_true",
        help="fold exponents modulo v^p - v (requires --mod): only u for "
        "negami, every variable otherwise",
    )
    p_compute.add_argument(
        "--classic",
        action="store_true",
        help="print tau(x,y) instead of the shifted T(s,t)",
    )

    p_check = sub.add_parser("check", help="run one criterion")
    p_check.add_argument("criterion", choices=CRITERION_IDS)
    add_searching(p_check, _check)
    p_check.add_argument("--p", type=int, required=True)
    p_check.add_argument(
        "--assert-self-dual",
        action="store_true",
        help="assert planar self-duality (required by cor1.3)",
    )

    p_exclude = sub.add_parser("exclude", help="batch criteria over primes")
    add_searching(p_exclude, _exclude)
    p_exclude.add_argument(
        "--primes", required=True, help="comma-separated primes, e.g. 2,3,5"
    )
    p_exclude.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check excluded primes against the exhaustive search",
    )

    p_oracle = sub.add_parser("oracle", help="symmetry oracle access")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_action", required=True)
    p_period = oracle_sub.add_parser("find-period", help="search a free period")
    add_searching(p_period, _find_period)
    p_period.add_argument("--p", type=int, required=True)
    p_autos = oracle_sub.add_parser("automorphisms", help="enumerate automorphisms")
    add_searching(p_autos, _automorphisms)

    p_quotient = sub.add_parser("quotient", help="orbits and quotient graph")
    add_searching(p_quotient, _quotient)
    p_quotient.add_argument("--p", type=int, required=True)

    return parser


def request_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments argparse cannot: primes, and that --fold
    comes with --mod; returns ``args``, with --primes as a tuple."""
    if getattr(args, "p", None) is not None:
        require_prime(args.p, "--p")
    if getattr(args, "mod", None) is not None:
        require_prime(args.mod, "--mod")
    if getattr(args, "primes", None) is not None:
        chunks = [chunk for chunk in args.primes.split(",") if chunk]
        args.primes = tuple(require_prime(int(chunk), "--primes") for chunk in chunks)
        if not args.primes:
            raise ValueError("--primes must list at least one prime")
    if getattr(args, "fold", False) and args.mod is None:
        raise ValueError("--fold requires --mod")
    return args


# Each handler returns (exit code, JSON payload, a function rendering the
# text output); the text is rendered only when it is printed.  A payload of
# None means the handler has already reported on stderr.


def _compute(args, g, label):
    from . import invariants as inv

    kind = args.invariant
    if kind == "tutte":
        pair = inv.tutte_deletion_contraction(g)
        poly = pair.classic if args.classic else pair.shifted
    elif kind == "negami":
        poly = inv.negami_polynomial(g).polynomial
    else:
        poly = inv.chromatic_deletion_contraction(g)
    if args.mod is not None:
        poly = reduce_mod_p(poly, args.mod)
        if args.fold:
            # fold the variables the congruences quotient by: only u for the
            # three-variable Negami polynomial, every variable otherwise
            poly = poly.fold(("u",) if kind == "negami" else poly.variables)
    payload = {
        "graph": label,
        "invariant": kind,
        "variables": list(poly.variables),
        "modulus": args.mod,
        "folded": args.fold,
        "polynomial": str(poly),
    }
    return EXIT_PASS, payload, lambda: payload["polynomial"]


def _check(args, g, label):
    from . import criteria as crit

    cid, p = args.criterion, args.p
    if cid == "thm1.1":
        report = crit.check_negami_shape(g, p, graph_label=label)
    elif cid == "cor1.2":
        report = crit.check_tutte_coefficients(g, p, graph_label=label)
    elif cid == "cor1.3":
        if not args.assert_self_dual:
            raise ValueError("cor1.3 requires --assert-self-dual")
        report = crit.check_selfdual_vertex_count(
            g, p, args.assert_self_dual, graph_label=label
        )
    else:
        witness = find_free_period(g, p, limit=args.oracle_limit)
        if witness is None:
            raise ValueError(
                f"{cid} needs a free period of order {p} as witness and the "
                "oracle found none"
            )
        check = {
            "thm3.1": crit.check_negami_quotient_congruence,
            "cor3.2": crit.check_tutte_quotient_congruence,
            "chromatic-remark": crit.check_chromatic_vanishing,
        }[cid]
        report = check(g, witness, p, graph_label=label)
    code = EXIT_PASS if report.passed else EXIT_FAIL
    return code, report.to_dict(), lambda: crit.render_report(report)


def _exclude(args, g, label):
    from . import criteria as crit

    reports = crit.exclusion_report(
        g, args.primes, graph_label=label, use_oracle=args.oracle,
        oracle_limit=args.oracle_limit,
    )
    excluded = crit.excluded_primes(reports)
    payload = {
        "graph": label,
        "excluded": excluded,
        "reports": [r.to_dict() for r in reports],
    }

    def render():
        lines = []
        for p in sorted(set(args.primes)):
            verdict = "excluded" if p in excluded else "not excluded"
            failing = sorted(
                r.criterion for r in reports if r.p == p and r.verdict == "fail"
            )
            detail = f" ({', '.join(failing)} fail)" if failing else ""
            lines.append(f"p={p}: {verdict}{detail}")
        for report in reports:
            lines += ["", crit.render_report(report)]
        return "\n".join(lines)

    return (EXIT_FAIL if excluded else EXIT_PASS), payload, render


def _find_period(args, g, label):
    witness = find_free_period(g, args.p, limit=args.oracle_limit)
    payload = {
        "graph": label,
        "p": args.p,
        "found": witness is not None,
        "automorphism": witness.to_dict() if witness else None,
    }

    def render():
        if witness is None:
            return f"no free period of order {args.p}"
        return json.dumps(payload["automorphism"])

    return (EXIT_PASS if witness is not None else EXIT_FAIL), payload, render


def _automorphisms(args, g, label):
    autos = [a.to_dict() for a in enumerate_automorphisms(g, limit=args.oracle_limit)]
    payload = {"graph": label, "count": len(autos), "automorphisms": autos}
    return EXIT_PASS, payload, lambda: "\n".join(
        [f"count: {len(autos)}"] + [json.dumps(a) for a in autos]
    )


def _quotient(args, g, label):
    witness = find_free_period(g, args.p, limit=args.oracle_limit)
    if witness is None:
        print(f"no free period of order {args.p}; no quotient exists", file=sys.stderr)
        return EXIT_FAIL, None, None
    qmap = quotient_graph(g, witness)
    payload = {
        "graph": label,
        "p": args.p,
        "automorphism": witness.to_dict(),
        "vertex_orbits": [list(o) for o in qmap.vertex_orbits],
        "edge_orbits": [list(o) for o in qmap.edge_orbits],
        "quotient": render_edge_list(qmap.quotient),
    }
    return EXIT_PASS, payload, lambda: "\n".join([
        f"automorphism: {json.dumps(payload['automorphism'])}",
        f"vertex orbits: {payload['vertex_orbits']}",
        f"edge orbits: {payload['edge_orbits']}",
        "quotient:",
        payload["quotient"].rstrip("\n"),
    ])


def run(args: argparse.Namespace) -> int:
    g, label = load_graph(args.graph)
    code, payload, render = args.handler(args, g, label)
    if payload is not None:
        print(json.dumps(payload, ensure_ascii=False) if args.json else render())
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_PASS
    try:
        return run(request_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: the graph is too deep for the recursion", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # exit 1 means "fail / excluded"; a crash must not read as a verdict
        print(
            f"error: internal error ({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
