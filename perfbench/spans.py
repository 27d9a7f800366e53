"""Spans around calls into graphperiod, recorded from outside the program.

``install`` replaces public functions with timing wrappers at the names the
calling module imported (``graphperiod.criteria.find_free_period`` is wrapped
separately from ``graphperiod.symmetry.find_free_period``), plus the
arithmetic methods of the polynomial classes.  No file of the program
changes; ``install`` returns a function that puts every original back.

A span has a name, a start, an end and a parent.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the durations of its
child spans; the spans of one process nest, so the self times of all spans
under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

STRUCTURAL = (
    "component_subgraphs",
    "bridges",
    "delete_edge",
    "delete_edges",
    "contract_edge",
    "contract_edges",
    "component_count",
    "is_connected",
)
RECURSION_STEPS = ("delete_edge", "delete_edges", "contract_edge", "contract_edges")
CRITERIA = {
    "thm1.1": "check_negami_shape",
    "cor1.2": "check_tutte_coefficients",
    "thm3.1": "check_negami_quotient_congruence",
    "cor3.2": "check_tutte_quotient_congruence",
    "chromatic-remark": "check_chromatic_vanishing",
}


class Tracer:
    """Spans of one pass, plus per-name totals (calls, self and total
    seconds) kept up to date as spans close, and named counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list = []
        self.self_s: list = []
        self.total_s: list = []
        self.counters: dict = {}
        self.memos: list = []
        self._stack: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        stack.append([idx, start, 0.0])
        return idx

    def close(self):
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        nid = self.span_name[idx]
        duration = end - start
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        self.total_s[nid] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator's work happens while it is consumed: the span covers
        producing every item, which happens at the first ``next``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                items = list(fn(*args, **kwargs))
            tracer.count(f"{name}.items", len(items))
            yield from items

        return traced

    def memo(self) -> dict:
        """A memo dict that counts lookups and hits; an untraced pass uses
        plain dicts instead."""
        memo = CountingMemo(self)
        self.memos.append(memo)
        return memo

    # -- export and merge -----------------------------------------------

    def dump(self) -> dict:
        spans = [
            [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_name))
        ]
        counters = dict(self.counters)
        counters["invariants.memo_entries"] = counters.get(
            "invariants.memo_entries", 0
        ) + sum(len(m) for m in self.memos)
        return {"names": self.names, "spans": spans, "counters": counters}

    def adopt(self, dumped: dict, parent: int):
        """Merge the spans of a child process under span ``parent`` of this
        tracer.  perf_counter reads the same monotonic clock in every
        process, so child times need no shift."""
        ids = [self.name_id(name) for name in dumped["names"]]
        base = len(self.span_name)
        spans = dumped["spans"]
        child_total = [0.0] * len(spans)
        for i, (_, par, start, end) in enumerate(spans):
            if par >= 0:
                child_total[par] += end - start
        for i, (nid, par, start, end) in enumerate(spans):
            nid = ids[nid]
            self.span_name.append(nid)
            self.span_parent.append(parent if par < 0 else base + par)
            self.span_start.append(start)
            self.span_end.append(end)
            self.calls[nid] += 1
            self.self_s[nid] += end - start - child_total[i]
            self.total_s[nid] += end - start
            if par < 0:
                self.self_s[self.span_name[parent]] -= end - start
        for key, value in dumped["counters"].items():
            self.count(key, value)

    def write(self, path):
        """Write every span as JSON: one list per field, names by index."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )


class _Span:
    __slots__ = ("tracer", "nid", "index")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.index = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close()
        return False


class CountingMemo(dict):
    """dict whose ``get`` records lookups and hits on the owning tracer."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def get(self, key, default=None):
        counters = self.tracer.counters
        counters["invariants.memo_lookups"] = counters.get("invariants.memo_lookups", 0) + 1
        if key in self:
            counters["invariants.memo_hits"] = counters.get("invariants.memo_hits", 0) + 1
            return self[key]
        return default


# -- counting hooks, run after a wrapped call returns ----------------------


def _count_vertices(tracer, args, result):
    tracer.count("graphs.canonical_key.vertices", args[0].vertex_count)


def _count_automorphisms(tracer, args, result):
    tracer.count("symmetry.automorphisms_enumerated", len(result))


def _count_witness(tracer, args, result):
    tracer.count("symmetry.find_free_period.found", result is not None)


def _count_verdict(tracer, args, result):
    tracer.count("criteria.reports")
    tracer.count("criteria.failed_reports", result.verdict == "fail")


def _targets():
    """(owner, attribute, span name, hook) for every wrapped callable; the
    hook "generator" marks a generator function."""
    from graphperiod import cli, criteria, families, invariants, polynomials, symmetry

    out = [
        (families, "connected_simple_graphs", "families.connected_simple_graphs", "generator"),
        (invariants, "canonical_key", "graphs.canonical_key", _count_vertices),
        (families, "canonical_key", "graphs.canonical_key", _count_vertices),
    ]
    out += [(invariants, n, f"graphs.{n}", None) for n in STRUCTURAL if hasattr(invariants, n)]
    out += [(criteria, n, f"graphs.{n}", None) for n in ("component_count", "is_connected")]
    out += [(cli, n, f"graphs.{n}", None) for n in ("named_graph", "parse_edge_list", "render_edge_list")]

    # invariants call each other, and cli calls them, through the module's
    # own globals; criteria imported three of them by name
    for n in (
        "tutte_deletion_contraction",
        "chromatic_deletion_contraction",
        "negami_polynomial",
        "negami_subset_expansion",
        "negami_from_tutte",
    ):
        out.append((invariants, n, f"invariants.{n}", None))
    for n in ("tutte_deletion_contraction", "chromatic_deletion_contraction", "negami_polynomial"):
        out.append((criteria, n, f"invariants.{n}", None))

    poly, modpoly = polynomials.Polynomial, polynomials.ModPolynomial
    out += [
        (poly, "__mul__", "polynomials.mul", None),
        (poly, "__rmul__", "polynomials.mul", None),
        (poly, "__add__", "polynomials.add", None),
        (poly, "__radd__", "polynomials.add", None),
        (poly, "__pow__", "polynomials.pow", None),
        (poly, "__str__", "polynomials.render", None),
        (modpoly, "__add__", "polynomials.mod_arith", None),
        (modpoly, "__sub__", "polynomials.mod_arith", None),
        (modpoly, "__mul__", "polynomials.mod_arith", None),
        (modpoly, "fold_variable", "polynomials.fold", None),
        (criteria, "power_mod", "polynomials.power_mod", None),
        (criteria, "reduce_mod_p", "polynomials.reduce_mod_p", None),
        (cli, "reduce_mod_p", "polynomials.reduce_mod_p", None),
        (invariants, "substitute", "polynomials.substitute", None),
        (invariants, "divide_exact_monomial", "polynomials.divide_exact_monomial", None),
    ]

    # find_free_period calls enumerate_automorphisms through symmetry's globals
    for owner in (symmetry, cli):
        out.append((owner, "enumerate_automorphisms", "symmetry.enumerate_automorphisms", _count_automorphisms))
    for owner in (symmetry, criteria, cli):
        out.append((owner, "find_free_period", "symmetry.find_free_period", _count_witness))
    for owner in (criteria, cli):
        out.append((owner, "quotient_graph", "symmetry.quotient_graph", None))
    out += [
        (criteria, "validate_free_period", "symmetry.validate_free_period", None),
        (cli, "orbits", "symmetry.orbits", None),
    ]

    # exclusion_report calls the checks through criteria's own globals
    for cid, n in CRITERIA.items():
        out.append((criteria, n, f"criteria.{cid}", _count_verdict))
    out += [
        (criteria, "exclusion_report", "criteria.exclusion_report", None),
        (criteria, "render_report", "criteria.render_report", None),
        (cli, "load_graph", "cli.load_graph", None),
        (cli, "run", "cli.run", None),
        (cli, "request_from_args", "cli.request_from_args", None),
        (cli, "build_parser", "cli.build_parser", None),
    ]
    return out


def install(tracer: Tracer):
    """Wrap every target and swap the session memos for counting ones.
    Returns a function that restores the originals."""
    from graphperiod import invariants

    saved = []
    for owner, attr, name, hook in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        if hook == "generator":
            setattr(owner, attr, tracer.wrap_generator(name, original))
        else:
            setattr(owner, attr, tracer.wrap(name, original, hook))
    for attr in ("_tutte_cache", "_chromatic_cache"):
        saved.append((invariants, attr, getattr(invariants, attr)))
        setattr(invariants, attr, tracer.memo())

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# -- per-module metrics --------------------------------------------------------

# every span name starts with one of these; their self times add up to the
# duration of the root span harness.solve
GROUPS = ("graphs", "invariants", "polynomials", "symmetry", "criteria", "families", "cli", "subprocess", "harness")


def unit_of(name: str) -> str:
    """Per-module metric names end in their unit."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), (".s", "s"), ("ratio", "1"), ("mean_n", "vertices"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(tracer: Tracer) -> dict:
    """Per-module metrics of one traced pass (metric name -> value)."""
    index = {name: i for i, name in enumerate(tracer.names)}
    counters = tracer.counters

    def calls(*names):
        return sum(tracer.calls[index[n]] for n in names if n in index)

    def self_s(*names):
        return sum(tracer.self_s[index[n]] for n in names if n in index)

    def total_s(name):
        return tracer.total_s[index[name]] if name in index else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    structural = [f"graphs.{n}" for n in STRUCTURAL]
    out = {
        "graphs.canonical_key.calls": calls("graphs.canonical_key"),
        "graphs.canonical_key.self_s": self_s("graphs.canonical_key"),
        "graphs.canonical_key.mean_n": ratio(
            counters.get("graphs.canonical_key.vertices", 0), calls("graphs.canonical_key")
        ),
        "graphs.structural.calls": calls(*structural),
        "graphs.structural.self_s": self_s(*structural),
        "invariants.recursion_nodes": calls(*(f"graphs.{n}" for n in RECURSION_STEPS)),
        "invariants.memo_entries": counters.get("invariants.memo_entries", 0)
        + sum(len(m) for m in tracer.memos),
        "invariants.memo_hit_ratio": ratio(
            counters.get("invariants.memo_hits", 0), counters.get("invariants.memo_lookups", 0)
        ),
        "invariants.tutte.self_s": self_s("invariants.tutte_deletion_contraction"),
        "invariants.chromatic.self_s": self_s("invariants.chromatic_deletion_contraction"),
        "invariants.negami_expansion.calls": calls("invariants.negami_subset_expansion"),
        "invariants.negami_expansion.self_s": self_s("invariants.negami_subset_expansion"),
        "invariants.negami_from_tutte.self_s": self_s("invariants.negami_from_tutte"),
        "polynomials.mul.calls": calls("polynomials.mul"),
        "polynomials.mul.self_s": self_s("polynomials.mul"),
        "polynomials.add.self_s": self_s("polynomials.add"),
        "polynomials.power_mod.calls": calls("polynomials.power_mod"),
        "polynomials.power_mod.self_s": self_s("polynomials.power_mod"),
        "polynomials.substitute.self_s": self_s("polynomials.substitute"),
        "polynomials.reduce_mod_p.self_s": self_s("polynomials.reduce_mod_p"),
        "symmetry.find_free_period.calls": calls("symmetry.find_free_period"),
        "symmetry.find_free_period.self_s": self_s("symmetry.find_free_period"),
        "symmetry.automorphisms_enumerated": counters.get("symmetry.automorphisms_enumerated", 0),
        "symmetry.period_found_ratio": ratio(
            counters.get("symmetry.find_free_period.found", 0), calls("symmetry.find_free_period")
        ),
        "symmetry.quotient_graph.self_s": self_s("symmetry.quotient_graph"),
    }
    for cid in list(CRITERIA) + ["exclusion_report"]:
        out[f"criteria.{cid}.calls"] = calls(f"criteria.{cid}")
        out[f"criteria.{cid}.self_s"] = self_s(f"criteria.{cid}")
    out["criteria.fail_ratio"] = ratio(
        counters.get("criteria.failed_reports", 0), counters.get("criteria.reports", 0)
    )
    out["families.connected_simple_graphs.s"] = total_s("families.connected_simple_graphs")
    out["families.graphs_generated"] = counters.get("families.connected_simple_graphs.items", 0)
    out["cli.load_graph_s"] = total_s("cli.load_graph")
    for group in GROUPS:
        out[f"{group}.self_s"] = sum(
            tracer.self_s[i] for i, name in enumerate(tracer.names) if name.split(".", 1)[0] == group
        )
    out["trace.spans"] = len(tracer.span_name)
    return out
