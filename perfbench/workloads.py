"""The four workloads: their inputs, one pass over those inputs, and the
check of every output.

A pass hands each input to the program in turn and verifies the result
before the next (one closed-loop client).  ``Pass.op`` records each
operation as passed, failed with an error, or failed because its output
was wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from graphperiod import criteria, families, invariants, symmetry
from graphperiod.graphs import named_graph, render_edge_list

from . import inputs, verify
from .spans import CRITERIA
from .verify import Mismatch, require

# Isomorphism-invariant totals of sweep7 over primes 2, 3, 5, 7, measured on
# the commit that introduced the benchmark: graphs, excluded (graph, prime)
# pairs, and pairs for which the oracle found a free period.
SWEEP7_TOTALS = {"graphs": 996, "excluded": 3787, "periodic": 107}

README_PETERSEN_MOD5 = "s^4 + s^9 + 2*t + 2*s^5*t + s*t^2 + t^6"


class CommandError(Exception):
    """A CLI command ended with an undocumented exit status or a traceback."""


@dataclass
class Pass:
    """Outcome of one pass: counts, every verified output in short form (to
    compare traced and untraced passes), and the first few failures."""

    tracer: object = None
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    child_rss_kib: int = 0
    output_bytes: int = 0
    results: list = field(default_factory=list)
    _op_s: object = field(default=None, init=False, repr=False)

    def memo(self):
        return {} if self.tracer is None else self.tracer.memo()

    @contextmanager
    def program(self):
        """Time a call into the program; an operation's latency is the sum
        of its program calls, without the benchmark's own checks."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._op_s = (self._op_s or 0.0) + time.perf_counter() - start

    def op(self, label: str, fn):
        self.attempted += 1
        self._op_s = None
        try:
            summary = fn()
        except Mismatch as exc:
            self._fail(label, f"wrong output: {exc}", wrong=True)
        except Exception:  # any program error is a failed operation, not a crash of the run
            self._fail(label, traceback.format_exc(limit=3).strip().splitlines()[-1], wrong=False)
        else:
            self.results.append(f"{label}={summary!r}")
        if self._op_s is not None:  # a pure check, such as sweep7's totals, has no latency
            self.latencies.append((label, self._op_s))

    def _fail(self, label, message, wrong):
        self.failed += 1
        self.wrong += wrong
        self.results.append(f"{label}=FAILED")
        if len(self.failures) < 5:
            self.failures.append(f"{label}: {message}")

    @property
    def digest(self) -> str:
        """Independent of the order in which the operations ran."""
        return hashlib.sha256("\n".join(sorted(self.results)).encode()).hexdigest()


def _terms(poly) -> tuple:
    return tuple(sorted(poly.terms.items()))


# -- poly-dense and poly-sparse ----------------------------------------------


def poly_pass(graphs, run: Pass):
    """Tutte polynomial (shifted form), then chromatic polynomial, of each
    graph: two operations, like two ``compute`` commands, each with a fresh
    memo.  The chromatic result is checked against the verified Tutte one."""
    for label, g in graphs:
        verified = {}

        def tutte():
            with run.program():
                pair = invariants.tutte_deletion_contraction(g, cache=run.memo())
            verify.check_tutte(g.vertex_count, g.endpoints, pair.classic.terms, pair.shifted.terms)
            verified["classic"] = pair.classic.terms
            return _terms(pair.shifted)

        def chromatic():
            with run.program():
                poly = invariants.chromatic_deletion_contraction(g, cache=run.memo())
            if "classic" not in verified:
                raise RuntimeError("no verified Tutte polynomial to check against")
            verify.check_chromatic(g.vertex_count, g.endpoints, verified["classic"], poly.terms)
            return _terms(poly)

        run.op(f"{label} tutte", tutte)
        run.op(f"{label} chromatic", chromatic)


# -- sweep7 --------------------------------------------------------------------

_QUOTIENT_CHECKS = ("thm3.1", "cor3.2", "chromatic-remark")


def sweep_pass(graphs, run: Pass):
    """exclusion_report over primes 2, 3, 5, 7 with the oracle on every
    graph, then the three quotient criteria on every periodic pair.  The
    session memo starts cold and is shared by all graphs of the pass."""
    invariants.clear_caches()
    totals = {"graphs": 0, "excluded": 0, "periodic": 0}
    for label, g in graphs:

        def op():
            with run.program():
                reports = criteria.exclusion_report(g, inputs.PRIMES, graph_label=label, use_oracle=True)
            excluded = tuple(criteria.excluded_primes(reports))
            periodic = tuple(
                p
                for p in inputs.PRIMES
                if any(f"free period of order {p} found" in n for r in reports if r.p == p for n in r.notes)
            )
            require(not set(excluded) & set(periodic), f"periodic primes {periodic} excluded")
            for p in periodic:
                with run.program():
                    h = symmetry.find_free_period(g, p)
                require(h is not None, f"no witness for periodic prime {p}")
                verify.check_free_period(g.vertex_count, g.endpoints, h.vertex_perm, h.edge_perm, p)
                for cid in _QUOTIENT_CHECKS:
                    with run.program():
                        report = getattr(criteria, CRITERIA[cid])(g, h, p, graph_label=label)
                    require(report.passed, f"{cid} fails on a {p}-periodic graph")
            totals["graphs"] += 1
            totals["excluded"] += len(excluded)
            totals["periodic"] += len(periodic)
            return excluded, periodic

        run.op(label, op)

    def check_totals():
        require(totals == SWEEP7_TOTALS, f"totals {totals} != {SWEEP7_TOTALS}")
        return totals

    run.op("totals", check_totals)


# -- cli-symmetric ---------------------------------------------------------------


@dataclass
class Command:
    label: str
    args: list
    exit_code: int
    check: object  # callable(stdout) -> summary, raises Mismatch


def _witness_check(g, p):
    def check(out):
        payload = json.loads(out)
        require(payload["found"], f"no free period of order {p} reported")
        h = payload["automorphism"]
        verify.check_free_period(g.vertex_count, g.endpoints, h["vertex_perm"], h["edge_perm"], p)
        return True

    return check


def _automorphisms_check(g, order):
    def check(out):
        payload = json.loads(out)
        autos = payload["automorphisms"]
        require(payload["count"] == order == len(autos), f"count {payload['count']}, expected {order}")
        require(len({tuple(a["vertex_perm"]) for a in autos}) == order, "repeated automorphism")
        for a in autos:
            verify.check_automorphism(g.vertex_count, g.endpoints, a["vertex_perm"], a["edge_perm"])
        return order

    return check


def _quotient_check(g, p):
    def check(out):
        payload = json.loads(out)
        h = payload["automorphism"]
        verify.check_free_period(g.vertex_count, g.endpoints, h["vertex_perm"], h["edge_perm"], p)
        orbits, quotient_edges = verify.quotient_of(g.vertex_count, g.endpoints, h["vertex_perm"], h["edge_perm"])
        require(payload["vertex_orbits"] == orbits, "vertex orbits differ from the witness's cycles")
        n, edges = verify.parse_edge_list(payload["quotient"])
        require(n == len(orbits), "quotient vertex count != number of vertex orbits")
        require(sorted(tuple(sorted(e)) for e in edges) == quotient_edges, "quotient edges differ")
        return n, quotient_edges

    return check


def _verdict_pass_check(out):
    require("verdict: pass" in out.splitlines(), "criterion fails on a periodic graph")
    return "pass"


def _excluded_check(expected):
    def check(out):
        payload = json.loads(out)
        require(payload["excluded"] == expected, f"excluded {payload['excluded']}, expected {expected}")
        return tuple(expected)

    return check


def _tutte_mod_check(g, p, folded):
    """Coefficients reduced mod p, exponents folded into 1..p-1 when asked,
    and T(0,0), T(1,1) congruent to the spanning-tree count and 2^q.
    Folding modulo v^p - v keeps every value on Z_p, so both points apply."""

    def check(out):
        terms = verify.parse_polynomial(out, ("s", "t"))
        require(all(0 < c < p for c in terms.values()), "coefficient not reduced mod p")
        if folded:
            require(all(e < p for exps in terms for e in exps), "exponent not folded")
        trees = verify.spanning_tree_count(g.vertex_count, g.endpoints)
        require(verify.evaluate(terms, (0, 0), p) == trees % p, "T(0,0) != spanning trees mod p")
        require(verify.evaluate(terms, (1, 1), p) == pow(2, g.edge_count, p), "T(1,1) != 2^q mod p")
        return tuple(sorted(terms.items()))

    return check


def _readme_fixture_check(out):
    require(out.strip() == README_PETERSEN_MOD5, f"{out.strip()!r} != README fixture")
    return out.strip()


def _chromatic_complete_check(n, p):
    def check(out):
        terms = verify.parse_polynomial(out, ("λ",))
        require(terms == verify.falling_factorial(n, p), "chromatic polynomial of K_n mod p wrong")
        return tuple(sorted(terms.items()))

    return check


def _negami_mod_check(g, p):
    """N(1,1,1) = 2^q, the spanning-tree coefficient u x^(q-r+1) y^(r-1),
    and (-1)^q N(lam,-1,1) = number of proper lam-colourings, all mod p."""

    def check(out):
        terms = verify.parse_polynomial(out, ("u", "x", "y"))
        n, edges, q = g.vertex_count, g.endpoints, g.edge_count
        require(verify.evaluate(terms, (1, 1, 1), p) == pow(2, q, p), "N(1,1,1) != 2^q mod p")
        trees = verify.spanning_tree_count(n, edges)
        require(terms.get((1, q - n + 1, n - 1), 0) == trees % p, "spanning-tree coefficient wrong")
        sign = -1 if q % 2 else 1
        for lam in range(p):
            value = sign * verify.evaluate(terms, (lam, -1, 1)) % p
            require(value == verify.proper_colourings(n, edges, lam) % p, f"N({lam},-1,1) wrong")
        return tuple(sorted(terms.items()))

    return check


def cli_commands(graphs: dict, paths: dict):
    """The command mix: a fixed multiset of documented commands.  Every
    (graph, p) pair below has a free period of order p, so find-period,
    quotient and the three quotient criteria must succeed on it."""
    cmds = []

    def add(label, args, exit_code, check):
        cmds.append(Command(label, args, exit_code, check))

    for name, p in (("k7", 7), ("k8", 7), ("k33", 3), ("k44", 2), ("q3", 2), ("q4", 2), ("petersen", 5), ("heawood", 7)):
        g = graphs[name]
        add(f"find-period {name} {p}", ["oracle", "find-period", "--graph", paths[name], "--p", str(p), "--json"], 0, _witness_check(g, p))
    for name in ("k33", "q3", "q4", "petersen", "heawood", "k7"):
        g = graphs[name]
        add(f"automorphisms {name}", ["oracle", "automorphisms", "--graph", paths[name], "--json"], 0, _automorphisms_check(g, inputs.CLI_GRAPHS[name][1]))
    for name, p in (("petersen", 5), ("k7", 7), ("heawood", 7), ("q3", 2)):
        g = graphs[name]
        add(f"quotient {name} {p}", ["quotient", "--graph", paths[name], "--p", str(p), "--json"], 0, _quotient_check(g, p))
    checks = [(cid, "k7", 7) for cid in _QUOTIENT_CHECKS] + [(cid, "petersen", 5) for cid in _QUOTIENT_CHECKS]
    checks += [("thm3.1", "k33", 3), ("cor3.2", "q3", 2), ("chromatic-remark", "k44", 2)]
    for cid, name, p in checks:
        add(f"check {cid} {name} {p}", ["check", cid, "--graph", paths[name], "--p", str(p)], 0, _verdict_pass_check)
    # excluded primes over 2, 3, 5, 7, measured on the commit that introduced
    # the benchmark and consistent with the oracle (--oracle cross-checks)
    for name, excluded in (("petersen", [2, 7]), ("k33", [2, 5, 7]), ("q3", [5, 7]), ("k7", [2, 5])):
        add(f"exclude {name}", ["exclude", "--graph", paths[name], "--primes", "2,3,5,7", "--oracle", "--json"], 1, _excluded_check(excluded))
    add("compute tutte petersen mod 5", ["compute", "tutte", "--graph", "petersen", "--mod", "5"], 0, _readme_fixture_check)
    # README example; it currently exits 1 with a NameError traceback, which
    # counts as a failed operation until the program is fixed
    cycle3 = named_graph("cycle", 3)
    add("compute tutte cycle:3 mod 3 fold", ["compute", "tutte", "--graph", "cycle:3", "--mod", "3", "--fold"], 0, _tutte_mod_check(cycle3, 3, folded=True))
    add("compute tutte k44 mod 5", ["compute", "tutte", "--graph", paths["k44"], "--mod", "5"], 0, _tutte_mod_check(graphs["k44"], 5, folded=False))
    add("compute chromatic k7 mod 7", ["compute", "chromatic", "--graph", paths["k7"], "--mod", "7"], 0, _chromatic_complete_check(7, 7))
    add("compute negami k33 mod 3", ["compute", "negami", "--graph", paths["k33"], "--mod", "3"], 0, _negami_mod_check(graphs["k33"], 3))
    return cmds


def write_cli_graphs(workdir: str):
    """Write the relabelled CLI graphs as edge-list files; returns the
    graphs and their paths."""
    graphs = inputs.cli_graphs()
    paths = {}
    for name, g in graphs.items():
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_edge_list(g))
        paths[name] = path
    return graphs, paths


class CliRunner:
    """Starts one CLI process at a time and waits for it (one closed-loop
    client).  Output goes to files so that a large listing cannot block a
    pipe; the child's own rusage gives its peak memory."""

    def __init__(self, src: str, workdir: str, traced_entry: str):
        self.traced_entry = traced_entry
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        tag = os.getpid()
        self.out_path = os.path.join(workdir, f"stdout-{tag}.txt")
        self.err_path = os.path.join(workdir, f"stderr-{tag}.txt")
        self.dump_path = os.path.join(workdir, f"child-spans-{tag}.json")

    def spawn(self, args, traced=False):
        """Run one command to completion; returns (exit code, peak RSS in
        KiB).  A traced child runs the same ``main`` under the wrappers."""
        if traced:
            argv = [sys.executable, self.traced_entry, self.dump_path] + list(args)
        else:
            argv = [sys.executable, "-m", "graphperiod.cli"] + list(args)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, self.out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err_path, flags, 0o644),
        ]
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def outputs(self):
        with open(self.out_path, encoding="utf-8") as fh:
            out = fh.read()
        with open(self.err_path, encoding="utf-8") as fh:
            err = fh.read()
        return out, err

    def spans(self) -> dict:
        with open(self.dump_path, encoding="utf-8") as fh:
            dumped = json.load(fh)
        os.remove(self.dump_path)
        return dumped


def cli_pass(commands, runner: CliRunner, run: Pass):
    """Every command of the mix once, in the order given."""
    tracer = run.tracer
    for cmd in commands:

        def op():
            if tracer is None:
                with run.program():
                    code, rss = runner.spawn(cmd.args)
            else:
                with run.program(), tracer.span("subprocess.cli") as span:
                    code, rss = runner.spawn(cmd.args, traced=True)
                tracer.adopt(runner.spans(), span.index)
            out, err = runner.outputs()
            run.child_rss_kib = max(run.child_rss_kib, rss)
            run.output_bytes += len(out.encode())
            if "Traceback (most recent call last)" in err:
                raise CommandError(f"traceback: {err.strip().splitlines()[-1]}")
            if code != cmd.exit_code:
                raise CommandError(f"exit {code}, documented {cmd.exit_code}: {err.strip()[:200]}")
            return cmd.check(out)

        run.op(cmd.label, op)


# -- registry ----------------------------------------------------------------------


def build_inputs(workload: str, seed: int, workdir: str):
    """Everything the passes need.  Library workloads relabel every graph
    once here, and every pass hands the program the same copies, so that
    each operation's samples repeat the same work.  Only sweep7 takes its
    labels from the seed; the other graphs are fixed (see inputs.py)."""
    if workload in ("poly-dense", "poly-sparse"):
        graphs = inputs.poly_dense() if workload == "poly-dense" else inputs.poly_sparse()
        rng = random.Random(inputs.GRAPHS_SEED)
        return [(label, inputs.relabel(rng, g)) for label, g in graphs]
    if workload == "sweep7":
        rng = random.Random(seed)
        return [(label, inputs.relabel(rng, g)) for label, g in inputs.sweep7(families.connected_simple_graphs)]
    if workload == "cli-symmetric":
        graphs, paths = write_cli_graphs(workdir)
        return cli_commands(graphs, paths)
    raise ValueError(f"unknown workload {workload!r}")


def pass_inputs(workload: str, data, seed: int, index: int):
    """The inputs of pass ``index``.  poly-* and cli-symmetric issue their
    requests in an order drawn from the seed and the pass number; a request
    does not depend on those before it.  sweep7 keeps the order of the
    generator, because its graphs share one memo."""
    if workload == "sweep7":
        return data
    order = list(data)
    random.Random(seed * 1009 + index).shuffle(order)
    return order


def run_pass(workload: str, pass_data, run: Pass, runner: CliRunner):
    if workload == "cli-symmetric":
        cli_pass(pass_data, runner, run)
    elif workload == "sweep7":
        sweep_pass(pass_data, run)
    else:
        poly_pass(pass_data, run)


WORKLOADS = ("poly-dense", "poly-sparse", "sweep7", "cli-symmetric")
