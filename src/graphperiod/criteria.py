"""Necessary conditions for a connected multigraph to admit a free period of
prime order p, each returning an evidence-bearing report.

Every check is one-directional: a failing verdict rules the period out, a
passing verdict proves nothing.  Reports therefore read as "excluded" /
"not excluded", never "periodic".

Checks on the graph alone:

* ``thm1.1``  - every monomial of N mod p must have y-exponent divisible by p.
* ``cor1.2``  - every surviving coefficient a_{ij} of the shifted Tutte
  polynomial mod p must satisfy j - i == 1 - r (mod p).  This is thm1.1 in
  Tutte coordinates: a_{ij} s^i t^j is the term a_{ij} u^(1+i)
  x^(q-r+1+i-j) y^(r-1-i+j) of N on a connected graph, so the two checks
  always agree, with the same violating coefficients.
* ``cor1.3``  - for an (asserted) planar self-dual graph, r == 1 (mod p);
  the computable necessary condition T(s,t) = T(t,s) is verified first.

Checks against a quotient witness h (oracle-assisted):

* ``thm3.1``  - N_G == (N_Gbar)^p modulo (p, u^p - u), compared as folded
  canonical forms.
* ``cor3.2``  - the Tutte congruence T_G == (T_Gbar)^p modulo
  (p, s^p - s, t^p - t).  Compared in premultiplied form
  s t^r T_G == (s t^rbar T_Gbar)^p: dividing the specialization identity by
  its monomial is not valid in the quotient ring (the naive folded comparison
  already fails on a p-cycle), while the premultiplied comparison is exactly
  the u -> st, x -> 1, y -> t image of the thm3.1 congruence.
* ``chromatic-remark`` - P_G == (P_Gbar)^p modulo (p, λ^p - λ); when the
  quotient has a loop the right side is zero, so P_G must fold to zero.
"""

from __future__ import annotations

from functools import cached_property

from .graphs import Frozen, MultiGraph, component_count, is_connected
from .invariants import (
    CHROMATIC_VARS,
    TUTTE_SHIFTED_VARS,
    chromatic_deletion_contraction,
    negami_from_tutte,
    negami_polynomial,
    tutte_deletion_contraction,
)
from .polynomials import (
    Polynomial,
    power_mod,
    reduce_mod_p,
    render_monomial,
    require_prime,
)
from .symmetry import (
    DEFAULT_VERTEX_LIMIT,
    OracleLimitError,
    find_free_period,
    quotient_graph,
    validate_free_period,
)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["criterion", "graph", "p", "verdict", "violations", "notes"],
    "properties": {
        "criterion": {"type": "string"},
        "graph": {"type": "string"},
        "p": {"type": "integer"},
        "verdict": {"enum": ["pass", "fail"]},
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["monomial", "coefficient"],
                "properties": {
                    "monomial": {"type": "string"},
                    "coefficient": {"type": "integer"},
                },
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}


class DisconnectedGraphError(ValueError):
    """The criterion's hypotheses require a connected graph."""


class NotSelfDualError(ValueError):
    """The asserted self-duality is contradicted by T(s,t) != T(t,s)."""


class SoundnessError(RuntimeError):
    """A criterion failed on a graph the oracle proved periodic."""


class Violation(Frozen):
    _fields = ("monomial", "coefficient")

    def __init__(self, monomial: str, coefficient: int):
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "coefficient", coefficient)


class CriterionReport(Frozen):
    """One check's verdict.  The violating terms are kept as a table,
    ``terms`` (exponents -> coefficient over ``variables``), and rendered
    into ``violations`` on first read; equality, hashing and the repr leave
    ``variables`` and ``terms`` out."""

    _fields = ("criterion", "graph", "p", "verdict", "notes")

    def __init__(
        self,
        criterion: str,
        graph: str,
        p: int,
        verdict: str,
        notes: tuple = (),
        variables: tuple = (),
        terms: dict | None = None,
    ):
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", {} if terms is None else terms)

    @cached_property
    def violations(self) -> tuple:
        """The violating terms, the last variable most significant."""
        variables, terms = self.variables, self.terms
        return tuple([
            Violation(monomial=render_monomial(variables, exps), coefficient=terms[exps])
            for exps in sorted(terms, key=lambda e: tuple(reversed(e)))
        ])

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "graph": self.graph,
            "p": self.p,
            "verdict": self.verdict,
            "violations": [
                {"monomial": v.monomial, "coefficient": v.coefficient}
                for v in self.violations
            ],
            "notes": list(self.notes),
        }


def render_report(report: CriterionReport) -> str:
    lines = [
        f"criterion: {report.criterion}",
        f"graph: {report.graph}",
        f"p: {report.p}",
        f"verdict: {report.verdict}",
    ]
    if report.violations:
        lines.append("violations:")
        lines.extend(
            f"  {v.coefficient} * {v.monomial}" for v in report.violations
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _default_label(g: MultiGraph) -> str:
    return f"graph-{g.vertex_count}v{g.edge_count}e"


def _require_connected(g: MultiGraph, criterion: str):
    if not is_connected(g):
        raise DisconnectedGraphError(
            f"{criterion} requires a connected graph "
            f"({component_count(g)} components found)"
        )


def _report(criterion, g, p, graph_label, terms, variables, *notes) -> CriterionReport:
    """The report of one check: ``terms`` (exponents -> coefficient over
    ``variables``) are its violations; any violation fails it."""
    return CriterionReport(
        criterion=criterion,
        graph=graph_label or _default_label(g),
        p=p,
        verdict="fail" if terms else "pass",
        notes=notes,
        variables=variables,
        terms=terms,
    )


# -- criteria on the graph alone ---------------------------------------------


def check_negami_shape(
    g, p, *, graph_label=None, negami=None, notes=()
) -> CriterionReport:
    """Surviving monomials of N mod p must have y-exponent == 0 (mod p).
    ``notes`` follow the check's own note."""
    p = require_prime(p, "p")
    _require_connected(g, "thm1.1")
    if negami is None:
        negami = negami_polynomial(g)
    reduced = reduce_mod_p(negami.polynomial, p)
    bad = {
        exps: coeff
        for exps, coeff in reduced.terms.items()
        if exps[2] % p != 0
    }
    return _report(
        "thm1.1", g, p, graph_label, bad, reduced.variables,
        f"q = {negami.edge_count}", *notes,
    )


def check_tutte_coefficients(
    g, p, *, graph_label=None, tutte=None, notes=()
) -> CriterionReport:
    """Surviving a_{ij} of T(s,t) mod p must satisfy j - i == 1 - r (mod p).
    ``notes`` follow the check's own note."""
    p = require_prime(p, "p")
    _require_connected(g, "cor1.2")
    if tutte is None:
        tutte = tutte_deletion_contraction(g).shifted
    r = g.vertex_count
    reduced = reduce_mod_p(tutte, p)
    bad = {
        exps: coeff
        for exps, coeff in reduced.terms.items()
        if (exps[1] - exps[0] - (1 - r)) % p != 0
    }
    note = f"r = {r}, required j - i == {(1 - r) % p} (mod {p})"
    return _report("cor1.2", g, p, graph_label, bad, reduced.variables, note, *notes)


def check_selfdual_vertex_count(
    g, p, asserted_self_dual, *, graph_label=None
) -> CriterionReport:
    """For planar self-dual graphs, a free period of order p forces
    r == 1 (mod p).

    Self-duality cannot be verified from an abstract graph; the caller
    asserts it and this check verifies the computable necessary condition
    T(s,t) = T(t,s), refusing to report when it fails.
    """
    p = require_prime(p, "p")
    _require_connected(g, "cor1.3")
    if not asserted_self_dual:
        raise ValueError(
            "cor1.3 applies only to planar self-dual graphs; the caller must "
            "assert self-duality"
        )
    tutte = tutte_deletion_contraction(g).shifted
    if {(j, i): c for (i, j), c in tutte.terms.items()} != tutte.terms:
        raise NotSelfDualError(
            "input not self-dual: T(s,t) != T(t,s), contradicting the "
            "asserted self-duality"
        )
    r = g.vertex_count
    verdict = "pass" if r % p == 1 else "fail"
    return CriterionReport(
        criterion="cor1.3",
        graph=graph_label or _default_label(g),
        p=p,
        verdict=verdict,
        notes=(
            "self-duality asserted by caller; T(s,t) = T(t,s) verified",
            f"r = {r}, r mod {p} = {r % p}",
        ),
    )


# -- quotient-witness criteria ------------------------------------------------


def _quotient_difference(criterion, g, h, p, polynomial, fold_names):
    """The quotient Gbar of G by the free period h, and
    fold(P(G) mod p) - fold(P(Gbar)^p mod p) for P = ``polynomial``, folded
    in ``fold_names``: the congruence holds iff the difference is zero."""
    _require_connected(g, criterion)
    validate_free_period(g, h, p)
    quotient = quotient_graph(g, h).quotient
    lhs = reduce_mod_p(polynomial(g), p).fold(fold_names)
    rhs = power_mod(reduce_mod_p(polynomial(quotient), p), p, fold_names)
    return quotient, lhs - rhs


def _quotient_shape(quotient) -> str:
    return f"quotient has {quotient.vertex_count} vertices, {quotient.edge_count} edges"


def check_negami_quotient_congruence(g, h, p, *, graph_label=None) -> CriterionReport:
    """N_G == (N_Gbar)^p modulo (p, u^p - u), as folded canonical forms."""
    quotient, diff = _quotient_difference(
        "thm3.1", g, h, p, lambda graph: negami_polynomial(graph).polynomial, ("u",)
    )
    shape = _quotient_shape(quotient)
    return _report("thm3.1", g, p, graph_label, diff.terms, diff.variables, shape)


def check_tutte_quotient_congruence(g, h, p, *, graph_label=None) -> CriterionReport:
    """T_G == (T_Gbar)^p modulo (p, s^p - s, t^p - t), compared after
    premultiplying each side by its specialization monomial:

        fold(s t^r T_G)  ==  fold((s t^rbar T_Gbar)^p)

    which is the u -> st, x -> 1, y -> t image of the thm3.1 congruence and
    the strongest valid form of the Tutte-side statement."""

    def premultiplied(graph):
        monomial = Polynomial.monomial(TUTTE_SHIFTED_VARS, (1, graph.vertex_count))
        return monomial * tutte_deletion_contraction(graph).shifted

    quotient, diff = _quotient_difference(
        "cor3.2", g, h, p, premultiplied, TUTTE_SHIFTED_VARS
    )
    return _report(
        "cor3.2", g, p, graph_label, diff.terms, diff.variables,
        "congruence checked in premultiplied form "
        "s*t^r*T(s,t) == (s*t^rbar*Tbar(s,t))^p",
        _quotient_shape(quotient),
    )


def check_chromatic_vanishing(g, h, p, *, graph_label=None) -> CriterionReport:
    """P_G == (P_Gbar)^p modulo (p, λ^p - λ); a loop in the quotient zeroes
    the right side, so P_G must fold to zero."""
    quotient, diff = _quotient_difference(
        "chromatic-remark", g, h, p, chromatic_deletion_contraction, CHROMATIC_VARS
    )
    if any(u == v for u, v in quotient.endpoints):
        note = "quotient has a loop, so the quotient chromatic polynomial is 0"
    else:
        note = "quotient is loopless; compared against the p-th power"
    return _report(
        "chromatic-remark", g, p, graph_label, diff.terms, diff.variables, note
    )


# -- batch driver --------------------------------------------------------------


def exclusion_report(
    g,
    primes,
    *,
    graph_label=None,
    use_oracle=False,
    oracle_limit=DEFAULT_VERTEX_LIMIT,
):
    """Run cor1.2 and thm1.1 for each prime; a prime is excluded when either
    fails.  Both read one Tutte run: thm1.1's N is T with relabelled
    exponents.  With ``use_oracle`` the free-period search cross-checks
    that no excluded prime actually has a free period (a contradiction
    raises SoundnessError); when the search gives up, above ``oracle_limit``
    vertices or past the node budget, the reports say so.  The search
    runs once per prime, and the node budget holds per search.  Every
    prime is tested before any of this work starts."""
    primes = sorted({require_prime(p, "p") for p in primes})
    _require_connected(g, "exclusion report")
    label = graph_label or _default_label(g)
    tutte = tutte_deletion_contraction(g).shifted
    negami = negami_from_tutte(g, tutte)
    reports = []
    for p in primes:
        witness, notes = None, ()
        if use_oracle:
            witness, note = _oracle_search(g, p, oracle_limit)
            notes = (note,)
        per_prime = [
            check_tutte_coefficients(g, p, graph_label=label, tutte=tutte, notes=notes),
            check_negami_shape(g, p, graph_label=label, negami=negami, notes=notes),
        ]
        if witness is not None and any(r.verdict == "fail" for r in per_prime):
            raise SoundnessError(
                f"free period of order {p} found although the "
                f"criteria exclude it: {witness.to_dict()}"
            )
        reports.extend(per_prime)
    reports.sort(key=lambda r: (r.graph, r.p, r.criterion))
    return reports


def _oracle_search(g, p, limit):
    """The free period of order p that ``find_free_period`` finds, or None,
    and the oracle's note: whether it found one, or why it gave up."""
    try:
        witness = find_free_period(g, p, limit=limit)
    except OracleLimitError as exc:
        return None, f"oracle: skipped, {exc}"
    return witness, f"oracle: free period of order {p} " + (
        "found" if witness is not None else "not found"
    )


def excluded_primes(reports) -> list:
    """Primes for which at least one report in the batch failed."""
    return sorted({report.p for report in reports if report.verdict == "fail"})
