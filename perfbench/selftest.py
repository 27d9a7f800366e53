"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when all of these hold:

1. a short run prints every metric BENCHMARK.json names, with its unit,
   both untraced and traced;
2. the verifier flags a corrupted polynomial and a forged witness;
3. traced and untraced passes give identical verified outputs, the wrappers
   come off again afterwards, and the self times of a traced pass add up to
   its duration.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")
sys.path[0] = ROOT
sys.path.insert(0, SRC)

from graphperiod import criteria, invariants, symmetry  # noqa: E402
from graphperiod.graphs import named_graph  # noqa: E402

from perfbench import inputs, spans, verify, workloads  # noqa: E402

FAILURES = []


def check(condition: bool, message: str):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def flags(fn) -> bool:
    try:
        fn()
    except verify.Mismatch:
        return True
    return False


def test_short_run_emits_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "poly-sparse"]
        argv += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        check(done.returncode == 0, f"trace {trace} run exited {done.returncode}: {done.stderr[-300:]}")
        if done.returncode:
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"result keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, "short run failed")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == wanted, f"trace {trace}: metrics differ from BENCHMARK.json {key}: "
              f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
              f"units {[n for n in wanted if n in got and got[n] != wanted[n]]}")


def test_verifier_flags_corruption():
    g = named_graph("petersen")
    pair = invariants.tutte_deletion_contraction(g, cache={})
    chromatic = invariants.chromatic_deletion_contraction(g, cache={}).terms
    classic, shifted = pair.classic.terms, pair.shifted.terms

    def run_check(classic=classic, shifted=shifted, chromatic=chromatic):
        verify.check_tutte(g.vertex_count, g.endpoints, classic, shifted)
        verify.check_chromatic(g.vertex_count, g.endpoints, classic, chromatic)

    check(not flags(run_check), "verifier rejects a correct Tutte/chromatic pair")
    for name, table in (("classic", classic), ("shifted", shifted), ("chromatic", chromatic)):
        for key in table:
            corrupted = dict(table)
            corrupted[key] += 1
            check(flags(lambda: run_check(**{name: corrupted})), f"{name} polynomial with {key} corrupted not flagged")
    run = workloads.Pass()
    bad = dict(chromatic)
    bad[next(iter(bad))] -= 1
    run.op("corrupted", lambda: run_check(chromatic=bad))
    check(run.failed == run.wrong == 1, "a wrong polynomial is not counted as a wrong output")

    h = symmetry.find_free_period(g, 5)
    vp, ep = list(h.vertex_perm), list(h.edge_perm)
    check(not flags(lambda: verify.check_free_period(10, g.endpoints, vp, ep, 5)), "true witness rejected")
    swapped = vp[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    forged = [
        ("not an automorphism", swapped, ep, 5),
        ("identity", list(range(10)), list(range(15)), 5),
        ("order 5 claimed as order 3", vp, ep, 3),
        ("fixes an edge", vp, list(range(15)), 5),
    ]
    for label, fvp, fep, p in forged:
        check(flags(lambda: verify.check_free_period(10, g.endpoints, fvp, fep, p)), f"forged witness ({label}) not flagged")
    payload = json.dumps({"found": True, "automorphism": {"vertex_perm": swapped, "edge_perm": ep}})
    check(flags(lambda: workloads._witness_check(g, 5)(payload)), "forged CLI witness not flagged")
    check(flags(lambda: workloads._readme_fixture_check("s^4 + s^9 + 2*t")), "wrong README fixture not flagged")


def _traced(pass_fn) -> tuple:
    tracer = spans.Tracer()
    run = workloads.Pass(tracer=tracer)
    restore = spans.install(tracer)
    try:
        with tracer.span("harness.solve"):
            pass_fn(run)
    finally:
        restore()
    return run, tracer


def _self_times_add_up(tracer, label):
    summary = spans.summarize(tracer)
    total = sum(summary[f"{group}.self_s"] for group in spans.GROUPS)
    duration = tracer.total_s[tracer.name_id("harness.solve")]
    check(abs(total - duration) <= 1e-6 * duration, f"{label}: self times {total} != duration {duration}")
    unknown = {n.split(".", 1)[0] for n in tracer.names} - set(spans.GROUPS)
    check(not unknown, f"{label}: span names outside the module groups: {unknown}")


def test_traced_matches_untraced():
    graphs = inputs.poly_dense()[:2] + inputs.poly_sparse()[4:]
    plain = workloads.Pass()
    workloads.poly_pass(graphs, plain)
    traced, tracer = _traced(lambda run: workloads.poly_pass(graphs, run))
    check(plain.failed == traced.failed == 0, "poly pass failed")
    check(plain.digest == traced.digest, "traced poly pass output differs from untraced")
    check(not hasattr(invariants.tutte_deletion_contraction, "__wrapped__"), "wrappers left installed")
    check(not hasattr(criteria.find_free_period, "__wrapped__"), "wrappers left installed")
    _self_times_add_up(tracer, "poly pass")

    os.makedirs(WORKDIR, exist_ok=True)
    graphs, paths = workloads.write_cli_graphs(WORKDIR)
    wanted = ("find-period petersen 5", "quotient k7 7", "compute negami k33 mod 3", "check cor3.2 q3 2")
    commands = [c for c in workloads.cli_commands(graphs, paths) if c.label in wanted]
    runner = workloads.CliRunner(SRC, WORKDIR, os.path.join(ROOT, "perfbench", "traced_cli.py"))
    plain = workloads.Pass()
    workloads.cli_pass(commands, runner, plain)
    traced, tracer = _traced(lambda run: workloads.cli_pass(commands[::-1], runner, run))
    check(plain.failed == traced.failed == 0, f"cli pass failed: {plain.failures + traced.failures}")
    check(plain.digest == traced.digest, "traced cli output differs from untraced")
    check(tracer.calls[tracer.name_id("cli.main")] == len(commands), "child spans not merged")
    _self_times_add_up(tracer, "cli pass")


def main() -> int:
    for test in (test_verifier_flags_corruption, test_traced_matches_untraced, test_short_run_emits_every_metric):
        print(f"{test.__name__} ...", flush=True)
        test()
    print("selftest: " + ("FAILED" if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
