"""Benchmark of graphperiod, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run builds the workload's inputs from
the seed, hands them to the program from this one process (the CLI workload
starts one child process at a time and waits for it), verifies every output,
and prints its metrics: readable lines first, then one JSON object as the
last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced passes with passes under the wrappers of spans.py and
reports the per-module metrics.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")
sys.path[0] = ROOT

# A run makes round(seconds / budget) passes, at least one.  The count
# depends on --seconds alone, so a faster commit does the same work in less
# time and both report statistics over the same operations.  The budgets
# give 4, 4, 2 and 2 passes at --seconds 20; a pass of the commit that
# introduced the benchmark took about 7, 5, 12 and 9.5 s (2-core x86-64,
# Python 3.11).
PASS_BUDGET_S = {"poly-dense": 5.0, "poly-sparse": 5.0, "sweep7": 10.0, "cli-symmetric": 9.0}
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
TAIL_BEYOND = 10
UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import graphperiod from this checkout's src/, never from elsewhere."""
    package = os.path.join(SRC, "graphperiod")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: {package} not found; run from the root of a graphperiod checkout")
    sys.path.insert(0, SRC)
    import graphperiod

    if os.path.dirname(os.path.abspath(graphperiod.__file__)) != package:
        raise SystemExit(f"error: imported graphperiod from {graphperiod.__file__}, not {package}")


def time_setups(args) -> list:
    """Interpreter start, graphperiod import and input generation in a fresh
    process, timed SETUP_REPEATS times.  This process has imported the same
    modules already, so their bytecode caches are warm."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return times


def tail(latencies):
    """The latency with at least TAIL_BEYOND operations beyond it (the
    slowest one when a run has fewer), its percentile and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def measure(args, data, runner):
    """Untraced passes, or untraced and traced passes alternating.
    Returns (passes, untraced seconds, traced seconds, tracers)."""
    from perfbench import spans, workloads

    count = max(1, round(args.seconds / PASS_BUDGET_S[args.workload]))
    if args.trace:
        count = max(count, 2)
    passes, plain_s, traced_s, tracers = [], [], [], []
    for index in range(count):
        pass_data = workloads.pass_inputs(args.workload, data, args.seed, index)
        if args.trace and index % 2 == 1:
            tracer = spans.Tracer()
            run = workloads.Pass(tracer=tracer)
            restore = spans.install(tracer)
            try:
                with tracer.span("harness.solve"):
                    workloads.run_pass(args.workload, pass_data, run, runner)
            finally:
                restore()
            traced_s.append(tracer.total_s[tracer.name_id("harness.solve")])
            tracers.append(tracer)
        else:
            run = workloads.Pass()
            start = time.perf_counter()
            workloads.run_pass(args.workload, pass_data, run, runner)
            plain_s.append(time.perf_counter() - start)
        passes.append(run)
    return passes, plain_s, traced_s, tracers


def end_to_end(args, passes, plain_s, setups) -> dict:
    # Each operation's latency is its median over the run's passes.  Single
    # samples of a few operations of very different cost would put p50 and
    # the tail between the slowest sample of one operation and the fastest
    # of the next, where they jump with the noise of the host.
    by_op = {}
    for run in passes:
        for label, seconds in run.latencies:
            by_op.setdefault(label, []).append(seconds)
    typical = {label: statistics.median(samples) for label, samples in by_op.items()}
    tail_s, tail_pct, n = tail([typical[label] for label, samples in by_op.items() for _ in samples])
    if args.workload == "cli-symmetric":
        rss_kib = max(run.child_rss_kib for run in passes)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_s": statistics.median(plain_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kib / 1024,
        "cmd_p50_ms": statistics.median(typical.values()) * 1000,
        "cmd_tail_ms": tail_s * 1000,
    }
    print(f"solve_s: median of {len(plain_s)} passes {[round(s, 4) for s in plain_s]}")
    print(f"setup_s: median of {len(setups)} fresh processes {[round(s, 4) for s in setups]}")
    print(f"cmd_tail_ms: p{tail_pct:.1f} of {n} operations ({TAIL_BEYOND} beyond it)")
    return metrics


def per_layer(args, passes, plain_s, traced_s, tracers, setup_tracer, runner) -> dict:
    from perfbench import spans

    summaries = [spans.summarize(t) for t in tracers]
    traced_runs = [run for run in passes if run.tracer is not None]
    for summary, run in zip(summaries, traced_runs):
        summary["cli.output_bytes"] = run.output_bytes
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    setup_summary = spans.summarize(setup_tracer)
    for name in ("families.connected_simple_graphs.s", "families.graphs_generated"):
        metrics[name] = setup_summary[name]
    metrics["cli.startup_ms"] = 0.0
    if args.workload == "cli-symmetric":
        # a command that does no work: interpreter start, import, argument parsing
        startup = []
        for _ in range(STARTUP_REPEATS):
            start = time.perf_counter()
            runner.spawn(["compute", "tutte", "--graph", "empty:1"])
            startup.append(time.perf_counter() - start)
        metrics["cli.startup_ms"] = statistics.median(startup) * 1000
    metrics["trace.solve_s"] = statistics.median(traced_s)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import spans, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    os.makedirs(WORKDIR, exist_ok=True)
    if args.setup_only:
        workloads.build_inputs(args.workload, args.seed, WORKDIR)
        return 0

    setups = time_setups(args)
    setup_tracer = spans.Tracer()
    restore = spans.install(setup_tracer) if args.trace else (lambda: None)
    try:
        data = workloads.build_inputs(args.workload, args.seed, WORKDIR)
    finally:
        restore()
    runner = workloads.CliRunner(SRC, WORKDIR, os.path.join(ROOT, "perfbench", "traced_cli.py"))

    passes, plain_s, traced_s, tracers = measure(args, data, runner)

    attempted = sum(run.attempted for run in passes)
    failed = sum(run.failed for run in passes)
    wrong = sum(run.wrong for run in passes)
    if len({run.digest for run in passes}) > 1:
        print("outputs differ between passes")
        attempted, failed, wrong = attempted + 1, failed + 1, wrong + 1
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, trace {args.trace}")
    print(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} operations, {wrong} wrong outputs)")
    for message in dict.fromkeys(m for run in passes for m in run.failures):
        print(f"  failed: {message}")

    if args.trace:
        metrics = per_layer(args, passes, plain_s, traced_s, tracers, setup_tracer, runner)
        tracers[-1].write(os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.json"))
        units = {name: spans.unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(args, passes, plain_s, setups)
        units = UNITS
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
