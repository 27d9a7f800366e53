"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads poly-dense,sweep7 --seeds 1-10 \
        [--trace 0|1] [--seconds 20] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, and
reports for every metric its values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between the
quartiles as a share of the median.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text: str) -> list:
    seeds = []
    for chunk in text.split(","):
        low, _, high = chunk.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def collect(workload: str, seeds: list, trace: int, seconds: int) -> dict:
    results = []
    for seed in seeds:
        argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}", file=sys.stderr)
    names = results[0]["metrics"]
    return {
        "seeds": seeds,
        "trace": trace,
        "seconds": seconds,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"unit": names[name]["unit"], **summarize([r["metrics"][name]["value"] for r in results])}
            for name in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report = {
        w: collect(w, parse_seeds(args.seeds), args.trace, args.seconds)
        for w in args.workloads.split(",")
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for workload, summary in report.items():
        for name, m in summary["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:14s} {name:40s} median {m['median']:.6g} {m['unit']:8s} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
