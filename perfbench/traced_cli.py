"""Run one graphperiod CLI command under the benchmark's wrappers.

    python3 perfbench/traced_cli.py SPANS_PATH ARGS...

Behaves like ``python -m graphperiod.cli ARGS...`` and writes the spans of
the call to SPANS_PATH as it ends, also when it ends with a traceback.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

import graphperiod.cli  # noqa: E402  (the package comes from PYTHONPATH)

from perfbench import spans  # noqa: E402


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        with tracer.span("cli.main"):
            return graphperiod.cli.main(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
