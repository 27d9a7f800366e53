"""The benchmark's tracer (perfbench/spans.py) wraps library names by
attribute lookup, so a deleted or renamed name breaks every traced run,
and a call that goes round a wrapped name is not seen.  These tests
install the tracer and take it off again."""

from __future__ import annotations

import sys
from pathlib import Path

# the repository root, as perfbench/selftest.py puts it, so that a plain
# ``pytest`` finds the perfbench package too
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from graphperiod.criteria import exclusion_report  # noqa: E402
from graphperiod.graphs import named_graph  # noqa: E402
from perfbench import spans  # noqa: E402


def test_tracer_installs_and_restores():
    targets = [(owner, attr) for owner, attr, _, _ in spans._targets()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in owner.__dict__]
    assert missing == [], "perfbench/spans.py wraps names the library no longer has"
    originals = [owner.__dict__[attr] for owner, attr in targets]
    restore = spans.install(spans.Tracer())
    restore()
    assert [owner.__dict__[attr] for owner, attr in targets] == originals


def test_tracer_sees_each_search_of_an_exclusion_report():
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        exclusion_report(named_graph("petersen"), [2, 3, 5, 7], use_oracle=True)
    finally:
        restore()
    assert spans.summarize(tracer)["symmetry.find_free_period.calls"] == 4
