"""The benchmark's tracer (perfbench/spans.py) wraps library names by
attribute lookup, so a deleted or renamed name breaks every traced run.
This test installs the tracer and takes it off again."""

from __future__ import annotations

import sys
from pathlib import Path

# the repository root, as perfbench/selftest.py puts it, so that a plain
# ``pytest`` finds the perfbench package too
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402


def test_tracer_installs_and_restores():
    targets = [(owner, attr) for owner, attr, _, _ in spans._targets()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in owner.__dict__]
    assert missing == [], "perfbench/spans.py wraps names the library no longer has"
    originals = [owner.__dict__[attr] for owner, attr in targets]
    restore = spans.install(spans.Tracer())
    restore()
    assert [owner.__dict__[attr] for owner, attr in targets] == originals
