"""Exact stdout, stderr and exit code of the CLI, one case per output path
of every subcommand, with and without --json.  The expected bytes are in
``cli_golden.json``; regenerate it only for a deliberate output change."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from graphperiod.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_cli_output_is_pinned(capsys, case):
    code = main(shlex.split(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["code"],
        case["stdout"],
        case["stderr"],
    )
