"""The documented scripts under scripts/: arguments they refuse."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "periodicity_survey.py"


def _survey():
    spec = importlib.util.spec_from_file_location("periodicity_survey", SURVEY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["x"], ["4", "4"], ["0"], ["4", "two"], ["4", "1" + "0" * 30]])
def test_survey_refuses_bad_arguments_with_usage(capsys, argv):
    assert _survey().main(["periodicity_survey.py", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.splitlines()[-1] == _survey().USAGE


def test_survey_runs_on_small_graphs(capsys):
    assert _survey().main(["periodicity_survey.py", "4", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "{1: 1, 2: 1, 3: 2, 4: 6}" in out
    assert "all criteria passed" in out
