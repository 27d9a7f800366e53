"""The documented scripts under scripts/: arguments they refuse."""

from __future__ import annotations

import pytest

from conftest import periodicity_survey


@pytest.mark.parametrize("argv", [["x"], ["4", "4"], ["0"], ["4", "two"], ["4", "1" + "0" * 30]])
def test_survey_refuses_bad_arguments_with_usage(capsys, argv):
    assert periodicity_survey().main(["periodicity_survey.py", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.splitlines()[-1] == periodicity_survey().USAGE


def test_survey_runs_on_small_graphs(capsys):
    assert periodicity_survey().main(["periodicity_survey.py", "4", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "{1: 1, 2: 1, 3: 2, 4: 6}" in out
    assert "all criteria passed" in out
