from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from graphperiod import invariants as inv
from graphperiod.cli import main
from graphperiod.criteria import REPORT_SCHEMA, SoundnessError
from graphperiod.graphs import named_graph
from graphperiod.polynomials import reduce_mod_p

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_tutte_petersen_mod5(capsys):
    code, out, _ = run(capsys, "compute", "tutte", "--graph", "petersen", "--mod", "5")
    assert code == 0
    assert out.strip() == "s^4 + s^9 + 2*t + 2*s^5*t + s*t^2 + t^6"


def test_compute_tutte_edgeless(capsys):
    code, out, _ = run(capsys, "compute", "tutte", "--graph", "empty:4")
    assert code == 0 and out.strip() == "1"


def test_compute_classic_form(capsys):
    code, out, _ = run(capsys, "compute", "tutte", "--graph", "cycle:3", "--classic")
    assert code == 0 and out.strip() == "x + x^2 + y"


def test_compute_chromatic(capsys):
    code, out, _ = run(capsys, "compute", "chromatic", "--graph", "cycle:3")
    assert code == 0 and out.strip() == "2*λ - 3*λ^2 + λ^3"


def test_compute_fold(capsys):
    code, out, _ = run(
        capsys, "compute", "tutte", "--graph", "cycle:3", "--mod", "3", "--fold"
    )
    assert code == 0 and out.strip() == "s^2 + t"


def test_compute_fold_negami_folds_only_u(capsys):
    code, out, _ = run(
        capsys, "compute", "negami", "--graph", "cycle:4", "--mod", "3", "--fold"
    )
    negami = inv.negami_polynomial(named_graph("cycle", 4)).polynomial
    expected = reduce_mod_p(negami, 3).fold_variable("u")
    assert code == 0 and out.strip() == str(expected)
    # x^4 and y^4 survive: x and y are not folded
    assert out.strip() != str(reduce_mod_p(negami, 3).fold(("u", "x", "y")))


def test_compute_fold_chromatic_folds_lambda(capsys):
    code, out, _ = run(
        capsys, "compute", "chromatic", "--graph", "cycle:5", "--mod", "3", "--fold"
    )
    chromatic = inv.chromatic_deletion_contraction(named_graph("cycle", 5))
    assert code == 0
    assert out.strip() == str(reduce_mod_p(chromatic, 3).fold_variable("λ"))


@pytest.mark.parametrize("n", [3, 4])
def test_compute_fold_classic_folds_x_and_y(capsys, n):
    code, out, _ = run(
        capsys,
        "compute",
        "tutte",
        "--graph",
        f"cycle:{n}",
        "--mod",
        "3",
        "--fold",
        "--classic",
    )
    classic = inv.tutte_deletion_contraction(named_graph("cycle", n)).classic
    assert code == 0
    assert out.strip() == str(reduce_mod_p(classic, 3).fold(("x", "y")))


def test_compute_fold_json_reports_folded(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "tutte",
        "--graph",
        "cycle:3",
        "--mod",
        "3",
        "--fold",
        "--json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["folded"] is True and payload["polynomial"] == "s^2 + t"


def test_fold_requires_mod(capsys):
    code, _, err = run(capsys, "compute", "tutte", "--graph", "cycle:3", "--fold")
    assert code == 2 and "--fold requires --mod" in err


def test_compute_rejects_oracle_limit(capsys):
    # compute runs no automorphism search, so the flag is not one of its options
    code, out, err = run(
        capsys, "compute", "tutte", "--graph", "cycle:3", "--oracle-limit", "3"
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --oracle-limit 3" in err


def test_check_frucht_cor12_fails_with_exit_1(capsys):
    code, out, _ = run(capsys, "check", "cor1.2", "--graph", "frucht", "--p", "3")
    assert code == 1
    assert "verdict: fail" in out


def test_check_petersen_cor12_passes(capsys):
    code, out, _ = run(capsys, "check", "cor1.2", "--graph", "petersen", "--p", "5")
    assert code == 0 and "verdict: pass" in out


def test_check_json_validates_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(
        capsys, "check", "thm1.1", "--graph", "petersen", "--p", "5", "--json"
    )
    assert code == 0
    jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_check_cor13_requires_assertion(capsys):
    code, _, err = run(capsys, "check", "cor1.3", "--graph", "complete:4", "--p", "3")
    assert code == 2 and "assert-self-dual" in err
    code, out, _ = run(
        capsys,
        "check",
        "cor1.3",
        "--graph",
        "complete:4",
        "--p",
        "3",
        "--assert-self-dual",
    )
    assert code == 0 and "verdict: pass" in out


def test_check_quotient_criterion_without_witness(capsys):
    code, _, err = run(capsys, "check", "thm3.1", "--graph", "frucht", "--p", "3")
    assert code == 2 and "found none" in err


def test_exclude_exit_codes(capsys):
    code, out, _ = run(capsys, "exclude", "--graph", "frucht", "--primes", "2,3")
    assert code == 1
    assert "p=3: excluded" in out
    code, out, _ = run(capsys, "exclude", "--graph", "petersen", "--primes", "5")
    assert code == 0
    assert "p=5: not excluded" in out


def test_exclude_oracle_over_limit_says_skipped(capsys):
    code, out, _ = run(
        capsys, "exclude", "--graph", "cycle:5", "--primes", "5",
        "--oracle", "--oracle-limit", "3",
    )
    assert code == 0
    note = "note: oracle: skipped, 5 vertices exceed the limit of 3"
    assert out.count(note) == 2  # one per report: cor1.2 and thm1.1


def test_exclude_json_reports_validate(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(
        capsys, "exclude", "--graph", "frucht", "--primes", "2,3", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["excluded"] == [2, 3]
    for report in payload["reports"]:
        jsonschema.validate(report, REPORT_SCHEMA)


@pytest.mark.parametrize("primes", ["", ",,"])
def test_exclude_without_primes_exits_2(capsys, primes):
    # an empty list must not read as "not excluded"
    code, out, err = run(capsys, "exclude", "--graph", "cycle:5", "--primes", primes)
    assert code == 2 and out == ""
    assert err == "error: --primes must list at least one prime\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "find-period", "--graph", "complete:40", "--p", "3"),
        ("oracle", "automorphisms", "--graph", "complete:40"),
        ("quotient", "--graph", "complete:40", "--p", "3"),
    ],
)
def test_vertex_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: 40 vertices exceed the limit of 32\n"


def test_oracle_find_period(capsys):
    code, out, _ = run(
        capsys, "oracle", "find-period", "--graph", "petersen", "--p", "5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert sorted(payload["automorphism"]["vertex_perm"]) == list(range(10))
    code, _, _ = run(capsys, "oracle", "find-period", "--graph", "frucht", "--p", "3")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "automorphisms", "--graph", "complete:5"),
        ("oracle", "find-period", "--graph", "complete:7", "--p", "5"),
        ("quotient", "--graph", "complete:7", "--p", "5"),
    ],
)
def test_search_budget_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr("graphperiod.symmetry.SEARCH_NODE_BUDGET", 10)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == "error: search budget of 10 nodes exceeded"


def test_oracle_automorphism_count(capsys):
    code, out, _ = run(
        capsys, "oracle", "automorphisms", "--graph", "cycle:4", "--json"
    )
    assert code == 0 and json.loads(out)["count"] == 8


def test_quotient_command(capsys):
    code, out, _ = run(capsys, "quotient", "--graph", "cycle:5", "--p", "5")
    assert code == 0
    assert "n 1" in out and "e 0 0" in out


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "square.graph"
    path.write_text("n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "compute", "tutte", "--graph", str(path), "--classic")
    assert code == 0 and out.strip() == "x + x^2 + x^3 + y"


def test_bad_graph_file(tmp_path, capsys):
    path = tmp_path / "broken.graph"
    path.write_text("n 2\ne 0 5\n", encoding="utf-8")
    code, _, err = run(capsys, "compute", "tutte", "--graph", str(path))
    assert code == 2 and "line 2" in err


def test_oversized_graph_exits_2(tmp_path, capsys):
    # refused by the size check before any graph is built
    code, _, err = run(capsys, "compute", "tutte", "--graph", "cycle:100000000")
    assert code == 2 and "limit" in err
    path = tmp_path / "huge.graph"
    path.write_text("n 100000000\n", encoding="utf-8")
    code, _, err = run(capsys, "compute", "chromatic", "--graph", str(path))
    assert code == 2 and "limit" in err


def test_unknown_graph_spec(capsys):
    code, _, err = run(capsys, "compute", "tutte", "--graph", "nosuchgraph")
    assert code == 2 and "nosuchgraph" in err


def test_non_prime_p_rejected(capsys):
    code, _, err = run(capsys, "check", "cor1.2", "--graph", "cycle:4", "--p", "4")
    assert code == 2 and "prime" in err


def test_large_prime_answers(capsys):
    # 10^18 + 3 is prime; trial division up to its square root would hang
    p = str(10**18 + 3)
    code, out, _ = run(capsys, "check", "cor1.2", "--graph", "cycle:5", "--p", p)
    assert code == 1 and "verdict: fail" in out
    code, out, _ = run(capsys, "compute", "tutte", "--graph", "cycle:5", "--mod", p)
    assert code == 0 and out.strip() == "5 + 10*s + 10*s^2 + 5*s^3 + s^4 + t"


def test_prime_beyond_the_test_limit_exits_2(capsys):
    code, _, err = run(
        capsys, "check", "cor1.2", "--graph", "cycle:5", "--p", str(10**25)
    )
    assert code == 2 and err.startswith("error:") and "too large" in err


def test_deep_recursion_is_an_input_error(tmp_path, capsys):
    # the fan: vertex 0 joined to every vertex of a 999-vertex path
    n = 1000
    lines = [f"n {n}"] + [f"e 0 {v}" for v in range(1, n)]
    lines += [f"e {v} {v + 1}" for v in range(1, n - 1)]
    path = tmp_path / "fan.graph"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "compute", "chromatic", "--graph", str(path))
    assert code in (0, 2)
    assert code == 0 or err.startswith("error:")
    assert "internal error" not in err and "Traceback" not in err


def test_internal_error_exits_2_not_1(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise SoundnessError("oracle contradicts an exclusion")

    monkeypatch.setattr("graphperiod.cli.crit.exclusion_report", explode)
    code, out, err = run(
        capsys, "exclude", "--graph", "cycle:5", "--primes", "5", "--oracle"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "SoundnessError" in err


def _readme_commands():
    """The ``graphperiod`` lines of the sh block under "## Command line",
    each with the ``#   `` output lines that follow it."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("graphperiod "):
            argv = shlex.split(line.split("#", 1)[0])[1:]
            commands.append((argv, []))
        elif line.startswith("#   ") and commands:
            commands[-1][1].append(line[len("#   "):])
    return commands


# the README examples that report "fail / excluded"
_README_EXIT_1 = {
    "check cor1.2 --graph frucht --p 3",
    "exclude --graph frucht --primes 2,3,5,7 --oracle",
}


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    joined = {" ".join(argv) for argv, _ in commands}
    assert _README_EXIT_1 <= joined
    for argv, expected_output in commands:
        code, out, err = run(capsys, *argv)
        label = " ".join(argv)
        assert code == (1 if label in _README_EXIT_1 else 0), label
        assert err == "", label
        if expected_output:
            assert out.splitlines() == expected_output, label


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "exclude", "--graph", "frucht", "--primes", "2,3", "--json")
    second = run(capsys, "exclude", "--graph", "frucht", "--primes", "2,3", "--json")
    assert first == second
