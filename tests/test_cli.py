"""CLI surface: subcommands, exit codes, and byte-deterministic output."""

import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from resint import cli
from resint.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _data(name):
    return resources.files("resint.data").joinpath(name)


def test_verify_bundled_e6_exits_zero(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["--json", str(report), "verify", str(_data("e6.scenario.json"))])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary: 12 pass" in out
    data = json.loads(report.read_text())
    assert data["summary"]["pass"] == 12


def test_verify_failing_expectation_exits_one(tmp_path):
    doc = {
        "format": 1,
        "name": "boom",
        "ring": {"vars": ["x", "y"]},
        "polys": {},
        "ideals": {"X": ["x"], "Y": ["y"]},
        "checks": [{"kind": "ideal_equals", "args": ["X", "Y"]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["--json", str(tmp_path / "r.json"), "verify", str(path)]) == 1


def test_verify_mistyped_scenario_exits_two(tmp_path, capsys):
    # A string ideal would otherwise be read character by character as (x, y).
    doc = {
        "format": 1,
        "ring": {"vars": ["x", "y"]},
        "ideals": {"I": "xy"},
        "checks": [{"kind": "ideal_equals", "args": ["I", "I"]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["--json", str(tmp_path / "r.json"), "verify", str(path)]) == 2
    assert "ideal 'I' must be a list" in capsys.readouterr().err


def test_verify_negative_block_order_exits_two(tmp_path, capsys):
    # block:-1 would rank by n + 1 weight rows and decode wrong exponents.
    doc = {
        "format": 1,
        "ring": {"vars": ["x", "y", "z"], "order": "block:-1"},
        "ideals": {"I": ["z"]},
        "checks": [{"kind": "codim_equals", "args": ["I", 1]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["--json", str(tmp_path / "r.json"), "verify", str(path)]) == 2
    assert "block front must be a non-negative integer" in capsys.readouterr().err


def test_verify_missing_file_exits_two(capsys):
    assert main(["verify", "/nonexistent/scenario.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff", "can't decode byte 0xff in position 0"),
        (b"{not json", "Expecting property name enclosed in double quotes"),
        (b"[" * 100000, "JSON nested too deeply to read"),
        # json.load would keep the last I, (y), and verify I == J.
        (
            b'{"format": 1, "ring": {"vars": ["x", "y"]},'
            b' "ideals": {"I": ["x"], "I": ["y"], "J": ["y"]},'
            b' "checks": [{"kind": "ideal_equals", "args": ["I", "J"]}]}',
            "duplicate key 'I'",
        ),
        (b'{"format": 1, "format": 1}', "duplicate key 'format'"),
        (
            b'{"format": 1, "ring": {"vars": ["x"]}, "ideals": {"I": ["x"]},'
            b' "checks": [{"kind": "codim_equals", "args": ["I", 1], "args": ["I", 0]}]}',
            "duplicate key 'args'",
        ),
    ],
    ids=["not-utf-8", "not-json", "nested-json", "duplicate-ideal", "duplicate-top", "duplicate-in-check"],
)
def test_verify_unreadable_scenario_exits_two(tmp_path, capsys, content, message):
    path = tmp_path / "s.json"
    path.write_bytes(content)
    assert main(["--json", str(tmp_path / "r.json"), "verify", str(path)]) == 2
    err = capsys.readouterr().err
    # The message names the file, so a script reading several can tell which.
    assert err.startswith(f"error: {path}: ") and message in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        # A schema error from the loader, and one from reading the JSON.
        ('{"format": 1, "ring": {"vars": ["x"]}, "idealz": {}}', "scenario: unknown keys ['idealz']"),
        ('{"format": 1, "format": 1}', "duplicate key 'format'"),
    ],
    ids=["schema", "json"],
)
def test_verify_load_errors_name_the_file_once(tmp_path, capsys, doc, message):
    path = tmp_path / "keys.json"
    path.write_text(doc)
    assert main(["--json", str(tmp_path / "r.json"), "verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_verify_resolves_bundled_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--json", str(tmp_path / "r.json"), "verify", "e6"]) == 0
    # Without --json the report is <scenario>.report.json in the working directory.
    assert main(["verify", "e6"]) == 0
    assert json.loads((tmp_path / "e6.report.json").read_text())["summary"]["pass"] == 12


@pytest.mark.parametrize(
    "module, absent",
    [
        ("resint.cli", {"resint.families", "resint.combinat", "dataclasses", "argparse", "gettext"}),
        ("resint.families", {"dataclasses", "resint.verify", "resint.combinat"}),
        ("resint.combinat", {"dataclasses", "resint.families"}),
    ],
)
def test_import_loads_only_what_it_runs(module, absent):
    # A fresh interpreter; only the modules the import adds count, so one
    # that the environment loads at start-up does not fail the test.
    code = (
        "import sys; before = set(sys.modules); import " + module
        + "; print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert module in out.split()
    assert absent.isdisjoint(out.split())


def test_verify_run_loads_no_argument_parser(tmp_path):
    # Only what the run adds counts, as in the import test above.
    code = (
        "import sys; before = set(sys.modules); from resint import cli; "
        "code = cli.main(['--json', sys.argv[1], 'verify', 'e7']); "
        "print(code, *sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    ).stdout
    code, *added = out.splitlines()[-1].split()
    assert code == "1" and "resint.cli" in added
    assert {"argparse", "gettext", "locale"}.isdisjoint(added)


def test_verify_check_error_exits_two(tmp_path):
    doc = {
        "format": 1,
        "ring": {"vars": ["x"]},
        "polys": {},
        "ideals": {"U": ["1"]},
        "checks": [{"kind": "codim_equals", "args": ["U", 0]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["--json", str(tmp_path / "r.json"), "verify", str(path)]) == 2


def test_family_counts(capsys):
    assert main(["family", "pfaffian-submax", "--m", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert main(["family", "e6", "--ideal", "J23"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert main(["family", "typeA-left", "--k", "2", "--n", "5", "--s", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    for argv, lines in [
        (["pluecker", "--n", "5"], 5),
        (["pluecker", "--n", "5", "--ideal", "relations"], 5),
        (["pluecker", "--n", "5", "--ideal", "I"], 9),
        (["pluecker", "--n", "5", "--ideal", "K_2"], 8),
        (["pluecker", "--n", "5", "--ideal", "I_2"], 11),
        (["typeA-right", "--k", "2", "--n", "5", "--s", "2"], 4),
        (["ku-bordered", "--m", "5", "--j", "3"], 4),
    ]:
        assert main(["family", *argv]) == 0
        assert len(capsys.readouterr().out.splitlines()) == lines


def test_family_errors(capsys):
    assert main(["family", "e6"]) == 2
    assert "available" in capsys.readouterr().err
    assert main(["family", "pfaffian-containing", "--m", "5", "--j", "1"]) == 2
    capsys.readouterr()
    assert main(["family", "pluecker", "--n", "5", "--ideal", "bogus"]) == 2
    assert "unknown pluecker ideal 'bogus'" in capsys.readouterr().err
    assert main(["family", "typeA-left", "--k", "2"]) == 2
    assert "missing required flags: --n, --s" in capsys.readouterr().err
    assert main(["family", "e7", "--ideal", "nope"]) == 2
    assert "unknown ideal 'nope' in dataset e7" in capsys.readouterr().err
    assert main(["family", "pluecker", "--n", "6", "--ideal", "K_x"]) == 2
    assert "error: --ideal K_x: index must be an integer, got 'x'" in capsys.readouterr().err


def test_closed_pipe_ends_without_a_traceback():
    # The pipe has no reader from the start, so the first write fails.
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with os.fdopen(w, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "resint.cli", "family", "pluecker", "--n", "8"],
            env=env, stdout=out, stderr=subprocess.PIPE, text=True,
        )
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_verify_writes_its_report_before_a_closed_pipe(tmp_path):
    # The table goes to a pipe with no reader; the report is written first,
    # so it holds every verdict although the run exits 1.
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with os.fdopen(w, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "resint.cli", "verify", "e6"],
            cwd=tmp_path, env=env, stdout=out, stderr=subprocess.PIPE, text=True,
        )
    report = json.loads((tmp_path / "e6.report.json").read_text())
    assert report["summary"]["pass"] == 12
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_op_quotient(capsys):
    assert main(["op", "quotient", "--ring", "x,y", "--gens", "x*y", "--by", "y"]) == 0
    assert capsys.readouterr().out.strip() == "x"


def test_op_codim(capsys):
    assert main(["op", "codim", "--ring", "a,b,c,d,e", "--gens", "a;b;c"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_op_member_pluecker_relation(capsys):
    ring = "p_12,p_13,p_14,p_23,p_24,p_34"
    rel = "p_12*p_34 - p_13*p_24 + p_14*p_23"
    assert main(["op", "member", "--ring", ring, "--gens", rel, "--poly", rel]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_op_mu(capsys):
    assert main(["op", "mu", "--ring", "x,y", "--gens", "x;y;x+y"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_op_parse_error_exits_two(capsys):
    assert main(["op", "codim", "--ring", "x", "--gens", "x +"]) == 2
    capsys.readouterr()
    nested = "(" * 2000 + "x" + ")" * 2000
    assert main(["op", "gb", "--ring", "x", "--gens", nested]) == 2
    err = capsys.readouterr().err
    assert err == "error: parentheses nested deeper than 100 (at position 100)\n"


def test_op_parses_only_the_flag_it_reads(capsys):
    # gb reads neither --by nor --poly, so neither is parsed.
    argv = ["op", "gb", "--ring", "x", "--gens", "x", "--poly", "(((", "--by", ")"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "x\n"
    assert main(["op", "member", "--ring", "x", "--gens", "x", "--by", "((("]) == 2
    assert "missing required flags: --poly" in capsys.readouterr().err


def test_op_zero_denominator_exits_two(capsys):
    assert main(["op", "gb", "--ring", "x,y", "--gens", "1/0*x"]) == 2
    assert "zero denominator (at position 2)" in capsys.readouterr().err


def _verify_one_poly(tmp_path, source):
    """Exit code of `resint verify` on a scenario whose one polynomial is
    `source`."""
    doc = {
        "format": 1,
        "ring": {"vars": ["x", "y"]},
        "polys": {"f": source},
        "ideals": {"I": ["f"]},
        "checks": [{"kind": "ideal_equals", "args": ["I", "I"]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return main(["--json", str(tmp_path / "r.json"), "verify", str(path)])


def test_verify_zero_denominator_in_scenario_exits_two(tmp_path, capsys):
    assert _verify_one_poly(tmp_path, "1/0*x") == 2
    assert "zero denominator" in capsys.readouterr().err


def test_verify_deeply_nested_polynomial_exits_two(tmp_path, capsys):
    assert _verify_one_poly(tmp_path, "(" * 2000 + "x" + ")" * 2000) == 2
    err = capsys.readouterr().err
    assert "polynomial 'f': parentheses nested deeper than 100 (at position 100)" in err
    assert not (tmp_path / "r.json").exists()


def test_verify_scenario_past_degree_limit_exits_two(tmp_path, capsys):
    assert _verify_one_poly(tmp_path, "x^40000 - y") == 2
    err = capsys.readouterr().err
    assert "polynomial 'f': total degree 40000 exceeds the limit of 32767" in err
    assert not (tmp_path / "r.json").exists()


def test_op_gb_past_degree_limit_exits_two(capsys):
    assert main(["op", "gb", "--ring", "x,y", "--gens", "x^40000 - y"]) == 2
    assert "32767" in capsys.readouterr().err


# int() refuses a decimal string longer than sys.get_int_max_str_digits(),
# 4300 by default, on every Python that has the cap.
needs_int_cap = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="no cap on int() below 5000 digits",
)


@needs_int_cap
def test_op_gb_overlong_integer_exits_two(capsys):
    assert main(["op", "gb", "--ring", "x,y", "--gens", "x^" + "9" * 5000]) == 2
    assert "integer of 5000 digits is too long (at position 2)" in capsys.readouterr().err


@needs_int_cap
def test_verify_overlong_coefficient_in_scenario_exits_two(tmp_path, capsys):
    assert _verify_one_poly(tmp_path, "9" * 5000 + "*x - y") == 2
    err = capsys.readouterr().err
    assert "polynomial 'f': integer of 5000 digits is too long (at position 0)" in err
    assert not (tmp_path / "r.json").exists()


def test_op_gb_past_8_bits(capsys):
    argv = ["--order", "lex", "op", "gb", "--ring", "x,y", "--gens", "x^2; x - y^127"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["y^254", "x - y^127"]


def test_graph_gk_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert main(["graph", "gk", "E", "6", "6", "--dot", str(out)]) == 0
    text = out.read_text()
    node_lines = [l for l in text.splitlines() if "label=" in l and "->" not in l]
    assert len(node_lines) == 8
    # byte determinism
    out2 = tmp_path / "g2.dot"
    main(["graph", "gk", "E", "6", "6", "--dot", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_graph_crystal_counts(capsys):
    from resint.combinat import MinusculeCrystal, crystal_to_dot, dynkin

    for argv, count in [
        (["A", "5", "2"], 15), (["D", "5", "5"], 16), (["D", "5", "1"], 10),
        (["E", "6", "1"], 27), (["E", "7", "7"], 56),
    ]:
        assert main(["graph", "crystal", *argv]) == 0
        out = capsys.readouterr().out
        nodes = [l for l in out.splitlines() if "label=" in l and "->" not in l]
        assert len(nodes) == count
        crystal = MinusculeCrystal(dynkin(argv[0], int(argv[1])), int(argv[2]))
        assert out == crystal_to_dot(crystal)


def test_graph_invalid_parameters(capsys):
    assert main(["graph", "gk", "E", "6", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["gk", "crystal"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["D", "5", "0"], "node 0 outside the diagram"),
        (["D", "5", "99"], "node 99 outside the diagram"),
        (["A", "5", "6"], "node 6 outside the diagram"),
        (["A", "0", "1"], "type A needs rank >= 1"),
        (["D", "3", "3"], "type D needs rank >= 4"),
    ],
    ids=["D-5-0", "D-5-99", "A-5-6", "A-0-1", "D-3-3"],
)
def test_graph_checks_type_rank_and_node(capsys, kind, argv, message):
    """A crystal's type, rank and node are checked as a walk graph's are."""
    assert main(["graph", kind, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_graph_errors_exit_two(tmp_path, capsys):
    # A crystal exists for the minuscule nodes only.
    assert main(["graph", "crystal", "E", "8", "8"]) == 2
    assert capsys.readouterr() == ("", "error: node 8 of E8 is not minuscule\n")
    assert main(["graph", "crystal", "D", "5", "2"]) == 2
    assert capsys.readouterr() == ("", "error: node 2 of D5 is not minuscule\n")
    # The output path is a directory, so the DOT file cannot be written.
    assert main(["graph", "gk", "E", "6", "6", "--dot", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def test_verify_unwritable_report_exits_two(tmp_path, capsys):
    assert main(["--json", str(tmp_path), "verify", "e6"]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write report" in captured.err
    # The report comes before the table, so nothing is printed.
    assert captured.out == ""


def test_exact_flag_upgrades_partial(tmp_path):
    doc = {
        "format": 1,
        "ring": {"vars": ["x", "y"]},
        "polys": {},
        "ideals": {"a": ["x*y"], "X": ["x"], "Y": ["y"]},
        "checks": [
            {"kind": "colon_equals", "args": ["a", "X", "Y"], "mode": "containment-only"},
            {"kind": "ideal_equals", "args": ["X", "X"]},
            {"kind": "colon_equals", "args": ["a", "Y", "X"], "mode": "containment-only"},
        ],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--json", str(r1), "verify", str(path)]) == 1
    assert main(["--json", str(r2), "verify", str(path), "--exact"]) == 0
    # --exact turns every containment-only check into an exact one.
    partial = ("partial", ["product_in_A", "samples_in_K"])
    exact = ("pass", ["equal"])
    for report, expected in ((r1, [partial, exact, partial]), (r2, [exact] * 3)):
        checks = json.loads(report.read_text())["checks"]
        assert [(c["verdict"], sorted(c["values"])) for c in checks] == expected


def test_max_reductions_holds_for_one_call_only(capsys):
    gens = "x^3 - y*z^2 + w; y^3 - x*z*w; z^3 - x*y + w^2; x*y*z*w - 1"
    op = ["op", "gb", "--ring", "x,y,z,w", "--gens", gens]
    assert main(["--max-reductions", "5"] + op) == 2
    assert "reduction-step budget of 5 exceeded" in capsys.readouterr().err
    assert main(op) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_reductions_below_one_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--max-reductions", value, "op", "codim", "--ring", "x", "--gens", "x"])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_max_reductions_not_an_integer_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--max-reductions", "1.5", "op", "gb", "--ring", "x", "--gens", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-reductions" in err and "'1.5'" in err
    assert "_positive_int" not in err


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("resint ")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert len(lines) > 10
    for line in lines:
        # Parsed, not run: a documented form the parser refuses fails here.
        args = cli._parse(shlex.split(line, comments=True)[1:])
        assert args.command in cli._COMMANDS, line


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["--fast", "verify", "e6"], "unrecognized arguments: --fast"),
        (["verify", "e6", "--fast"], "unrecognized arguments: --fast"),
        (["--ord", "lex", "op", "gb", "--ring", "x", "--gens", "x"], "unrecognized arguments: --ord"),
        (["op", "gb", "--gens", "x", "--ring"], "argument --ring: expected one argument"),
        (["--json"], "argument --json: expected one argument"),
        (["verify", "e6", "--exact=yes"], "argument --exact: takes no value, got 'yes'"),
        (["--order", "deglex", "op", "gb", "--ring", "x", "--gens", "x"], "invalid choice: 'deglex'"),
        (["family", "grassmannian", "--n", "5"], "argument name: invalid choice: 'grassmannian'"),
        (["op", "groebner", "--ring", "x", "--gens", "x"], "argument op: invalid choice: 'groebner'"),
        (["graph", "tree", "A", "5", "2"], "argument kind: invalid choice: 'tree'"),
        (["graph", "gk", "F", "4", "1"], "argument type: invalid choice: 'F'"),
        (["family", "typeA-left", "--k", "two"], "argument --k: must be an integer, got 'two'"),
        (["graph", "gk", "E", "six", "6"], "argument rank: must be an integer, got 'six'"),
        (["verify"], "the following arguments are required: scenario"),
        (["graph", "gk", "E", "6"], "the following arguments are required: k"),
        (["op", "gb", "--gens", "x"], "the following arguments are required: --ring"),
        (["op"], "the following arguments are required: op, --ring, --gens"),
        (["verify", "e6", "e7"], "unrecognized arguments: e7"),
        (["verify", "e6", "--json", "r.json"], "global flags go before the command"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-global-flag", "unknown-flag",
        "abbreviated-flag", "flag-without-value", "global-flag-without-value",
        "switch-with-value", "bad-order", "bad-family", "bad-op", "bad-graph-kind",
        "bad-graph-type", "non-integer-k", "non-integer-rank", "missing-scenario",
        "missing-node", "missing-ring", "missing-op-ring-and-gens", "extra-positional",
        "global-flag-after-command",
    ],
)
def test_usage_errors_exit_two(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: resint")
    assert error.startswith("resint: error: ") and message in error


def test_flag_value_after_equals_sign(capsys):
    argv = ["--order=lex", "op", "gb", "--ring=x,y", "--gens=x^2; x - y^127"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["y^254", "x - y^127"]


def test_flag_value_may_start_with_a_dash(capsys):
    assert main(["op", "gb", "--ring", "x", "--gens", "-x"]) == 0
    assert capsys.readouterr().out == "x\n"


def test_flags_and_positionals_interleave_and_the_last_flag_wins():
    for argv in (["verify", "--exact", "e7"], ["verify", "e7", "--exact"]):
        args = cli._parse(argv)
        assert (args.command, args.scenario, args.exact) == ("verify", Path("e7"), True)
    args = cli._parse(
        ["--order", "lex", "--order", "grevlex", "op", "--ring", "x", "gb", "--ring", "y", "--gens", "y"]
    )
    assert (args.order, args.op, args.ring) == ("grevlex", "gb", "y")
    assert cli._parse(["verify", "e6"]).order == "grevlex"


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command_and_flag(command, flag, capsys):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    prog, names = ("resint", [*cli._COMMANDS]) if command is None else (f"resint {command}", [])
    flags = cli._GLOBAL_FLAGS if command is None else cli._COMMANDS[command][3]
    assert captured.out.startswith(f"usage: {prog} [-h]")
    for name in [*names, *("--" + f for f in flags)]:
        assert name in captured.out.split(), name


def test_help_after_other_arguments_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op", "gb", "--ring", "x", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: resint op ")
