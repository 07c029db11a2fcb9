"""Scenario loading, check semantics, and report shape."""

import json
from importlib import resources

import pytest

from resint import Ideal, Ring, verify
from resint.verify import (
    CHECKS,
    ScenarioError,
    check_colon_equals,
    check_geometric_link,
    check_link,
    check_residual_intersection,
    load_scenario,
    load_scenario_file,
    run_scenario,
)


def _ring_xy():
    return Ring(["x", "y"])


def test_colon_equals_trivial_fail():
    R = _ring_xy()
    X = Ideal(R, ["x"])
    ok, values = check_colon_equals(X, X, X)
    assert not ok  # (x):(x) is the unit ideal
    assert values == {"equal": False}


def test_link_trivial_fail():
    R = _ring_xy()
    X = Ideal(R, ["x"])
    ok, values = check_link(X, X, X)
    assert not ok
    assert values["codim_a"] == 1


def test_geometric_link_coordinate_axes():
    R = _ring_xy()
    ok, values = check_geometric_link(Ideal(R, ["x*y"]), Ideal(R, ["x"]), Ideal(R, ["y"]))
    assert ok
    assert values["codim_sum"] == 2
    ok2, _ = check_geometric_link(Ideal(R, ["x"]), Ideal(R, ["x"]), Ideal(R, ["x"]))
    assert not ok2


def test_link_symmetry():
    R = _ring_xy()
    a = Ideal(R, ["x*y"])
    I, J = Ideal(R, ["x"]), Ideal(R, ["y"])
    ok_ij, _ = check_link(a, I, J)
    ok_ji, _ = check_link(a, J, I)
    assert ok_ij and ok_ji


def test_residual_intersection_trivial_fail():
    R = _ring_xy()
    ok, values = check_residual_intersection(
        Ideal(R, ["x"]), Ideal(R, ["x", "y"]), Ideal(R, ["x"]), 2
    )
    assert not ok
    assert values["codim_K"] == 1


SCENARIO = {
    "format": 1,
    "name": "toy",
    "ring": {"vars": ["x", "y"], "order": "grevlex"},
    "polys": {"f": "x*y"},
    "ideals": {"a": ["f"], "X": ["x"], "Y": ["y"]},
    "checks": [
        {"kind": "colon_equals", "args": ["a", "X", "Y"]},
        {"kind": "geometric_link", "args": ["a", "X", "Y"]},
        {"kind": "codim_equals", "args": ["X", 1]},
        {"kind": "ideal_equals", "args": ["X", "Y"], "expect": False},
    ],
}


def test_scenario_runs_and_passes():
    sc = load_scenario(SCENARIO)
    report = run_scenario(sc)
    assert [r.verdict for r in report.checks] == ["pass"] * 4
    assert report.summary == {"pass": 4, "fail": 0, "error": 0, "partial": 0}
    assert report.all_passed


def test_empty_scenario():
    sc = load_scenario(
        {"format": 1, "ring": {"vars": ["x"]}, "polys": {}, "ideals": {}, "checks": []}
    )
    report = run_scenario(sc)
    assert report.checks == []
    assert report.summary == {"pass": 0, "fail": 0, "error": 0, "partial": 0}


def test_undefined_ideal_is_named():
    bad = dict(SCENARIO, checks=[{"kind": "colon_equals", "args": ["a", "X", "nope"]}])
    with pytest.raises(ScenarioError) as exc:
        load_scenario(bad)
    assert "nope" in str(exc.value)


def test_undefined_poly_is_named():
    bad = dict(SCENARIO, ideals={"a": ["missing_poly("]})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(bad)
    assert "missing_poly" in str(exc.value)


@pytest.mark.parametrize(
    "polys, ideal_A",
    [
        ({"x": "y"}, ["x"]),  # a name that shadows a ring variable
        ({"x + y": "x"}, ["x + y"]),  # a name that shadows an inline expression
        ({"é": "x"}, ["é"]),  # a name outside the ASCII name rule
    ],
    ids=["variable", "expression", "non-ascii"],
)
def test_polynomial_name_must_not_shadow_a_variable_or_an_expression(polys, ideal_A):
    bad = dict(
        SCENARIO,
        polys=polys,
        ideals={"A": ideal_A, "B": ["y"]},
        checks=[{"kind": "ideal_equals", "args": ["A", "B"]}],
    )
    name = next(iter(polys))
    with pytest.raises(ScenarioError, match="polynomial name") as exc:
        load_scenario(bad)
    assert repr(name) in str(exc.value)


def test_polynomial_name_that_is_no_variable_loads():
    sc = load_scenario(dict(SCENARIO, polys={"x_y": "x*y"}, ideals={"a": ["x_y"]}, checks=[]))
    assert [str(g) for g in sc.ideals["a"].generators] == ["x*y"]


def test_zero_denominator_in_a_polynomial_is_a_scenario_error():
    bad = dict(SCENARIO, polys={"f": "1/0*x"})
    with pytest.raises(ScenarioError, match=r"polynomial 'f': zero denominator \(at position 2\)"):
        load_scenario(bad)


@pytest.mark.parametrize(
    "item, message",
    [
        ("x^-1", r"generator 'x\^-1': negative exponent \(at position 2\)"),
        ("2/0", r"generator '2/0': zero denominator"),
        ("x + w", r"generator 'x \+ w': unknown variable 'w'"),
        ("nope", "references undefined polynomial 'nope'"),
        ("x^40000 - y",
         r"generator 'x\^40000 - y': total degree 40000 exceeds the limit of 32767"),
    ],
)
def test_inline_generator_errors_carry_the_parse_error(item, message):
    bad = dict(SCENARIO, ideals={"a": [item]}, checks=[])
    with pytest.raises(ScenarioError, match=message) as exc:
        load_scenario(bad)
    if item != "nope":
        assert "undefined polynomial" not in str(exc.value)


def test_wrong_arity_rejected():
    bad = dict(SCENARIO, checks=[{"kind": "colon_equals", "args": ["a", "X"]}])
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_unknown_kind_rejected():
    bad = dict(SCENARIO, checks=[{"kind": "frobnicate", "args": []}])
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_unsupported_format_rejected():
    with pytest.raises(ScenarioError):
        load_scenario({"format": 2, "ring": {"vars": ["x"]}})


def test_expected_false_flips_verdict():
    sc = load_scenario(
        dict(SCENARIO, checks=[{"kind": "ideal_equals", "args": ["X", "Y"]}])
    )
    report = run_scenario(sc)
    assert report.checks[0].verdict == "fail"


def test_check_error_recorded_not_raised():
    sc = load_scenario(
        dict(
            SCENARIO,
            ideals={"a": ["f"], "X": ["x"], "Y": ["y"], "unit": ["1"]},
            checks=[
                {"kind": "codim_equals", "args": ["unit", 0]},
                {"kind": "codim_equals", "args": ["X", 1]},
            ],
        )
    )
    report = run_scenario(sc)
    assert report.checks[0].verdict == "error"
    assert report.checks[1].verdict == "pass"


def test_containment_only_reports_partial():
    sc = load_scenario(
        dict(
            SCENARIO,
            checks=[
                {"kind": "colon_equals", "args": ["a", "X", "Y"], "mode": "containment-only"}
            ],
        )
    )
    report = run_scenario(sc)
    assert report.checks[0].verdict == "partial"
    assert report.checks[0].values["product_in_A"]


def test_reports_deterministic_and_job_independent():
    sc = load_scenario(SCENARIO)
    def strip(report):
        d = report.to_dict()
        for c in d["checks"]:
            c.pop("millis")
        return json.dumps(d)
    assert strip(run_scenario(sc)) == strip(run_scenario(sc))


def test_report_json_shape():
    sc = load_scenario(SCENARIO)
    data = run_scenario(sc).to_dict()
    assert data["format"] == 1
    assert set(data) == {"format", "scenario", "checks", "summary"}
    for entry in data["checks"]:
        assert set(entry) == {"name", "kind", "verdict", "values", "millis"}


@pytest.mark.parametrize(
    "check, message",
    [
        ({"kind": "ideal_equals", "args": ["X", "Y"], "expect": "false"}, "expect"),
        ({"kind": "ideal_equals", "args": ["X", "Y"], "expect": 0}, "expect"),
        ({"kind": "codim_equals", "args": ["X", True]}, "integer"),
        ({"kind": "mu_equals", "args": ["X", "1"]}, "integer"),
        ({"kind": "residual_intersection", "args": ["a", "X", "Y", False]}, "integer"),
        ({"kind": "colon_equals", "args": ["a", "X", "Y"], "mode": "containment"}, "mode"),
        ({"kind": "colon_equals", "args": ["a", "X", "Y"], "mode": None}, "mode"),
        ({"kind": "colon_equals", "args": ["a", "X", "Y"], "expected": False}, "expected"),
        ({"kind": "colon_equals", "args": "aXY"}, "list"),
        ({"kind": "colon_equals", "args": [["a"], "X", "Y"]}, "undefined ideal"),
        ({"kind": "link", "args": ["a", "X", "Y"], "mode": "containment-only"}, "containment-only"),
    ],
    ids=[
        "expect-string",
        "expect-int",
        "codim-bool",
        "mu-string",
        "residual-bool",
        "mode-misspelled",
        "mode-null",
        "unknown-key",
        "args-string",
        "args-unhashable",
        "link-containment",
    ],
)
def test_strict_check_schema_names_the_check(check, message):
    bad = dict(SCENARIO, checks=[dict(check, name="the-check")])
    with pytest.raises(ScenarioError) as exc:
        load_scenario(bad)
    assert "the-check" in str(exc.value)
    assert message in str(exc.value)


@pytest.mark.parametrize("name, count, partial", [("e6", 12, False), ("e7", 2, True)])
def test_bundled_scenarios_pass_strict_schema(name, count, partial):
    sc = load_scenario_file(resources.files("resint.data") / f"{name}.scenario.json")
    assert len(sc.checks) == count
    assert all(c.expect is True and c.containment_only is partial for c in sc.checks)


@pytest.mark.parametrize(
    "doc",
    [
        dict(SCENARIO, ideals=dict(SCENARIO["ideals"], I="xy")),
        dict(SCENARIO, ideals=dict(SCENARIO["ideals"], I=[1])),
        {k: v for k, v in SCENARIO.items() if k != "ring"},
        dict(SCENARIO, ring={"order": "grevlex"}),
        dict(SCENARIO, ring={"vars": "xy"}),
        dict(SCENARIO, ring={"vars": ["x", 1]}),
        dict(SCENARIO, ring={"vars": ["x", "y"], "order": 3}),
        dict(SCENARIO, ring={"vars": ["x", "y"], "order": "nope"}),
        dict(SCENARIO, ring={"vars": ["x", "y"], "order": "block:-1"}),
        dict(SCENARIO, format=True),
        dict(SCENARIO, format=1.0),
        [SCENARIO],
        dict(SCENARIO, polys=["x*y"]),
        dict(SCENARIO, polys={"f": 1}),
        dict(SCENARIO, checks={"kind": "ideal_equals", "args": ["X", "Y"]}),
        dict(SCENARIO, checks=[{"kind": "ideal_equals", "args": ["X", "X"], "name": 5}]),
        dict(SCENARIO, checks=[{"kind": ["ideal_equals"], "args": ["X", "X"]}]),
        dict(SCENARIO, name=["toy"]),
    ],
    ids=[
        "ideal-string",
        "ideal-generator-int",
        "ring-missing",
        "vars-missing",
        "vars-string",
        "vars-int",
        "order-int",
        "order-unknown",
        "order-block-negative",
        "format-true",
        "format-float",
        "top-level-list",
        "polys-list",
        "poly-int",
        "checks-object",
        "check-name-int",
        "kind-unhashable",
        "scenario-name-list",
    ],
)
def test_scenario_json_types_are_checked(doc):
    # Each document differs from the loadable SCENARIO in one place.
    with pytest.raises(ScenarioError):
        load_scenario(doc)


# Arguments on which every check kind holds: (xy) links (x) and (y).
PASSING_ARGS = {
    "colon_equals": ["a", "X", "Y"],
    "link": ["a", "X", "Y"],
    "geometric_link": ["a", "X", "Y"],
    "residual_intersection": ["a", "X", "Y", 1],
    "codim_equals": ["X", 1],
    "mu_equals": ["a", 1],
    "ideal_equals": ["X", "X"],
}


@pytest.mark.parametrize(
    "kind, check_name, mode",
    [
        (kind, check_name, mode)
        for kind, (_, exact, containment) in CHECKS.items()
        for check_name, mode in ((exact, None), (containment, "containment-only"))
        if check_name is not None
    ],
)
def test_every_check_kind_and_mode_runs_through_a_scenario(kind, check_name, mode):
    spec = {"kind": kind, "args": PASSING_ARGS[kind]}
    if mode is not None:
        spec["mode"] = mode
    sc = load_scenario(dict(SCENARIO, checks=[spec]))
    [result] = run_scenario(sc).checks
    assert result.verdict == ("pass" if mode is None else "partial")
    direct_args = [sc.ideals[a] if isinstance(a, str) else a for a in PASSING_ARGS[kind]]
    ok, values = getattr(verify, check_name)(*direct_args)
    assert ok
    assert result.values == values
