"""Scenario loading, check semantics, and report shape."""

import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import Ideal, Polynomial, Ring, is_member, verify
from resint.verify import (
    CHECKS,
    ScenarioError,
    check_colon_containment,
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


def test_geometric_link_with_a_smaller_a_fails():
    # (x^2*y) lies in (x) ∩ (y) = (x*y) but is smaller: the numerators differ.
    R = _ring_xy()
    ok, values = check_geometric_link(Ideal(R, ["x^2*y"]), Ideal(R, ["x"]), Ideal(R, ["y"]))
    assert not ok
    assert values == {"codim_I": 1, "codim_sum": 2, "intersection_equals_a": False}


def test_geometric_link_needs_a_inside_both():
    # (x^2) has the Hilbert function of (x) ∩ (y) = (x*y), but x^2 is not in (y).
    R = _ring_xy()
    ok, values = check_geometric_link(Ideal(R, ["x^2"]), Ideal(R, ["x"]), Ideal(R, ["y"]))
    assert not ok
    assert values["intersection_equals_a"] is False


def test_inhomogeneous_geometric_link_intersects(monkeypatch):
    # (x*y - x) = (x) ∩ (y - 1) is decided by intersect, the one exact route.
    R = _ring_xy()
    calls = _count_calls(monkeypatch, "intersect")
    ok, values = check_geometric_link(Ideal(R, ["x*y - x"]), Ideal(R, ["x"]), Ideal(R, ["y - 1"]))
    assert ok and values["intersection_equals_a"] is True
    assert calls == {"intersect": 1}


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
        (
            {"kind": "colon_equals", "args": ["a", "X", "Y"], "mode": "containment-only",
             "expect": False},
            "containment-only needs expect true",
        ),
        (
            {"kind": "residual_intersection", "args": ["a", "X", "Y", 1],
             "mode": "containment-only", "expect": False},
            "containment-only needs expect true",
        ),
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
        "containment-expect-false",
        "residual-containment-expect-false",
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


@pytest.mark.parametrize(
    "doc, message",
    [
        # Unread, "ordr" would leave the ring in grevlex.
        (dict(SCENARIO, ring={"vars": ["x", "y"], "ordr": "lex"}), "ring: unknown keys ['ordr']"),
        (dict(SCENARIO, idealz={"Z": ["x"]}), "scenario: unknown keys ['idealz']"),
        (dict(SCENARIO, check=[], polyz={}), "scenario: unknown keys ['check', 'polyz']"),
    ],
    ids=["ring-key", "top-level-key", "top-level-keys"],
)
def test_unknown_scenario_keys_are_refused(doc, message):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert str(exc.value) == message


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


# -- one table of facts per run --------------------------------------------


def _bundled(name, exact=False):
    sc = load_scenario_file(resources.files("resint.data") / f"{name}.scenario.json")
    if exact:
        sc = sc._replace(checks=tuple(c._replace(containment_only=False) for c in sc.checks))
    return sc


def _count_calls(monkeypatch, *names):
    """Count the calls verify makes through each imported operation name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(verify, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(verify, name, counted)
    return calls


def test_e6_computes_each_distinct_fact_once(monkeypatch):
    # link repeats two colons of the colon checks, the residual intersection
    # the third; the codim and mu checks repeat what the others computed.
    sc = _bundled("e6")
    calls = _count_calls(monkeypatch, "quotient", "codim", "min_generators")
    report = run_scenario(sc)
    assert report.all_passed
    assert calls == {"quotient": 3, "codim": 6, "min_generators": 2}


def test_e6_geometric_link_intersects_nothing(monkeypatch):
    # a_1 = J22 ∩ J23 is decided by Hilbert numerators of bases the colon,
    # containment and codim facts already hold.
    sc = _bundled("e6")
    calls = _count_calls(monkeypatch, "intersect", "ideals_equal")
    report = run_scenario(sc)
    assert report.all_passed
    assert calls == {"intersect": 0, "ideals_equal": 3}


def test_e7_containment_tests_only_what_generators_do_not_settle(monkeypatch):
    # 118 of the 126 products have a factor among the base ideal's
    # generators, and all 11 samples are generators of the claimed colon.
    sc = _bundled("e7")
    calls = _count_calls(monkeypatch, "is_member")
    report = run_scenario(sc)
    assert report.summary["partial"] == 2
    assert calls == {"is_member": 8}


def test_a_failing_fact_is_an_error_in_every_check_that_reads_it(monkeypatch):
    # codim of the unit ideal raises; the residual intersection reads the
    # same fact after A ⊆ I and mu(A).
    sc = load_scenario(
        dict(
            SCENARIO,
            ideals={"X": ["x"], "unit": ["1"]},
            checks=[
                {"kind": "codim_equals", "args": ["unit", 0]},
                {"kind": "residual_intersection", "args": ["X", "X", "unit", 1]},
            ],
        )
    )
    calls = _count_calls(monkeypatch, "codim")
    first, residual = run_scenario(sc).checks
    assert first.verdict == residual.verdict == "error"
    assert first.values == residual.values
    assert calls == {"codim": 1}


def test_a_direct_check_call_gets_a_fresh_table(monkeypatch):
    R = _ring_xy()
    a, I, J = Ideal(R, ["x*y"]), Ideal(R, ["x"]), Ideal(R, ["y"])
    calls = _count_calls(monkeypatch, "quotient")
    assert check_link(a, I, J)[0] and check_link(a, I, J)[0]
    assert calls == {"quotient": 4}
    facts = {}
    check_colon_equals(a, I, J, facts=facts)
    check_link(a, I, J, facts=facts)
    assert calls == {"quotient": 6}


_RING = Ring(["x", "y", "z"])
_pool = st.lists(
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), st.sampled_from([-1, 1, 2]), min_size=1, max_size=2
    ).map(lambda d: Polynomial(_RING, {m: Fraction(c) for m, c in d.items()})),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_colon_containment_values_match_testing_every_product(data):
    # The three ideals draw from one small pool, so they share generators.
    pool = data.draw(_pool)
    A, I, K = (
        Ideal(_RING, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        for _ in range(3)
    )
    product_in_A = all(is_member(k * g, A) for k in K.generators for g in I.generators)
    samples_in_K = all(is_member(g, K) for g in A.generators)
    expected = {"product_in_A": product_in_A, "samples_in_K": samples_in_K}
    assert check_colon_containment(A, I, K) == (product_in_A and samples_in_K, expected)
