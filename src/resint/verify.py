"""Scenario-driven verification of linkage and residual-intersection identities.

A scenario is a JSON document naming a ring, polynomials, ideals, and a list
of checks.  Checks run independently (optionally in parallel), report entries
stay in input order, and engine failures are recorded per check rather than
aborting the run.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .groebner import (
    GroebnerError,
    Ideal,
    codim,
    ideals_equal,
    intersect,
    is_member,
    min_generators,
    quotient,
)
from .parser import parse_poly
from .poly import PolyError, Ring, order_from_tag

FORMAT_VERSION = 1

CHECK_KINDS = (
    "colon_equals",
    "link",
    "geometric_link",
    "residual_intersection",
    "codim_equals",
    "mu_equals",
    "ideal_equals",
)


class ScenarioError(PolyError):
    pass


@dataclass(frozen=True)
class Check:
    name: str
    kind: str
    args: tuple
    expect: bool = True
    containment_only: bool = False


@dataclass(frozen=True)
class Scenario:
    name: str
    ring: Ring
    polys: dict
    ideals: dict
    checks: tuple


@dataclass
class CheckResult:
    name: str
    kind: str
    verdict: str  # pass | fail | error | partial
    values: dict
    millis: int


@dataclass
class Report:
    scenario: str
    checks: list
    summary: dict = field(default_factory=dict)

    def finish(self):
        counts = {"pass": 0, "fail": 0, "error": 0, "partial": 0}
        for r in self.checks:
            counts[r.verdict] += 1
        self.summary = counts
        return self

    @property
    def all_passed(self):
        return self.summary.get("fail", 0) == 0 and self.summary.get(
            "error", 0
        ) == 0 and self.summary.get("partial", 0) == 0

    def to_dict(self):
        return {
            "format": FORMAT_VERSION,
            "scenario": self.scenario,
            "checks": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "verdict": r.verdict,
                    "values": r.values,
                    "millis": r.millis,
                }
                for r in self.checks
            ],
            "summary": self.summary,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


# -- scenario loading ---------------------------------------------------------

_ARITY = {
    "colon_equals": 3,
    "link": 3,
    "geometric_link": 3,
    "residual_intersection": 4,
    "codim_equals": 2,
    "mu_equals": 2,
    "ideal_equals": 2,
}

_CHECK_KEYS = {"kind", "args", "name", "expect", "mode"}


def load_scenario(data, name="scenario"):
    """Build a Scenario from a parsed JSON object (or a path via load_scenario_file)."""
    if data.get("format") != FORMAT_VERSION:
        raise ScenarioError(f"unsupported scenario format {data.get('format')!r}")
    ring_spec = data.get("ring")
    if not ring_spec or "vars" not in ring_spec:
        raise ScenarioError("scenario is missing the ring declaration")
    order = order_from_tag(ring_spec.get("order", "grevlex"))
    ring = Ring(ring_spec["vars"], order)
    polys = {}
    for pname, expr in data.get("polys", {}).items():
        try:
            polys[pname] = parse_poly(expr, ring)
        except PolyError as exc:
            raise ScenarioError(f"polynomial {pname!r}: {exc}") from None
    ideals = {}
    for iname, items in data.get("ideals", {}).items():
        gens = []
        for item in items:
            if item in polys:
                gens.append(polys[item])
            else:
                try:
                    gens.append(parse_poly(item, ring))
                except PolyError:
                    raise ScenarioError(
                        f"ideal {iname!r} references undefined polynomial {item!r}"
                    ) from None
        ideals[iname] = Ideal(ring, gens)
    checks = []
    for i, spec in enumerate(data.get("checks", []), 1):
        if not isinstance(spec, dict):
            raise ScenarioError(f"check {i}: expected an object, got {spec!r}")
        kind = spec.get("kind")
        cname = spec.get("name", f"check-{i}-{kind}")
        where = f"check {i} ({cname!r})"
        unknown = sorted(set(spec) - _CHECK_KEYS)
        if unknown:
            raise ScenarioError(f"{where}: unknown keys {unknown!r}")
        if kind not in CHECK_KINDS:
            raise ScenarioError(f"{where}: unknown kind {kind!r}")
        args = spec.get("args", [])
        if not isinstance(args, list):
            raise ScenarioError(f"{where}: args must be a list, got {args!r}")
        if len(args) != _ARITY[kind]:
            raise ScenarioError(
                f"{where}: {kind} takes {_ARITY[kind]} arguments, got {len(args)}"
            )
        int_last = kind in ("residual_intersection", "codim_equals", "mu_equals")
        for a in args[:-1] if int_last else args:
            if not isinstance(a, str) or a not in ideals:
                raise ScenarioError(f"{where}: undefined ideal {a!r}")
        last = args[-1]
        if int_last and (isinstance(last, bool) or not isinstance(last, int)):
            raise ScenarioError(f"{where}: {kind} needs an integer last argument, got {last!r}")
        expect = spec.get("expect", True)
        if not isinstance(expect, bool):
            raise ScenarioError(f"{where}: expect must be true or false, got {expect!r}")
        containment_only = "mode" in spec
        if containment_only and spec["mode"] != "containment-only":
            raise ScenarioError(f"{where}: unknown mode {spec['mode']!r}")
        if containment_only and kind not in ("colon_equals", "residual_intersection"):
            raise ScenarioError(f"{where}: containment-only applies to colon checks")
        checks.append(Check(cname, kind, tuple(args), expect, containment_only))
    return Scenario(data.get("name", name), ring, polys, ideals, tuple(checks))


def load_scenario_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return load_scenario(data, name=str(path))


# -- individual checks ---------------------------------------------------------


def check_colon_equals(A, I, K):
    """quotient(A, I) == K."""
    equal = ideals_equal(quotient(A, I), K)
    return equal, {"equal": equal}


def check_colon_containment(A, I, K):
    """One-sided evidence for quotient(A, I) == K without computing it.

    K * I subset A gives K subset A:I generator-wise; the generators of A are
    sample members of A:I and are checked against K.
    """
    product_in_A = all(
        is_member(r * g, A) for r in K.generators for g in I.generators
    )
    samples_in_K = all(is_member(g, K) for g in A.generators)
    ok = product_in_A and samples_in_K
    return ok, {"product_in_A": product_in_A, "samples_in_K": samples_in_K}


def check_link(a, I, J):
    """a is a regular sequence linking I and J: (a):I = J and (a):J = I."""
    seq_len = len(a.generators)
    in_both = all(
        is_member(g, I) and is_member(g, J) for g in a.generators
    )
    cod = codim(a)
    colon_i = ideals_equal(quotient(a, I), J)
    colon_j = ideals_equal(quotient(a, J), I)
    ok = in_both and cod == seq_len and colon_i and colon_j
    return ok, {
        "sequence_in_intersection": in_both,
        "codim_a": cod,
        "sequence_length": seq_len,
        "colon_a_I_equals_J": colon_i,
        "colon_a_J_equals_I": colon_j,
    }


def check_geometric_link(a, I, J):
    """ht(I+J) >= g+1 and (a) = I ∩ J."""
    ring = a.ring
    g = codim(I)
    total = Ideal(ring, I.generators + J.generators)
    cod_sum = codim(total)
    inter_eq = ideals_equal(a, intersect(I, J))
    ok = cod_sum >= g + 1 and inter_eq
    return ok, {
        "codim_I": g,
        "codim_sum": cod_sum,
        "intersection_equals_a": inter_eq,
    }


def check_residual_intersection(A, I, K, s):
    """K = A:I with codim(K) >= s >= mu(A) and codim(A) = codim(I)."""
    contained = all(is_member(g, I) for g in A.generators)
    mu = len(min_generators(A))
    cod_K = codim(K)
    cod_A = codim(A)
    cod_I = codim(I)
    quotient_eq = ideals_equal(quotient(A, I), K)
    ok = contained and quotient_eq and cod_K >= s >= mu and cod_A == cod_I
    return ok, {
        "A_in_I": contained,
        "quotient_equal": quotient_eq,
        "codim_K": cod_K,
        "s": s,
        "mu_A": mu,
        "codim_A": cod_A,
        "codim_I": cod_I,
    }


def check_residual_containment(A, I, K, s):
    contained = all(is_member(g, I) for g in A.generators)
    mu = len(min_generators(A))
    cod_K = codim(K)
    ok_colon, values = check_colon_containment(A, I, K)
    ok = contained and ok_colon and cod_K >= s >= mu
    values.update({"A_in_I": contained, "codim_K": cod_K, "s": s, "mu_A": mu})
    return ok, values


def _run_check(scenario, check):
    ideals = scenario.ideals
    t0 = time.monotonic()
    try:
        kind = check.kind
        if kind == "colon_equals":
            A, I, K = (ideals[a] for a in check.args)
            if check.containment_only:
                outcome, values = check_colon_containment(A, I, K)
            else:
                outcome, values = check_colon_equals(A, I, K)
        elif kind == "link":
            a, I, J = (ideals[x] for x in check.args)
            outcome, values = check_link(a, I, J)
        elif kind == "geometric_link":
            a, I, J = (ideals[x] for x in check.args)
            outcome, values = check_geometric_link(a, I, J)
        elif kind == "residual_intersection":
            A, I, K = (ideals[x] for x in check.args[:3])
            s = check.args[3]
            if check.containment_only:
                outcome, values = check_residual_containment(A, I, K, s)
            else:
                outcome, values = check_residual_intersection(A, I, K, s)
        elif kind == "codim_equals":
            computed = codim(ideals[check.args[0]])
            outcome, values = computed == check.args[1], {"computed": computed}
        elif kind == "mu_equals":
            computed = len(min_generators(ideals[check.args[0]]))
            outcome, values = computed == check.args[1], {"computed": computed}
        elif kind == "ideal_equals":
            outcome = ideals_equal(ideals[check.args[0]], ideals[check.args[1]])
            values = {"equal": outcome}
        else:  # pragma: no cover - guarded at load time
            raise ScenarioError(f"unknown kind {kind}")
    except (GroebnerError, PolyError) as exc:
        millis = int((time.monotonic() - t0) * 1000)
        return CheckResult(check.name, check.kind, "error", {"error": str(exc)}, millis)
    millis = int((time.monotonic() - t0) * 1000)
    if outcome == check.expect:
        verdict = "partial" if check.containment_only else "pass"
    else:
        verdict = "fail"
    return CheckResult(check.name, check.kind, verdict, values, millis)


def run_scenario(scenario, jobs=1):
    """Execute all checks; report entries preserve input order."""
    report = Report(scenario.name, [])
    if jobs <= 1:
        report.checks = [_run_check(scenario, c) for c in scenario.checks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_check, scenario, c) for c in scenario.checks]
            report.checks = [f.result() for f in futures]
    return report.finish()
