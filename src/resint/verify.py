"""Scenario-driven verification of linkage and residual-intersection identities.

A scenario is a JSON document naming a ring, polynomials, ideals, and a list
of checks.  ``CHECKS`` is the one table of check kinds: it gives each kind's
argument types and the names of its exact and containment-only checks, and
both loading and running read it.  Checks run one after another, report
entries stay in input order, and engine failures are recorded per check
rather than aborting the run.  Each check is a conjunction of facts (X ⊆ Y,
K·b ⊆ a, a : b == K, codim, mu, ...), and a run computes each distinct fact
once, however many checks name it.
"""

import json
import time
from collections import namedtuple

from .groebner import (
    Ideal,
    codim,
    hilbert_numerator,
    ideals_equal,
    intersect,
    is_member,
    min_generators,
    quotient,
)
from .parser import parse_poly
from .poly import NAME, PolyError, Ring, order_from_tag

FORMAT_VERSION = 1

_IDEAL3 = ("ideal", "ideal", "ideal")

# kind -> (argument types, exact check, containment-only check or None).
# The checks are named, not stored: _run_check looks each name up in this
# module when it runs, so a wrapper later bound over the name is what runs.
CHECKS = {
    "colon_equals": (_IDEAL3, "check_colon_equals", "check_colon_containment"),
    "link": (_IDEAL3, "check_link", None),
    "geometric_link": (_IDEAL3, "check_geometric_link", None),
    "residual_intersection": (
        _IDEAL3 + ("int",),
        "check_residual_intersection",
        "check_residual_containment",
    ),
    "codim_equals": (("ideal", "int"), "check_codim_equals", None),
    "mu_equals": (("ideal", "int"), "check_mu_equals", None),
    "ideal_equals": (("ideal", "ideal"), "check_ideal_equals", None),
}


class ScenarioError(PolyError):
    pass


# Plain records, not dataclasses: ``dataclasses`` imports ``inspect`` and
# more, a cost every ``resint verify`` run would pay at start-up.
Check = namedtuple(
    "Check", "name kind args expect containment_only", defaults=(True, False)
)
Scenario = namedtuple("Scenario", "name ring polys ideals checks")
# verdict is one of pass | fail | error | partial.
CheckResult = namedtuple("CheckResult", "name kind verdict values millis")


class Report:
    """A scenario's check results, in input order, and their verdict counts."""

    def __init__(self, scenario, checks):
        self.scenario = scenario
        self.checks = checks
        self.summary = {"pass": 0, "fail": 0, "error": 0, "partial": 0}
        for r in checks:
            self.summary[r.verdict] += 1

    @property
    def all_passed(self):
        return self.summary["pass"] == len(self.checks)

    def to_dict(self):
        return {
            "format": FORMAT_VERSION,
            "scenario": self.scenario,
            "checks": [r._asdict() for r in self.checks],
            "summary": self.summary,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


# -- scenario loading ---------------------------------------------------------

_SCENARIO_KEYS = {"format", "name", "ring", "polys", "ideals", "checks"}
_RING_KEYS = {"vars", "order"}
_CHECK_KEYS = {"kind", "args", "name", "expect", "mode"}

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, json_type, what):
    """`value` if it has the JSON type `json_type`, else a ScenarioError."""
    if not isinstance(value, json_type):
        raise ScenarioError(f"{what} must be {_JSON_TYPES[json_type]}, got {value!r}")
    return value


def _known_keys(spec, keys, where):
    """Refuse a key of the object `spec` outside `keys`: a misspelt key
    would otherwise be ignored and its default used."""
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown!r}")


def load_scenario(data, name="scenario"):
    """Build a Scenario from a parsed JSON object (or a path via load_scenario_file)."""
    _typed(data, dict, "a scenario")
    version = data.get("format")
    # true and 1.0 compare equal to 1 but are not the integer 1.
    if type(version) is not int or version != FORMAT_VERSION:
        raise ScenarioError(f"unsupported scenario format {version!r}")
    _known_keys(data, _SCENARIO_KEYS, "scenario")
    name = _typed(data.get("name", name), str, "the scenario name")
    ring_spec = data.get("ring")
    if not isinstance(ring_spec, dict) or "vars" not in ring_spec:
        raise ScenarioError("scenario is missing the ring declaration")
    _known_keys(ring_spec, _RING_KEYS, "ring")
    for v in _typed(ring_spec["vars"], list, "ring vars"):
        _typed(v, str, "a ring variable")
    try:
        order = order_from_tag(_typed(ring_spec.get("order", "grevlex"), str, "ring order"))
        ring = Ring(ring_spec["vars"], order)
    except (PolyError, ValueError) as exc:
        raise ScenarioError(f"ring: {exc}") from None
    polys = {}
    for pname, expr in _typed(data.get("polys", {}), dict, "polys").items():
        # A generator string is looked up among the names before it is
        # parsed, so a name must not read as a variable or an expression.
        if not NAME.fullmatch(pname) or pname in ring.variables:
            raise ScenarioError(
                f"polynomial name {pname!r} must be an ASCII name that is not a ring variable"
            )
        _typed(expr, str, f"polynomial {pname!r}")
        try:
            polys[pname] = parse_poly(expr, ring)
        except PolyError as exc:
            raise ScenarioError(f"polynomial {pname!r}: {exc}") from None
    ideals = {}
    for iname, items in _typed(data.get("ideals", {}), dict, "ideals").items():
        gens = []
        for item in _typed(items, list, f"ideal {iname!r}"):
            _typed(item, str, f"a generator of ideal {iname!r}")
            if item in polys:
                gens.append(polys[item])
            else:
                try:
                    gens.append(parse_poly(item, ring))
                except PolyError as exc:
                    if NAME.fullmatch(item.strip()):
                        raise ScenarioError(
                            f"ideal {iname!r} references undefined polynomial {item!r}"
                        ) from None
                    raise ScenarioError(
                        f"ideal {iname!r}, generator {item!r}: {exc}"
                    ) from None
        ideals[iname] = Ideal(ring, gens)
    checks = []
    for i, spec in enumerate(_typed(data.get("checks", []), list, "checks"), 1):
        _typed(spec, dict, f"check {i}")
        kind = spec.get("kind")
        cname = _typed(spec.get("name", f"check-{i}-{kind}"), str, f"check {i} name")
        where = f"check {i} ({cname!r})"
        _known_keys(spec, _CHECK_KEYS, where)
        if not isinstance(kind, str) or kind not in CHECKS:
            raise ScenarioError(f"{where}: unknown kind {kind!r}")
        types, _, containment = CHECKS[kind]
        args = _typed(spec.get("args", []), list, f"{where}: args")
        if len(args) != len(types):
            raise ScenarioError(
                f"{where}: {kind} takes {len(types)} arguments, got {len(args)}"
            )
        for j, (t, a) in enumerate(zip(types, args), 1):
            if t == "ideal" and (not isinstance(a, str) or a not in ideals):
                raise ScenarioError(f"{where}: undefined ideal {a!r}")
            if t == "int" and (isinstance(a, bool) or not isinstance(a, int)):
                raise ScenarioError(f"{where}: {kind} needs an integer argument {j}, got {a!r}")
        expect = spec.get("expect", True)
        if not isinstance(expect, bool):
            raise ScenarioError(f"{where}: expect must be true or false, got {expect!r}")
        containment_only = "mode" in spec
        if containment_only and spec["mode"] != "containment-only":
            raise ScenarioError(f"{where}: unknown mode {spec['mode']!r}")
        if containment_only and containment is None:
            raise ScenarioError(f"{where}: containment-only applies to colon checks")
        # Passing containment proves no equality, and failed containment
        # disproves it: neither verdict fits a check expected to fail.
        if containment_only and not expect:
            raise ScenarioError(f"{where}: containment-only needs expect true")
        checks.append(Check(cname, kind, tuple(args), expect, containment_only))
    return Scenario(name, ring, polys, ideals, tuple(checks))


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is refused, not overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_scenario_file(path):
    """The Scenario in the JSON file `path`.  Every load error names the
    file once, so a script that verifies several can tell which failed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            # The decoder recurses once per nested array or object.
            raise ScenarioError(f"{path}: JSON nested too deeply to read") from None
        except (UnicodeDecodeError, json.JSONDecodeError, ScenarioError) as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    try:
        return load_scenario(data, name=str(path))
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def bundled_scenario_path(name):
    """The packaged scenario file `name` (e6, e7), or None if there is none.
    It is looked up under the package ``resint``: ``resint.data`` has no
    ``__init__.py``, and resolving it as a namespace package costs more than
    the lookup."""
    from importlib import resources

    path = resources.files("resint") / "data" / f"{name}.scenario.json"
    return path if path.is_file() else None


# -- facts ---------------------------------------------------------------------
#
# A check is a conjunction of facts about its argument ideals.  A run keeps
# one table of facts, keyed by the fact and its argument ideals; an Ideal
# hashes by identity and each scenario name is one Ideal, so the key is in
# effect the names.  The values are bools, ints, Hilbert numerators (tuples
# of ints) and the ideal I + J of a pair, one Ideal so that every fact about
# it shares its basis: the basis cache on each Ideal stays the one cache of
# engine work.  Facts call the operations through the names imported above,
# so a wrapper bound over those names sees every call.


def _fact(facts, compute, *args):
    """compute(*args), computed at most once per table.

    A PolyError is stored as the value, without the frames that raised it,
    and raised again to every check that reads it, so they all report the
    same message.
    """
    key = (compute, *args)
    if key not in facts:
        try:
            facts[key] = compute(*args)
        except PolyError as exc:
            facts[key] = exc.with_traceback(None)
    value = facts[key]
    if isinstance(value, PolyError):
        raise value
    return value


def _contained(X, Y):
    """X ⊆ Y.  A generator of X that is a generator of Y needs no test."""
    known = set(Y.generators)
    return all(is_member(g, Y) for g in X.generators if g not in known)


def _products_contained(K, b, a):
    """K·b ⊆ a.  A product with a factor among a's generators lies in a and
    needs no test."""
    known = set(a.generators)
    return all(
        is_member(k * g, a)
        for k in K.generators
        if k not in known
        for g in b.generators
        if g not in known
    )


def _colon_equals(a, b, K):
    """a : b == K."""
    return ideals_equal(quotient(a, b), K)


def _mu(X):
    """The size of a minimal generating set of X."""
    return len(min_generators(X))


def _ideal_sum(I, J):
    """I + J: one Ideal per pair in the table, so its facts share one basis."""
    return Ideal(I.ring, I.generators + J.generators)


def _eliminated_equals(a, I, J):
    """a == I ∩ J, by elimination."""
    return ideals_equal(a, intersect(I, J))


def _coefficient_sum(p, q):
    """p + q for coefficient tuples, constant first, trailing zeros dropped."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def _intersection_equals(facts, a, I, J):
    """a == I ∩ J, read from and kept in the table `facts`.

    When every generator of a, I and J is homogeneous, a == I ∩ J exactly
    when a ⊆ I, a ⊆ J and K_a + K_(I+J) == K_I + K_J, K_X the numerator of
    the Hilbert series of R/X (``hilbert_numerator``).  The sequence
    0 → R/(I ∩ J) → R/I ⊕ R/J → R/(I + J) → 0 is exact, so the Hilbert
    series of R/(I ∩ J) is that of R/I plus that of R/J minus that of
    R/(I + J), and the identity says R/a and R/(I ∩ J) have the same
    Hilbert function.  With a ⊆ I ∩ J, a_d ⊆ (I ∩ J)_d are k-spaces of
    equal finite dimension in every degree d, so a = I ∩ J; the
    numerators do not depend on the monomial order.  The bases of a, I, J
    and I + J are those the containment, colon and codim facts use.  With
    an inhomogeneous generator the Hilbert function decides nothing, and
    ideals_equal(a, intersect(I, J)) is the only exact route.
    """
    if not all(g.is_homogeneous() for X in (a, I, J) for g in X.generators):
        return _fact(facts, _eliminated_equals, a, I, J)
    if not (_fact(facts, _contained, a, I) and _fact(facts, _contained, a, J)):
        return False
    K_a, K_I, K_J, K_sum = (
        _fact(facts, hilbert_numerator, X) for X in (a, I, J, _fact(facts, _ideal_sum, I, J))
    )
    return _coefficient_sum(K_a, K_sum) == _coefficient_sum(K_I, K_J)


# -- checks --------------------------------------------------------------------
#
# Each check reads its facts from `facts`, the run's table, in a fixed order;
# the first fact that raises makes the check an error.  A direct call gets a
# fresh table.


def check_colon_equals(A, I, K, facts=None):
    """A : I == K."""
    equal = _fact({} if facts is None else facts, _colon_equals, A, I, K)
    return equal, {"equal": equal}


def check_colon_containment(A, I, K, facts=None):
    """One-sided evidence for A : I == K without computing the colon.

    K·I ⊆ A gives K ⊆ A : I generator-wise; the generators of A are sample
    members of A : I and are checked against K.  Passing evidence proves no
    equality, so a scenario may expect it to hold but not to fail.
    """
    facts = {} if facts is None else facts
    product_in_A = _fact(facts, _products_contained, K, I, A)
    samples_in_K = _fact(facts, _contained, A, K)
    ok = product_in_A and samples_in_K
    return ok, {"product_in_A": product_in_A, "samples_in_K": samples_in_K}


def check_link(a, I, J, facts=None):
    """a is a regular sequence linking I and J: (a):I = J and (a):J = I."""
    facts = {} if facts is None else facts
    seq_len = len(a.generators)
    in_both = _fact(facts, _contained, a, I) and _fact(facts, _contained, a, J)
    cod = _fact(facts, codim, a)
    colon_i = _fact(facts, _colon_equals, a, I, J)
    colon_j = _fact(facts, _colon_equals, a, J, I)
    ok = in_both and cod == seq_len and colon_i and colon_j
    return ok, {
        "sequence_in_intersection": in_both,
        "codim_a": cod,
        "sequence_length": seq_len,
        "colon_a_I_equals_J": colon_i,
        "colon_a_J_equals_I": colon_j,
    }


def check_geometric_link(a, I, J, facts=None):
    """ht(I+J) >= g+1 and (a) = I ∩ J."""
    facts = {} if facts is None else facts
    g = _fact(facts, codim, I)
    cod_sum = _fact(facts, codim, _fact(facts, _ideal_sum, I, J))
    inter_eq = _intersection_equals(facts, a, I, J)
    ok = cod_sum >= g + 1 and inter_eq
    return ok, {
        "codim_I": g,
        "codim_sum": cod_sum,
        "intersection_equals_a": inter_eq,
    }


def check_residual_intersection(A, I, K, s, facts=None):
    """K = A:I is an s-residual intersection of I.

    Huneke and Ulrich (J. reine angew. Math. 390, 1988) ask A ⊊ I,
    mu(A) <= s <= codim(A : I) and s >= codim(I).  This checks A ⊆ I,
    K = A : I, codim(K) >= s >= mu(A) and codim(A) = codim(I), which is
    equivalent: Krull gives s >= mu(A) >= codim(A) = codim(I), and
    conversely V(A) ⊆ V(I) ∪ V(A : I) forces codim(A) = codim(I).  A = I
    gives a unit colon, whose codim raises: an error, never a pass.
    """
    facts = {} if facts is None else facts
    contained = _fact(facts, _contained, A, I)
    mu = _fact(facts, _mu, A)
    cod_K = _fact(facts, codim, K)
    cod_A = _fact(facts, codim, A)
    cod_I = _fact(facts, codim, I)
    quotient_eq = _fact(facts, _colon_equals, A, I, K)
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


def check_residual_containment(A, I, K, s, facts=None):
    """One-sided evidence for ``check_residual_intersection``: A ⊆ I, codim(K)
    >= s >= mu(A) and ``check_colon_containment``; a scenario cannot expect false."""
    facts = {} if facts is None else facts
    contained = _fact(facts, _contained, A, I)
    mu = _fact(facts, _mu, A)
    cod_K = _fact(facts, codim, K)
    ok_colon, values = check_colon_containment(A, I, K, facts=facts)
    ok = contained and ok_colon and cod_K >= s >= mu
    values.update({"A_in_I": contained, "codim_K": cod_K, "s": s, "mu_A": mu})
    return ok, values


def check_codim_equals(I, c, facts=None):
    """codim(I) == c."""
    computed = _fact({} if facts is None else facts, codim, I)
    return computed == c, {"computed": computed}


def check_mu_equals(I, m, facts=None):
    """mu(I) == m: a minimal generating set of I has m elements."""
    computed = _fact({} if facts is None else facts, _mu, I)
    return computed == m, {"computed": computed}


def check_ideal_equals(I, J, facts=None):
    """I == J."""
    equal = _fact({} if facts is None else facts, ideals_equal, I, J)
    return equal, {"equal": equal}


def _run_check(scenario, check, facts):
    types, exact, containment = CHECKS[check.kind]
    run = globals()[containment if check.containment_only else exact]
    args = [scenario.ideals[a] if t == "ideal" else a for t, a in zip(types, check.args)]
    t0 = time.monotonic()
    try:
        outcome, values = run(*args, facts=facts)
    except PolyError as exc:
        millis = int((time.monotonic() - t0) * 1000)
        return CheckResult(check.name, check.kind, "error", {"error": str(exc)}, millis)
    millis = int((time.monotonic() - t0) * 1000)
    if outcome == check.expect:
        verdict = "partial" if check.containment_only else "pass"
    else:
        verdict = "fail"
    return CheckResult(check.name, check.kind, verdict, values, millis)


def run_scenario(scenario):
    """Execute all checks with one table of facts; report entries preserve
    input order, and a check's millis counts only the facts it computed first."""
    facts = {}
    return Report(scenario.name, [_run_check(scenario, c, facts) for c in scenario.checks])
