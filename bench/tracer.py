"""Call tracing for the benchmark, installed from outside the program.

Each traced function is replaced by a wrapper that records one span per call:
the layer name, start and end (``time.perf_counter_ns``) and the id of the
innermost enclosing traced span.  The wrapper is bound in every ``resint``
namespace that holds the function, because ``resint.verify`` and
``resint.cli`` import names such as ``quotient`` and ``is_member`` directly.
Spans stay in memory and are written out after the pass; busy and self time
are computed from them by ``summarise``, which needs no ``resint`` import.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

GROEBNER = (
    "groebner_basis",
    "normal_form",
    "is_member",
    "ideals_equal",
    "intersect",
    "quotient",
    "codim",
    "min_generators",
)
VERIFY = (
    "load_scenario_file",
    "load_scenario",
    "run_scenario",
    "check_colon_equals",
    "check_colon_containment",
    "check_link",
    "check_geometric_link",
    "check_residual_intersection",
    "check_residual_containment",
)
# Polynomial.__radd__ and __rmul__ are the same functions as __add__ and
# __mul__; each attribute is rebound so both spellings are traced.
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


class Tracer:
    """Spans of one pass: ``[id, name index, start ns, end ns, parent id]``."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.next_id = 0
        # (span id, ideal, returned basis) per groebner_basis call; holding
        # the objects keeps their ids from being reused within the pass.
        self.gb_calls = []

    def wrap(self, name, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append([span_id, name_index, start, clock(), parent])
                stack.pop()
            if observe is not None:
                observe(span_id, args, result)
            return result

        return traced

    def install(self):
        """Wrap the traced layers of the already imported ``resint`` modules."""
        from resint import cli, families, groebner, parser, poly, verify

        replace = {}
        for fname in GROEBNER:
            observe = self._observe_gb if fname == "groebner_basis" else None
            fn = getattr(groebner, fname)
            replace[fn] = self.wrap(f"groebner.{fname}", fn, observe)
        for fname in VERIFY:
            fn = getattr(verify, fname)
            replace[fn] = self.wrap(f"verify.{fname}", fn)
        replace[parser.parse_poly] = self.wrap("parser.parse_poly", parser.parse_poly)
        replace[cli.main] = self.wrap("cli.main", cli.main)
        for fname, fn in vars(families).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == families.__name__
                and not fname.startswith("_")
            ):
                replace[fn] = self.wrap(f"families.{fname}", fn)
        for mname, module in list(sys.modules.items()):
            if mname != "resint" and not mname.startswith("resint."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(module, attr, replace[value])
        cls = poly.Polynomial
        cls.__init__ = self.wrap("poly.Polynomial", cls.__init__)
        for attr in ARITH:
            setattr(cls, attr, self.wrap("poly.arith", getattr(cls, attr)))

    def _observe_gb(self, span_id, args, result):
        self.gb_calls.append((span_id, args[0], result))

    def basis_counts(self):
        """Exact counts of basis computations, measured from outside the engine."""
        durations = {s[0]: s[3] - s[2] for s in self.spans}
        seen = set()
        distinct = set()
        computed = elements = hit_ns = 0
        for span_id, ideal, gb in self.gb_calls:
            if id(gb) in seen:
                hit_ns += durations[span_id]
                continue
            seen.add(id(gb))
            computed += 1
            elements += len(gb)
            distinct.add(
                (
                    tuple(ideal.ring.variables),
                    gb.order.tag,
                    tuple(sorted(str(g) for g in ideal.generators)),
                )
            )
        return {
            "groebner.groebner_basis.computed": computed,
            "groebner.groebner_basis.distinct_inputs": len(distinct),
            "groebner.groebner_basis.distinct_frac": len(distinct) / computed if computed else 0.0,
            "groebner.groebner_basis.basis_elements": elements,
            "groebner.groebner_basis.hit_s": hit_ns / 1e9,
        }


def summarise(names, spans):
    """Per-layer calls, busy and self seconds from one pass's spans.

    ``busy_s`` counts only the outermost span of a name, so recursion is not
    counted twice; ``self_s`` subtracts the direct child spans.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for s in spans:
        if s[4] in by_id:
            child_ns[s[4]] = child_ns.get(s[4], 0) + s[3] - s[2]
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    def has_ancestor(span, match):
        parent = by_id.get(span[4])
        while parent is not None:
            if match(names[parent[1]]):
                return True
            parent = by_id.get(parent[4])
        return False

    for s in spans:
        name = names[s[1]]
        module = name.split(".", 1)[0]
        dur = s[3] - s[2]
        self_ns = dur - child_ns.get(s[0], 0)
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_ns / 1e9)
        add(f"{module}.self_s", self_ns / 1e9)
        if not has_ancestor(s, lambda n: n == name):
            add(f"{name}.busy_s", dur / 1e9)
        if not has_ancestor(s, lambda n: n.split(".", 1)[0] == module):
            add(f"{module}.busy_s", dur / 1e9)
    return out
