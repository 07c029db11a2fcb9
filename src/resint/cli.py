"""Command-line front end: verify scenarios, print ideal families, run ad hoc
Groebner operations, export graphs as DOT.

Exit codes: 0 all checks pass, 1 any check fails or is partial (or the reader
closed standard output early), 2 errors.
"""

import argparse
import contextvars
import json
import os
import sys
from pathlib import Path

from .groebner import (
    GroebnerError,
    Ideal,
    codim,
    groebner_basis,
    intersect,
    is_member,
    max_reductions,
    min_generators,
    quotient,
)
from .parser import parse_poly
from .poly import PolyError, Ring, order_from_tag
from .verify import ScenarioError, bundled_scenario_path, load_scenario_file, run_scenario

FAMILIES = (
    "typeA-left",
    "typeA-right",
    "pfaffian-submax",
    "pfaffian-containing",
    "ku-bordered",
    "pluecker",
    "e6",
    "e7",
)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="resint",
        description="Exact verification of linkage and residual-intersection identities.",
        allow_abbrev=False,
    )
    parser.add_argument("--order", choices=["grevlex", "lex"], default="grevlex",
                        help="monomial order for ad hoc rings")
    parser.add_argument("--max-reductions", type=_positive_int, default=None, metavar="N",
                        help="reduction-step budget per basis computation")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="where to write the JSON report (verify)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a scenario file")
    p_verify.add_argument("scenario", type=Path)
    p_verify.add_argument("--exact", action="store_true",
                          help="upgrade containment-only checks to full equality")

    p_family = sub.add_parser("family", help="print the generators of a family")
    p_family.add_argument("name", choices=FAMILIES)
    p_family.add_argument("--k", type=int)
    p_family.add_argument("--n", type=int)
    p_family.add_argument("--s", type=int)
    p_family.add_argument("--m", type=int)
    p_family.add_argument("--j", type=int)
    p_family.add_argument("--ideal", help="named ideal for e6/e7/pluecker")

    p_op = sub.add_parser("op", help="ad hoc ideal operation")
    p_op.add_argument("op", choices=["gb", "quotient", "intersect", "member", "codim", "mu"])
    p_op.add_argument("--ring", required=True, help="comma-separated variable names")
    p_op.add_argument("--gens", required=True, help="semicolon-separated generators")
    p_op.add_argument("--by", help="second ideal (quotient/intersect)")
    p_op.add_argument("--poly", help="polynomial to test (member)")

    p_graph = sub.add_parser("graph", help="export a walk graph or crystal as DOT")
    p_graph.add_argument("kind", choices=["gk", "crystal"])
    p_graph.add_argument("type", choices=["A", "D", "E"])
    p_graph.add_argument("rank", type=int)
    p_graph.add_argument("k", type=int)
    p_graph.add_argument("--dot", type=Path, default=None, help="output path (default stdout)")
    return parser


def _resolve_scenario_path(path):
    if path.exists():
        return path
    return bundled_scenario_path(path.name) or path


def _cmd_verify(args):
    try:
        scenario = load_scenario_file(_resolve_scenario_path(args.scenario))
    except (OSError, json.JSONDecodeError, ScenarioError, PolyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.exact:
        scenario = scenario._replace(
            checks=tuple(c._replace(containment_only=False) for c in scenario.checks)
        )
    report = run_scenario(scenario)
    # The report first: a reader that closes stdout early must not cost it.
    json_path = args.json
    if json_path is None:
        json_path = Path(args.scenario).with_suffix(".report.json").name
    try:
        Path(json_path).write_text(report.to_json(), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    width = max((len(r.name) for r in report.checks), default=4)
    for r in report.checks:
        print(f"{r.name:<{width}}  {r.kind:<22} {r.verdict:<7} {r.millis} ms")
    s = report.summary
    print(
        f"summary: {s['pass']} pass, {s['fail']} fail, "
        f"{s['error']} error, {s['partial']} partial"
    )
    if s["error"]:
        return 2
    if s["fail"] or s["partial"]:
        return 1
    return 0


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise PolyError(f"missing required flags: {', '.join('--' + n for n in missing)}")


def _family_generators(args):
    # Imported here so that `resint verify` does not load the families.
    from . import families

    name = args.name
    if name == "typeA-left":
        _require(args, ["k", "n", "s"])
        return families.typeA_left_ideal(args.k, args.n, args.s).generators
    if name == "typeA-right":
        _require(args, ["k", "n", "s"])
        return families.typeA_right_ideal(args.k, args.n, args.s).generators
    if name == "pfaffian-submax":
        _require(args, ["m"])
        return families.submaximal_pfaffians(families.generic_skew(args.m))
    if name == "pfaffian-containing":
        _require(args, ["m", "j"])
        A = families.generic_skew(args.m)
        return families.pfaffian_ideal_containing(A, args.j).generators
    if name == "ku-bordered":
        _require(args, ["m", "j"])
        A = families.generic_skew(args.m)
        return families.bordered_pfaffian_ideal(A, args.j).generators
    if name == "pluecker":
        _require(args, ["n"])
        model = families.pluecker_gr2(args.n)
        if args.ideal in (None, "relations"):
            return model.relations
        if args.ideal == "I":
            return model.ideal_I().generators
        if args.ideal.startswith("K_"):
            return model.ideal_K(int(args.ideal[2:])).generators
        if args.ideal.startswith("I_"):
            return model.ideal_I_j(int(args.ideal[2:])).generators
        raise PolyError(f"unknown pluecker ideal {args.ideal!r}")
    dataset = families.e6_dataset() if name == "e6" else families.e7_dataset()
    if args.ideal is None:
        raise PolyError(
            f"--ideal is required; available: {', '.join(sorted(dataset.ideals))}"
        )
    if args.ideal not in dataset.ideals:
        raise PolyError(f"unknown ideal {args.ideal!r} in dataset {name}")
    return dataset.ideals[args.ideal].generators


def _cmd_family(args):
    try:
        gens = _family_generators(args)
    except (PolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for g in gens:
        print(g)
    return 0


def _cmd_op(args):
    try:
        ring = Ring([v.strip() for v in args.ring.split(",")], order_from_tag(args.order))
        gens = [parse_poly(s, ring) for s in args.gens.split(";") if s.strip()]
        ideal = Ideal(ring, gens)
        if args.op == "gb":
            for g in groebner_basis(ideal):
                print(g)
        elif args.op in ("quotient", "intersect"):
            _require(args, ["by"])
            other = Ideal(ring, [parse_poly(s, ring) for s in args.by.split(";") if s.strip()])
            result = quotient(ideal, other) if args.op == "quotient" else intersect(ideal, other)
            for g in groebner_basis(result):
                print(g)
        elif args.op == "member":
            _require(args, ["poly"])
            print("true" if is_member(parse_poly(args.poly, ring), ideal) else "false")
        elif args.op == "codim":
            print(codim(ideal))
        elif args.op == "mu":
            print(len(min_generators(ideal)))
    except (PolyError, GroebnerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_graph(args):
    from . import combinat

    try:
        if args.kind == "gk":
            g = combinat.build_gk(combinat.dynkin(args.type, args.rank), args.k)
            text = combinat.gk_to_dot(g)
        else:
            if args.type == "A":
                crystal = combinat.TypeACrystal(args.k, args.rank + 1)
            elif args.type == "D":
                crystal = combinat.SpinCrystal(args.rank)
            else:
                raise combinat.CombinatError(
                    "crystal export covers types A and D; the exceptional"
                    " verifications use the bundled datasets"
                )
            text = combinat.crystal_to_dot(crystal)
    except PolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dot is None:
        sys.stdout.write(text)
    else:
        try:
            args.dot.write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


_COMMANDS = {"verify": _cmd_verify, "family": _cmd_family, "op": _cmd_op, "graph": _cmd_graph}


def _run(args):
    if args.max_reductions is not None:
        max_reductions.set(args.max_reductions)
    return _COMMANDS[args.command](args)


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        # In a copy of the caller's context, so the budget holds for this command only.
        code = contextvars.copy_context().run(_run, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`resint family ... | head -1`).
        # Point stdout at devnull so that the flush at exit cannot raise
        # again, and exit 1 as Python itself does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
