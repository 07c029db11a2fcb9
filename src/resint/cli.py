"""Command-line front end: verify scenarios, print ideal families, run ad hoc
Groebner operations, export graphs as DOT.  ``FAMILIES`` and ``OPS`` name each
family and op once, and ``main`` is the one place where bad input becomes exit 2.

Exit codes: 0 all checks pass, 1 any check fails or is partial (or the reader
closed standard output early), 2 a check error or any bad input.
"""

import argparse
import contextvars
import os
import sys
from pathlib import Path

from .groebner import (
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
from .verify import bundled_scenario_path, load_scenario_file, run_scenario


def _pluecker_ideal(families, args):
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


def _dataset_ideal(dataset, args):
    if args.ideal is None:
        raise PolyError(f"--ideal is required; available: {', '.join(sorted(dataset.ideals))}")
    if args.ideal not in dataset.ideals:
        raise PolyError(f"unknown ideal {args.ideal!r} in dataset {args.name}")
    return dataset.ideals[args.ideal].generators


# name -> (required flags, builder(families module, args) -> generators)
FAMILIES = {
    "typeA-left": (("k", "n", "s"), lambda f, a: f.typeA_left_ideal(a.k, a.n, a.s).generators),
    "typeA-right": (("k", "n", "s"), lambda f, a: f.typeA_right_ideal(a.k, a.n, a.s).generators),
    "pfaffian-submax": (("m",), lambda f, a: f.submaximal_pfaffians(f.generic_skew(a.m))),
    "pfaffian-containing": (
        ("m", "j"),
        lambda f, a: f.pfaffian_ideal_containing(f.generic_skew(a.m), a.j).generators,
    ),
    "ku-bordered": (
        ("m", "j"),
        lambda f, a: f.bordered_pfaffian_ideal(f.generic_skew(a.m), a.j).generators,
    ),
    "pluecker": (("n",), _pluecker_ideal),
    "e6": ((), lambda f, a: _dataset_ideal(f.e6_dataset(), a)),
    "e7": ((), lambda f, a: _dataset_ideal(f.e7_dataset(), a)),
}


def _ideal(text, ring):
    return Ideal(ring, [parse_poly(s, ring) for s in text.split(";") if s.strip()])


# The flags an op may read, each with its parser and help text.
_OP_FLAGS = {"by": (_ideal, "second ideal"), "poly": (parse_poly, "polynomial to test")}
# name -> (the flag it reads or None, lines(ideal, flag value)).  The engine
# names are looked up when an op runs, so a wrapper bound over one later runs.
OPS = {
    "gb": (None, lambda ideal, _: groebner_basis(ideal)),
    "quotient": ("by", lambda ideal, other: groebner_basis(quotient(ideal, other))),
    "intersect": ("by", lambda ideal, other: groebner_basis(intersect(ideal, other))),
    "member": ("poly", lambda ideal, f: ["true" if is_member(f, ideal) else "false"]),
    "codim": (None, lambda ideal, _: [codim(ideal)]),
    "mu": (None, lambda ideal, _: [len(min_generators(ideal))]),
}


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
    for flag in ("k", "n", "s", "m", "j"):
        p_family.add_argument("--" + flag, type=int)
    p_family.add_argument("--ideal", help="named ideal for e6/e7/pluecker")

    p_op = sub.add_parser("op", help="ad hoc ideal operation")
    p_op.add_argument("op", choices=OPS)
    p_op.add_argument("--ring", required=True, help="comma-separated variable names")
    p_op.add_argument("--gens", required=True, help="semicolon-separated generators")
    for flag, (_, text) in _OP_FLAGS.items():
        readers = "/".join(name for name, (reads, _) in OPS.items() if reads == flag)
        p_op.add_argument("--" + flag, help=f"{text} ({readers})")

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
    scenario = load_scenario_file(_resolve_scenario_path(args.scenario))
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
        raise OSError(f"cannot write report: {exc}") from exc
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


def _cmd_family(args):
    # Imported here so that `resint verify` does not load the families.
    from . import families

    required, build = FAMILIES[args.name]
    _require(args, required)
    for g in build(families, args):
        print(g)
    return 0


def _cmd_op(args):
    ring = Ring([v.strip() for v in args.ring.split(",")], order_from_tag(args.order))
    ideal = _ideal(args.gens, ring)
    reads, lines = OPS[args.op]
    value = None
    if reads is not None:
        _require(args, [reads])
        parse, _ = _OP_FLAGS[reads]
        value = parse(getattr(args, reads), ring)
    for line in lines(ideal, value):
        print(line)
    return 0


def _cmd_graph(args):
    from . import combinat

    diagram = combinat.dynkin(args.type, args.rank)
    diagram.check_node(args.k)
    if args.kind == "gk":
        text = combinat.gk_to_dot(combinat.build_gk(diagram, args.k))
    elif args.type == "A":
        text = combinat.crystal_to_dot(combinat.TypeACrystal(args.k, args.rank + 1))
    elif args.type == "D":
        if args.k != args.rank:
            raise combinat.CombinatError(
                f"the type D crystal is the spin crystal of node {args.rank}, got node {args.k}"
            )
        text = combinat.crystal_to_dot(combinat.SpinCrystal(args.rank))
    else:
        raise combinat.CombinatError(
            "crystal export covers types A and D; the exceptional"
            " verifications use the bundled datasets"
        )
    if args.dot is None:
        sys.stdout.write(text)
    else:
        args.dot.write_text(text, encoding="utf-8")
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
    except (PolyError, OSError, ValueError) as exc:
        # Bad input from the command line or a file: exit 2, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
