"""Command-line front end: verify scenarios, print ideal families, run ad hoc
Groebner operations, export graphs as DOT.  ``FAMILIES`` and ``OPS`` name each
family and op once, and ``main`` is the one place where bad input becomes exit 2.

``_COMMANDS`` names each command once, with its handler, help text,
positionals and flags, and ``_GLOBAL_FLAGS`` names the flags read before the
command.  ``_parse`` reads the command line against these tables, and
``--help`` is printed from them, so the help cannot drift from what is
parsed.  The loop replaces argparse: importing it (with gettext) and
building its parser took about as long as running the e7 containment
checks, on every call.  A usage error prints a usage line and ``resint:
error: ...`` to standard error and raises ``SystemExit(2)``.

Exit codes: 0 all checks pass, 1 any check fails or is partial (or the reader
closed standard output early), 2 a check error, bad input or a usage error.
"""

import contextvars
import os
import sys
import types
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
    build = {"K_": model.ideal_K, "I_": model.ideal_I_j}.get(args.ideal[:2])
    if build is None:
        raise PolyError(f"unknown pluecker ideal {args.ideal!r}")
    try:
        j = _int(args.ideal[2:])
    except ValueError as exc:
        raise ValueError(f"--ideal {args.ideal}: index {exc}") from None
    return build(j).generators


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


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _positive_int(text):
    value = _int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


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


# A positional or flag is read by a tuple of the values it allows, or by a
# function of its text that raises ValueError with the reason; a flag read by
# None is a switch.  A flag left out is None, False for a switch, or the first
# of its allowed values.  Flags map name -> (reader, help).
#
# name -> (handler, help, positionals as (name, reader), flags, required flags)
_COMMANDS = {
    "verify": (_cmd_verify, "run a scenario file", [("scenario", Path)],
               {"exact": (None, "upgrade containment-only checks to full equality")}, ()),
    "family": (_cmd_family, "print the generators of a family", [("name", tuple(FAMILIES))], {
        **{f: (_int, "for " + "/".join(n for n, (needs, _) in FAMILIES.items() if f in needs))
           for f in "knsmj"},
        "ideal": (str, "named ideal for e6/e7/pluecker"),
    }, ()),
    "op": (_cmd_op, "ad hoc ideal operation", [("op", tuple(OPS))], {
        "ring": (str, "comma-separated variable names"),
        "gens": (str, "semicolon-separated generators"),
        **{f: (str, text + " (" + "/".join(n for n, (reads, _) in OPS.items() if reads == f) + ")")
           for f, (_, text) in _OP_FLAGS.items()},
    }, ("ring", "gens")),
    "graph": (_cmd_graph, "export a walk graph or crystal as DOT",
              [("kind", ("gk", "crystal")), ("type", ("A", "D", "E")), ("rank", _int), ("k", _int)],
              {"dot": (Path, "output path (default stdout)")}, ()),
}

# Read before the command, which must follow them.
_GLOBAL_FLAGS = {
    "order": (("grevlex", "lex"), "monomial order for ad hoc rings (default grevlex)"),
    "max-reductions": (_positive_int, "reduction-step budget per basis computation"),
    "json": (Path, "where to write the JSON report (verify; default <scenario>.report.json)"),
}


# The top level, in the shape of a command whose one positional is the command.
_TOP = (None, "Exact verification of linkage and residual-intersection identities.",
        [("command", tuple(_COMMANDS))], _GLOBAL_FLAGS, ())


def _flag_usage(name, reader):
    if reader is None:
        return "--" + name
    if isinstance(reader, tuple):
        return f"--{name} {{{','.join(reader)}}}"
    return f"--{name} {name.replace('-', '_').upper()}"


def _usage(command):
    _, _, positionals, flags, required = _COMMANDS[command] if command else _TOP
    words = ["usage: resint", *([command] if command else []), "[-h]"]
    for name, (reader, _) in flags.items():
        word = _flag_usage(name, reader)
        words.append(word if name in required else f"[{word}]")
    words += [name for name, _ in positionals] + ([] if command else ["..."])
    return " ".join(words)


def _help(command):
    _, about, positionals, flags, _ = _COMMANDS[command] if command else _TOP
    if command:
        title = "positional arguments"
        rows = [(name, ", ".join(r) if isinstance(r, tuple) else "") for name, r in positionals]
    else:
        title, rows = "commands", [(name, entry[1]) for name, entry in _COMMANDS.items()]
    options = [("-h, --help", "show this help and exit")]
    options += [(_flag_usage(name, reader), text) for name, (reader, text) in flags.items()]
    width = max(len(left) for left, _ in rows + options)
    lines = [_usage(command), "", about]
    for head, section in ((title, rows), ("options", options)):
        lines += ["", head + ":"]
        lines += [f"  {left:<{width}}  {text}".rstrip() for left, text in section]
    return "\n".join(lines) + "\n"


def _fail(command, message):
    sys.stderr.write(f"{_usage(command)}\nresint: error: {message}\n")
    raise SystemExit(2)


def _read(command, what, reader, text):
    if isinstance(reader, tuple):
        if text in reader:
            return text
        reason = f"invalid choice: {text!r} (choose from {', '.join(reader)})"
    else:
        try:
            return reader(text)
        except ValueError as exc:
            reason = str(exc)
    _fail(command, f"argument {what}: {reason}")


def _defaults(args, flags):
    for name, (reader, _) in flags.items():
        default = False if reader is None else reader[0] if isinstance(reader, tuple) else None
        setattr(args, name.replace("-", "_"), default)


def _parse(argv):
    """The global flags, ``command`` and that command's positionals and flags
    that ``argv`` gives, read against ``_GLOBAL_FLAGS`` and ``_COMMANDS``.

    ``-h``/``--help`` prints the help of its level and exits 0; a usage error
    prints the usage line and ``resint: error: ...`` and exits 2.  A flag's
    value is the next token or follows ``=``, and a repeated flag keeps the
    last; after the command, flags and positionals may interleave.
    """
    command = None
    _, _, positionals, flags, required = _TOP
    args = types.SimpleNamespace()
    _defaults(args, flags)
    filled = 0
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            sys.stdout.flush()
            raise SystemExit(0)
        if token.startswith("--"):
            name, eq, text = token[2:].partition("=")
            if name not in flags:
                hint = " (global flags go before the command)" if name in _GLOBAL_FLAGS else ""
                _fail(command, f"unrecognized arguments: {token}{hint}")
            reader = flags[name][0]
            if reader is None:
                if eq:
                    _fail(command, f"argument --{name}: takes no value, got {text!r}")
                value = True
            else:
                if not eq:
                    text = next(tokens, None)
                    if text is None:
                        _fail(command, f"argument --{name}: expected one argument")
                value = _read(command, "--" + name, reader, text)
            setattr(args, name.replace("-", "_"), value)
        elif filled < len(positionals):
            name, reader = positionals[filled]
            setattr(args, name, _read(command, name, reader, token))
            filled += 1
            if command is None:
                command = args.command
                _, _, positionals, flags, required = _COMMANDS[command]
                _defaults(args, flags)
                filled = 0
        else:
            _fail(command, f"unrecognized arguments: {token}")
    missing = [name for name, _ in positionals[filled:]]
    missing += ["--" + name for name in required if getattr(args, name) is None]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return args


def _run(args):
    if args.max_reductions is not None:
        max_reductions.set(args.max_reductions)
    return _COMMANDS[args.command][0](args)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
