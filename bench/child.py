"""One benchmark pass in a fresh interpreter; run.py starts it.

usage: child.py SPEC_JSON SPAWN_NS

SPAWN_NS is CLOCK_MONOTONIC in nanoseconds, read by the parent just before it
started this process, so set-up time includes interpreter start.  The pass
writes ``result.json`` (and ``spans.json`` when traced) into its working
directory.
"""

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _cli_pass(spec):
    from resint import cli

    tracer = _install_tracer() if spec["trace"] else None
    ready = _now_ns()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(spec["argv"])
    done = _now_ns()
    with open(spec["report"], encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    return tracer, ready, done, code, checks


def _gr26_pass(spec):
    """(K_j) : (I) == (I_j) on the Gr(2,6) Pluecker model for j = 2..5."""
    from resint import families, groebner

    tracer = _install_tracer() if spec["trace"] else None
    rng = random.Random(spec["seed"]) if spec["seed"] else None

    def shuffled(ideal):
        gens = list(ideal.generators)
        if rng is not None:
            rng.shuffle(gens)
        return groebner.Ideal(ideal.ring, gens)

    model = families.pluecker_gr2(6)
    I = shuffled(model.ideal_I())
    cases = [(j, shuffled(model.ideal_K(j)), shuffled(model.ideal_I_j(j))) for j in range(2, 6)]
    if rng is not None:
        rng.shuffle(cases)
    ready = _now_ns()
    checks = []
    for j, K, I_j in cases:
        entry = {"name": f"gr26-colon-K{j}-I-is-I{j}", "kind": "colon_equals"}
        try:
            equal = groebner.ideals_equal(groebner.quotient(K, I), I_j)
        except Exception as exc:  # recorded per check, the pass goes on
            entry.update(verdict="error", values={"error": repr(exc)})
        else:
            entry.update(verdict="pass" if equal else "fail", values={"equal": equal})
        checks.append(entry)
    done = _now_ns()
    return tracer, ready, done, 0, checks


def _install_tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def main():
    spawn_ns = int(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {}
    tracer = None
    try:
        run = _gr26_pass if spec["kind"] == "gr26" else _cli_pass
        tracer, ready, done, code, checks = run(spec)
    except Exception:
        result["error"] = traceback.format_exc()
    else:
        result.update(
            setup_s=(ready - spawn_ns) / 1e9,
            verdict_s=(done - ready) / 1e9,
            exit=code,
            checks=checks,
        )
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["basis_counts"] = tracer.basis_counts()
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
