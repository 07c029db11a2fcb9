"""Self-test of the benchmark's tracing: exact traced counts in bundled order.

usage: python3 bench/selftest.py

Runs one traced pass of each workload at seed 0, checks the verdicts against
the golden and compares exact call counts with the ones below.  The
``groebner_basis`` calls / computed bases / distinct inputs are the counts
the benchmark's cache metrics rest on.  The calls of the other operations
include those ``resint.verify`` and ``resint.cli`` make through names they
imported; a wrapper bound only in the defining module would miss them.  An
engine change that moves these counts on purpose (an operation cache, say)
updates them here.
"""

import json
import sys

from run import BENCH, ROOT, WORKLOADS, check_pass, run_pass
from tracer import summarise

CALLS = ("groebner_basis", "is_member", "ideals_equal", "intersect", "quotient", "codim", "min_generators")
# (groebner_basis computed, distinct inputs), then calls in CALLS order.
EXPECTED = {
    "e6-verify": ((88, 37), (112, 25, 7, 63, 6, 10, 3)),
    "e7-exact": ((30, 23), (30, 0, 2, 26, 2, 0, 0)),
    "e7-containment": ((4, 4), (137, 137, 0, 0, 0, 0, 0)),
    "gr26-colon": ((164, 95), (164, 0, 4, 156, 4, 0, 0)),
}


def main():
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        result, spans = run_pass(workload, 0, True, tmp_root)
        _, failed, problems = check_pass(result, golden[workload])
        if failed:
            print(f"FAIL {workload}: {problems}")
            ok = False
            continue
        layer = summarise(spans["names"], spans["spans"])
        layer.update(result["basis_counts"])
        got = (
            tuple(layer[f"groebner.groebner_basis.{k}"] for k in ("computed", "distinct_inputs")),
            tuple(layer.get(f"groebner.{name}.calls", 0) for name in CALLS),
        )
        status = "ok" if got == EXPECTED[workload] else "FAIL"
        ok = ok and got == EXPECTED[workload]
        print(f"{status} {workload}: {got}, expected {EXPECTED[workload]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
