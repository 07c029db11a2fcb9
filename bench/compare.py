"""Compare the result files of two commits.

usage: python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that bench/run.py wrote with --out,
ideally from the same workloads, seeds and --seconds on both sides.  For
every workload and metric, this prints the parent's and the change's median
and quartiles over runs and the relative change of the medians, and flags

  WORSE  an end-to-end metric whose change median is worse than the parent's
         by more than its bound in BENCHMARK.json;
  ROSE   a count whose change median is above the parent's.

It prints the machine and commit recorded in each side's files, and exits
with 1 when anything is flagged.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, metric): [value per run]}, {metric: unit}, machines seen."""
    values, units, machines = {}, {}, set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        machines.add(json.dumps(record["machine"], sort_keys=True))
        for name, m in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
            units[name] = m["unit"]
    return values, units, machines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, units, parent_machines = load(argv[0])
    change, _, change_machines = load(argv[1])
    for label, machines in (("parent", parent_machines), ("change", change_machines)):
        for m in sorted(machines):
            print(f"{label}: {m}")
    flagged = 0
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        p1, pm, p3 = quartiles(parent[key])
        c1, cm, c3 = quartiles(change[key])
        delta = (cm - pm) / abs(pm) if pm else 0.0
        flag = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * delta > bounds[name]["bound"]:
                flag = "WORSE"
        elif units[name] == "count" and cm > pm:
            flag = "ROSE"
        flagged += bool(flag)
        print(
            f"{workload:<15} {name:<46} parent {pm:.6g} [{p1:.6g}, {p3:.6g}] n={len(parent[key])}"
            f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}] n={len(change[key])}"
            f"  {delta:+.1%} {units[name]} {flag}"
        )
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]:<15} {key[1]:<46} only in {'parent' if key in parent else 'change'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
