"""Cold-process verdict-time benchmark for resint.

usage: python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                            [--trace 0|1] [--out DIR]

Run from the root of a checkout.  Each pass runs one workload in a fresh
child interpreter (bench/child.py) with a fresh working directory under
``.bench_tmp/``, ``RESINT_CACHE_DIR`` removed from the environment, ``--jobs``
left at 1 and the report written into that directory, so no cache carries
over between passes.  Passes run one at a time (a closed loop of one caller)
until the next would end after ``--seconds``.  Every pass is checked against
``bench/golden.json``.  Seed 0 runs the bundled inputs; any other seed
shuffles the generators of every ideal and the order of the checks, drawing
a new shuffle for each pass of an untraced run.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics of BENCHMARK.json, each the median over passes:
``verdict_s`` (inputs ready to the last verdict), ``setup_s`` (child start to
inputs ready) and ``peak_rss_mb`` (the child's peak resident memory).  With
``--trace 1`` each untraced pass is followed by a traced one on the same
input, and the JSON holds the per-layer metrics of the traced passes plus
``trace.overhead_s``.  The lines before it give quartiles, pass counts and
``failed_frac``.  Each run also writes a result file (and, when traced, its
spans) into ``--out``; bench/compare.py compares two such directories.  The
exit code is 1 when any check differs from the golden, raised or its pass
failed, and 2 when the checkout has no resint sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import summarise

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Why each workload is here (seed single-pass times on a 2-core Xeon):
# - e6-verify: 12 checks over all seven check kinds in 16 variables (~1.6 s);
#   51 of its 88 basis computations repeat an input, so an operation cache
#   does most of its work here.  Only workload running link, geometric_link,
#   residual_intersection, codim and mu.
# - e7-exact: 2 colon checks in 27 variables (~4 s); 26 of 30 bases come from
#   intersect and reduction dominates, so it is the monomial-kernel workload;
#   only 7 bases repeat, so a cache should barely move it.
# - e7-containment: the same ring on the read path (~0.6 s): 137 membership
#   tests against 4 bases, 133 groebner_basis calls hit an existing basis, so
#   any per-call cost a cache adds shows here.
# - gr26-colon: (K_j) : (I) == (I_j) on Gr(2,6), j = 2..5 (~3.5 s): 164 small
#   bases where pair bookkeeping outweighs reduction.
WORKLOADS = {
    "e6-verify": {"scenario": "e6", "exact": False},
    "e7-exact": {"scenario": "e7", "exact": True},
    "e7-containment": {"scenario": "e7", "exact": False},
    "gr26-colon": {"scenario": None},
}

# A pass that takes longer counts as failed; the slowest pass (traced
# e7-exact) takes about 5 s.
PASS_TIMEOUT_S = 45


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env.pop("RESINT_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def write_scenario(name, seed, directory):
    """The bundled scenario; a nonzero pass seed shuffles every ideal's
    generators and the order of the checks."""
    path = ROOT / "src" / "resint" / "data" / f"{name}.scenario.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    if seed:
        rng = random.Random(seed)
        for gens in data["ideals"].values():
            rng.shuffle(gens)
        rng.shuffle(data["checks"])
    out = directory / f"{name}.scenario.json"
    out.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return out


def run_pass(workload, seed, traced, tmp_root):
    """Run one pass in a fresh child; return (result dict, spans or None).

    Seed 0 keeps the bundled order; any other seed shuffles the inputs.
    """
    work = WORKLOADS[workload]
    directory = Path(tempfile.mkdtemp(prefix="pass-", dir=tmp_root))
    try:
        spec = {"trace": traced, "seed": seed}
        if work["scenario"] is None:
            spec["kind"] = "gr26"
        else:
            report = directory / "report.json"
            scenario = write_scenario(work["scenario"], seed, directory)
            argv = ["--json", str(report), "verify", str(scenario)]
            if work["exact"]:
                argv.append("--exact")
            spec.update(kind="cli", argv=argv, report=str(report))
        spec_path = directory / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = child_env()
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path), str(spawn_ns)],
                cwd=directory,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"pass exceeded {PASS_TIMEOUT_S} s"}, None
        result_path = directory / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            stderr = proc.stderr.decode(errors="replace").strip()
            return {"error": f"child exited {proc.returncode}: {stderr[-2000:]}"}, None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        spans = None
        if traced and "error" not in result:
            spans = json.loads((directory / "spans.json").read_text(encoding="utf-8"))
        return result, spans
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def check_pass(result, golden):
    """Return (attempted, failed, problems) against one workload's golden."""
    expected = golden["checks"]
    attempted = len(expected)
    if "error" in result:
        return attempted, attempted, [result["error"]]
    if result["exit"] != golden["exit"]:
        return attempted, attempted, [f"exit code {result['exit']}, expected {golden['exit']}"]
    got = {c["name"]: c for c in result["checks"]}
    if set(got) != set(expected):
        return attempted, attempted, [f"checks {sorted(got)} differ from the golden"]
    problems = []
    for name, want in expected.items():
        have = {k: got[name].get(k) for k in ("kind", "verdict", "values")}
        if have != want:
            problems.append(f"{name}: {have} != golden {want}")
    return attempted, len(problems), problems


def describe(values):
    """Median, quartiles, count and the highest percentile that has at least
    ten passes beyond it (None when there are too few passes)."""
    n = len(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (median,) * 3
    tail = None
    for p in (99, 95, 90, 75):
        if n * (100 - p) // 100 >= 10:
            tail = (p, statistics.quantiles(values, n=100)[p - 1])
            break
    return {"median": median, "q1": q1, "q3": q3, "n": n, "tail": tail}


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed, seconds, trace, golden, tmp_root):
    """Run passes until the next would end after `seconds`.

    Generator order changes the Buchberger path, and on e7-exact it alone
    moves a pass between about 2.2 and 4.3 s.  So each untraced pass draws
    its own shuffle from the run's seed, and a run's median spans many orders.
    With tracing, every pass uses the run's first shuffle, so the exact counts
    repeat, and each untraced pass is followed by a traced one; the overhead
    is the median of their differences.
    """
    rng = random.Random(seed)
    pass_seed = 0
    start = _now()
    walls = []
    untraced = {"verdict_s": [], "setup_s": [], "peak_rss_mb": []}
    overheads = []
    layers = []
    spans_out = []
    attempted = failed = 0
    problems = []
    while True:
        if seed and not (trace and walls):
            pass_seed = rng.getrandbits(32)
        t0 = _now()
        for traced in (False, True) if trace else (False,):
            result, spans = run_pass(workload, pass_seed, traced, tmp_root)
            a, f, p = check_pass(result, golden)
            attempted += a
            failed += f
            problems += [f"pass seed {pass_seed}: {msg}" for msg in p]
            if "error" in result:
                break
            if traced:
                overheads.append(result["verdict_s"] - untraced["verdict_s"][-1])
                layer = summarise(spans["names"], spans["spans"])
                layer.update(result["basis_counts"])
                layers.append(layer)
                spans_out.append({"pass": len(layers), "seed": pass_seed, **spans})
            else:
                for key in untraced:
                    untraced[key].append(result[key])
        walls.append(_now() - t0)
        if "error" in result or _now() - start + statistics.median(walls) > seconds:
            break
    return {
        "elapsed_s": _now() - start,
        "passes": len(untraced["verdict_s"]) + len(layers),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "untraced": untraced,
        "overhead_s": overheads,
        "layers": layers,
        "spans": spans_out,
    }


def metrics_for(run, spec, trace):
    """The BENCHMARK.json metrics of one run: name -> (value, unit)."""
    out = {}
    if not trace:
        for m in spec["end_to_end"]:
            values = run["untraced"][m["name"]]
            if values:
                out[m["name"]] = (statistics.median(values), m["unit"])
        return out
    layers = run["layers"]
    if not layers:
        return out
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = statistics.median(run["overhead_s"])
        else:
            value = statistics.median_low([layer.get(name, 0) for layer in layers])
        out[name] = (value, m["unit"])
    return out


def report(workload, seed, run, metrics, spec, trace):
    mode = "traced and untraced" if trace else "untraced"
    print(
        f"{workload}  seed {seed}  {run['passes']} passes ({mode})"
        f" in {run['elapsed_s']:.1f} s"
    )
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        values = run["untraced"][name]
        if not values:
            continue
        d = describe(values)
        tail = f"  p{d['tail'][0]} {d['tail'][1]:.4f}" if d["tail"] else ""
        print(
            f"  {name:<14} median {d['median']:.4f} {unit}"
            f"  q1 {d['q1']:.4f}  q3 {d['q3']:.4f}  n={d['n']}{tail}"
        )
    frac = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(
        f"  {'failed_frac':<14} {frac:.4f} 1"
        f"  ({run['failed']} of {run['attempted']} checks)"
    )
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<46} {value:.6g} {unit}")
    for msg in run["problems"][:20]:
        print(f"  FAILED {msg}")


def save(out_dir, workload, seed, seconds, trace, run, metrics, env):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": {k: run[k] for k in ("untraced", "overhead_s", "layers")},
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if run["spans"]:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for entry in run["spans"]:
                fh.write(json.dumps(entry) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".bench_out"),
                        help="directory for result files, relative to the checkout")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    golden_path = BENCH / "golden.json"
    if not (ROOT / "src" / "resint" / "__init__.py").is_file():
        print(f"error: no resint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    # Compile the package's bytecode once, so the first timed pass does not.
    subprocess.run([sys.executable, "-c", "import resint.cli"], cwd=tmp_root,
                   env=child_env(), check=True, timeout=PASS_TIMEOUT_S)
    env = machine()
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = args.out if args.out.is_absolute() else ROOT / args.out
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run = measure(workload, args.seed, args.seconds, args.trace, golden[workload], tmp_root)
        metrics = metrics_for(run, spec, args.trace)
        report(workload, args.seed, run, metrics, spec, args.trace)
        save(out_dir, workload, args.seed, args.seconds, args.trace, run, metrics, env)
        values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if len(workloads) == 1:
            summary["metrics"] = values
        else:
            summary["metrics"][workload] = values
        summary["attempted"] += run["attempted"]
        summary["failed"] += run["failed"]
    summary["correct"] = summary["failed"] == 0 and summary["attempted"] > 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
