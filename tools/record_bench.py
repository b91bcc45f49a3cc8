"""Record BENCH_<n>.json files: performance evidence for one or more checkouts.

    python3 tools/record_bench.py --root CHECKOUT --out BENCH_<n>.json
        [--root OTHER --out BENCH_<m>.json ...] [--runs 10]

For each checkout, its own ``perfbench/run.py`` runs every workload that
its ``BENCHMARK.json`` names ``--runs`` times untraced (``--trace 0``) and
once traced (``--trace 1``), every run for the ``run_seconds`` that the
first checkout's ``BENCHMARK.json`` sets.  Run k of each workload visits
the checkouts in the order given for even k and in reverse for odd k,
back to back, so no side always runs first and run k of every checkout
forms one pair.  The traced runs and then each checkout's Tier-1 suite
run once each, in the order given, so their timings are single readings
taken in a fixed order; only their counters compare across checkouts.

Each ``--out`` file holds, for its checkout:

* the commit (and whether the tree differs from it), host, CPU count and
  Python version, and the settings and checkouts of the recording;
* per workload, every end-to-end metric's value in each run, in run
  order, with their median and interquartile range and, against each
  other checkout, how many of the paired runs it won (strictly better in
  the metric's ``better`` direction; a tie counts for neither side);
  whether every run read ``correct: true``; and the traced run's
  per-layer metrics;
* the Tier-1 wall time and its pass/fail counts;
* ``wc -l src/levelcross/*.py``, per file and in total.

Stdlib only; it leaves nothing in the checkouts but bytecode caches and
the trace files ``perfbench/run.py --trace 1`` writes under
``perfbench/traces/``.
"""

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time


def _git(root, *args):
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench(root, workload, seconds, trace):
    """The result object (the last stdout line) of one perfbench/run.py run."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def summary(values):
    """Every value in run order, their median, quartiles and IQR."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def wins(mine, theirs, better):
    """How many pairs (mine[k], theirs[k]) ``mine`` wins: strictly lower
    values for ``better == "lower"``, strictly higher for ``"higher"``."""
    sign = {"lower": -1, "higher": 1}[better]
    return sum(sign * (a - b) > 0 for a, b in zip(mine, theirs))


def pytest_counts(line):
    """{"passed": n, "failed": m, ...} from pytest's -q summary line."""
    return {kind: int(n) for n, kind in re.findall(r"(\d+) ([a-z]+)", line.split(" in ")[0])}


def tier1(root):
    """Wall time and outcome counts of the Tier-1 suite of ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "exit_status": proc.returncode, "counts": pytest_counts(last),
            "summary": last}


def source_lines(root):
    """``wc -l src/levelcross/*.py``: newline count per file, and the total."""
    files = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "levelcross", "*.py"))):
        with open(path, "rb") as fh:
            files[os.path.relpath(path, root)] = fh.read().count(b"\n")
    return {"files": files, "total": sum(files.values())}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append", required=True,
                        help="checkout to measure (repeat for several)")
    parser.add_argument("--out", action="append", required=True,
                        help="BENCH_<n>.json to write, one per --root, in the same order")
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload (default 10)")
    args = parser.parse_args(argv)
    if len(args.root) != len(args.out):
        parser.error("give one --out per --root")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    args.root = [os.path.abspath(r) for r in args.root]
    for root in args.root:
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {root}")
    return args


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(args.root[0], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    plain = {root: {w: [] for w in workloads} for root in args.root}
    for k in range(args.runs):
        order = args.root if k % 2 == 0 else args.root[::-1]
        for w in workloads:
            for root in order:
                plain[root][w].append(bench(root, w, seconds, 0))
                print(f"run {k + 1}/{args.runs} {w} {root}", file=sys.stderr)
    traced = {root: {w: bench(root, w, seconds, 1) for w in workloads} for root in args.root}
    suites = {root: tier1(root) for root in args.root}

    commits = {root: _git(root, "rev-parse", "HEAD") for root in args.root}
    values = {root: {w: {m: [r["metrics"][m]["value"] for r in plain[root][w]] for m in metrics}
                     for w in workloads} for root in args.root}

    def end_to_end(root, w, m):
        mine = values[root][w][m]
        return {**summary(mine), "wins": [
            {"root_position": args.root.index(other) + 1, "commit": commits[other],
             "won": wins(mine, values[other][w][m], metrics[m]), "of": args.runs}
            for other in args.root if other != root]}

    for root, out in zip(args.root, args.out):
        record = {
            "commit": commits[root],
            "tree_differs_from_commit": bool(_git(root, "status", "--porcelain")),
            "host": platform.node(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "settings": {"runs": args.runs, "seconds": seconds,
                         "alternated_with": [commits[r] for r in args.root if r != root],
                         "root_position": args.root.index(root) + 1,
                         "traced_and_tier1": "once per checkout, in --root order"},
            "workloads": {
                w: {
                    "correct": all(r["correct"] for r in plain[root][w] + [traced[root][w]]),
                    "end_to_end": {m: end_to_end(root, w, m) for m in metrics},
                    "traced": {name: m["value"] for name, m in traced[root][w]["metrics"].items()},
                }
                for w in workloads
            },
            "tier1": suites[root],
            "source_lines": source_lines(root),
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
