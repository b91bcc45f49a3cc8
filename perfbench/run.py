"""levelcross benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload {fig1_exp,pairs_sim,exact_tail}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src/``.
Every execution of the workload happens in a fresh interpreter
(``child.py``), one after another, for about ``--seconds`` seconds and at
least ``MIN_REPEATS`` times.  Times and memory are medians over those
executions; item percentiles are taken over every item of every
execution.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a fully traced execution and reports the per-layer metrics;
the traced outputs must equal the untraced ones, and every layer the
workload is expected to use must record work.  Every output is checked
against ``goldens.json`` outside the timed region (see ``checks.py``).

Human-readable lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit status is 0 whenever that line is printed, and nonzero (with no
result line) when the benchmark itself cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_REPEATS = 3
SETUP_REPEATS = 9  # extra set-up-only interpreters per run, for setup_s
TIME_LIMIT_S = 170.0  # the whole run, children included

END_TO_END = {
    "wall_s": "s",
    "item_s_p50": "s",
    "item_s_p75": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim.self_s": "s",
    "sim.trajectories": "count",
    "sim.uniforms_per_trajectory": "uniforms/traj",
    "sim.horizon_stopped_frac": "fraction",
    "sim.trajectories_per_s": "traj/s",
    "distributions.draws": "count",
    "distributions.sample_s": "s",
    "distributions.cdf_evals_per_draw": "cdf/draw",
    "exact.conditional_calls": "count",
    "exact.conditional_s": "s",
    "exact.bessel_evals_per_value": "evals/value",
    "exact.unconditional_s": "s",
    "quadrature.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.self_s": "s",
    "specfun.log_bessel_i1_calls": "count",
    "specfun.log_bessel_i1_s": "s",
    "approx.calls": "count",
    "approx.us_per_call": "us",
    "moments.constants_s": "s",
    "cli.sweep_s": "s",
    "cli.output_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    sample at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[rank - 1]


class Runner:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def child(self, mode):
        remaining = TIME_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before the minimum number of executions")
        cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"),
               ROOT, self.workload, str(self.seed), mode]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} execution did not finish within the time limit") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} execution failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repeat(self, modes, seconds, minimum):
        """Run ``modes`` in turn until ``seconds`` would be exceeded by one
        more round, and at least ``minimum`` rounds."""
        rounds, durations = [], []
        while len(rounds) < minimum or self.elapsed() + statistics.mean(durations) <= seconds:
            start = time.monotonic()
            rounds.append([self.child(mode) for mode in modes])
            durations.append(time.monotonic() - start)
        return rounds


def failures(workload, seed, record, goldens, reference=None):
    """Failure reason per item of one execution (None for a pass)."""
    n = WORKLOADS[workload]["items"]
    if record["error"]:
        return [f"workload raised {record['error']}"] * n
    if record["missing"]:
        return [f"tracer found no {', '.join(record['missing'])}"] * n
    fails = checks.check(workload, seed, record["outputs"], goldens)
    if reference is not None:
        fails = [
            f or (None if a == b else "output differs between executions")
            for f, a, b in zip(fails, record["outputs"]["items"], reference["outputs"]["items"])
        ]
    return fails


def traced_failures(workload, seed, plain, traced, goldens):
    """Failures of a traced execution: its own checks, any output that
    differs from the paired untraced one, and any layer the workload is
    expected to use that recorded no calls."""
    fails = failures(workload, seed, traced, goldens, plain)
    idle = [layer for layer in WORKLOADS[workload]["layers"] if not traced["layer_calls"][layer]]
    if idle:
        fails = [f or f"no traced calls in layer {', '.join(idle)}" for f in fails]
    return fails


def end_to_end(runner, seconds, goldens):
    runner.child("setup")  # warm-up: writes bytecode caches, not measured
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_REPEATS)]
    records = [r[0] for r in runner.repeat(["plain"], seconds, MIN_REPEATS)]
    n = WORKLOADS[runner.workload]["items"]
    fails = []
    for rec in records:
        item_fails = failures(runner.workload, runner.seed, rec, goldens, records[0])
        if len(rec["item_s"]) != n:
            item_fails = [f or f"timed {len(rec['item_s'])} items, expected {n}" for f in item_fails]
        fails.extend(item_fails)
    # percentiles over every item of every execution; with nothing timed
    # every item has failed, and they read 0
    item_s = [t for r in records for t in r["item_s"]] or [0.0]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "item_s_p50": percentile(item_s, 50),
        "item_s_p75": percentile(item_s, 75),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in records]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    print(f"executions {len(records)}, items per execution {n}, item samples {len(item_s)}, "
          f"set-ups timed {len(setups) + len(records)}")
    print("wall_s per execution: " + " ".join(f"{r['wall_s']:.4f}" for r in records))
    return metrics, fails, END_TO_END


def per_layer(runner, seconds, goldens):
    rounds = runner.repeat(["plain", "traced"], seconds, 1)
    fails = []
    for plain, traced in rounds:
        fails.extend(failures(runner.workload, runner.seed, plain, goldens))
        fails.extend(traced_failures(runner.workload, runner.seed, plain, traced, goldens))

    def rate(plain, traced):
        sim = plain["method_calls"].get("simulate_conditional", [0, 0.0])[1]
        calls = busy = 0
        for count, busy_s, layer in plain["method_calls"].values():
            if layer == "approx":
                calls, busy = calls + count, busy + busy_s
        return {
            "sim.trajectories_per_s": traced["layers"]["sim.trajectories"] / sim if sim else 0.0,
            "approx.us_per_call": 1e6 * busy / calls if calls else 0.0,
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }

    samples = [{**traced["layers"], **rate(plain, traced)} for plain, traced in rounds]
    metrics = {name: statistics.median(s[name] for s in samples) for name in PER_LAYER}
    print(f"traced/untraced pairs {len(rounds)}, trace written to {rounds[-1][1]['trace_file']}")
    return metrics, fails, PER_LAYER


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"simulator master seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "levelcross", "__init__.py")):
        print(f"error: no levelcross sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    runner = Runner(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, fails, units = measure(runner, args.seconds, goldens)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(f is not None for f in fails)
    for reason in sorted({f for f in fails if f})[:20]:
        print(f"FAILED: {reason}")
    print(f"workload {args.workload}, seed {args.seed}, {runner.elapsed():.1f} s")
    for name, value in metrics.items():
        print(f"{name:34} {value:.6g} {units[name]}")
    print(f"{'failed_frac':34} {failed / len(fails):.6g} fraction ({failed} of {len(fails)} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(fails),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
