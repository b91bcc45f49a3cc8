"""The three benchmark workloads: inputs, set-up and items.

Each workload is a dict of plain functions:

* ``modules``: the levelcross modules it uses, imported before tracing
  starts in a traced run;
* ``setup(seed)``: imports levelcross, parses the workload's specs and
  builds its ``constants_for``; returns the state ``run`` needs;
* ``run(state, tracer)``: issues every item and returns
  ``{"items": [...], "extra": {...}}``, one output dict per item in item
  order.  An item that raises is recorded as ``{"error": ...}`` and the
  remaining items still run.

This module imports nothing at load time, so that the set-up a child
process times includes every import levelcross itself needs.  Library
functions are looked up on their module at call time (``lc.sweep_c``,
never a name bound at set-up), so the tracer's wrappers see every call.
"""

DEFAULT_SEED = 20170101

# the README / criterion-8 figure-1 command, minus --seed
FIG1_ARGV = [
    "sweep", "--var", "c", "--min", "0.05", "--max", "2.0", "--step", "0.05",
    "--t", "exp:1", "--y", "exp:1", "--u", "10", "--v", "0", "--horizon", "100",
    "--methods", "main,exact,sim", "--trials", "1000",
]

# (name, gap spec, jump spec, trials per node).  The last pair has
# rate2 = 3 * rate1, so every gap draw runs the 90-step bisection quantile;
# its trial count keeps it at under half of the workload's time.
PAIRS = [
    ("erlang_erlang", "erlang:1.2,2", "erlang:1,2", 400),
    ("mix2exp_pareto", "mix2exp:1,2,0.6666666666666667", "pareto:4,0.35", 400),
    ("erlang_pareto", "erlang:6,4", "pareto:4,0.4", 400),
    ("pareto_pareto", "pareto:4,0.4", "pareto:4,0.4", 400),
    ("mix2exp_bisect_pareto", "mix2exp:1,3,0.6666666666666667", "pareto:4,0.35", 80),
]
PAIRS_U, PAIRS_V, PAIRS_T = 10.0, 0.0, 100.0


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


# -- fig1_exp ---------------------------------------------------------------


def fig1_setup(seed):
    import levelcross
    import levelcross.cli

    gaps = levelcross.parse_spec("exp:1")
    jumps = levelcross.parse_spec("exp:1")
    levelcross.constants_for(gaps, jumps)
    return {"cli": levelcross.cli, "argv": FIG1_ARGV + ["--seed", str(seed)]}


def fig1_run(state, tracer):
    import io
    import sys

    buf = io.StringIO()
    saved, sys.stdout = sys.stdout, buf
    try:
        status = state["cli"].main(state["argv"])
    finally:
        sys.stdout = saved
    if status != 0:
        raise RuntimeError(f"levelcross sweep exited with status {status}")
    lines = buf.getvalue().split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("x,"))
    last = next(i for i, line in enumerate(lines) if line.startswith("max|"))
    csv_text = "\n".join(lines[first:last]) + "\n"
    header = lines[first].split(",")
    items = []
    for row in lines[first + 1:last]:
        item = dict(zip(header, map(float, row.split(","))))
        item["row"] = row
        items.append(item)
    return {"items": items, "extra": {"csv": csv_text}}


# -- pairs_sim --------------------------------------------------------------


def pairs_setup(seed):
    import levelcross as lc

    pairs = []
    for name, t_spec, y_spec, trials in PAIRS:
        gaps, jumps = lc.parse_spec(t_spec), lc.parse_spec(y_spec)
        pairs.append((name, gaps, jumps, lc.constants_for(gaps, jumps), trials))
    return {"lc": lc, "pairs": pairs, "seed": seed}


def pairs_run(state, tracer):
    lc = state["lc"]
    items = []
    for index, (name, gaps, jumps, k, trials) in enumerate(state["pairs"]):
        # items are keyed by (phase, query); distinct pairs may share a c
        tracer.phase = index
        cs = k.c_star
        grid = lc.SweepGrid(0.5 * cs, 1.5 * cs, 0.1 * cs)
        try:
            swept = lc.sweep_c(
                gaps, jumps, PAIRS_U, PAIRS_V, PAIRS_T, grid, trials, state["seed"]
            )
        except Exception as exc:
            items.extend(_error(exc) for _ in grid.nodes())
            continue
        for c, est in swept:
            item = {
                "pair": name, "c": c, "trials": est.trials, "successes": est.successes,
                "estimate": est.estimate, "ci_low": est.ci_low, "ci_high": est.ci_high,
            }
            try:
                r = lc.corrected_expansion(lc.CrossingQuery(PAIRS_U, c, PAIRS_V, PAIRS_T), k)
            except Exception as exc:
                item.update(_error(exc))
            else:
                item.update(main=r.main, corrected=r.corrected)
            items.append(item)
    tracer.phase = 0
    return {"items": items, "extra": {}}


# -- exact_tail -------------------------------------------------------------


def exact_queries():
    """(u, c, v, t) of the 117 exact queries, in item order."""
    inf = float("inf")
    return (
        # Bessel argument above 2000
        [(50.0, 0.5 + 0.025 * i, 0.0, 1000.0) for i in range(61)]
        # capped infinite horizon, grid through c* = 1
        + [(10.0, 0.5 + 0.1 * i, 0.0, inf) for i in range(16)]
        # first-renewal time sweep at the critical rate
        + [(10.0, 1.0, 0.5 * i, 100.0) for i in range(40)]
    )


UNCONDITIONAL = (10.0, 1.0, 100.0)  # (u, c, t)


def exact_setup(seed):
    import levelcross as lc

    gaps, jumps = lc.parse_spec("exp:1"), lc.parse_spec("exp:1")
    k = lc.constants_for(gaps, jumps)
    model = lc.ExpExpModel(gaps.rate, jumps.rate)
    queries = [lc.CrossingQuery(*q) for q in exact_queries()]
    return {"lc": lc, "k": k, "model": model, "queries": queries}


def exact_run(state, tracer):
    lc, k, model = state["lc"], state["k"], state["model"]
    items = []
    for q in state["queries"]:
        item = {"u": q.u, "c": q.c, "v": q.v, "t": q.t}
        try:
            item["exact"] = lc.exact_conditional(model, q)
            r = lc.corrected_expansion(q, k)
            item.update(main=r.main, corrected=r.corrected)
        except Exception as exc:
            item.update(_error(exc))
        items.append(item)
    try:
        items.append({"unconditional": lc.unconditional_exp_first_renewal(model, *UNCONDITIONAL)})
    except Exception as exc:
        items.append(_error(exc))
    return {"items": items, "extra": {}}


# ``layers``: the layers that must record work in a traced run
WORKLOADS = {
    "fig1_exp": {
        "modules": ["levelcross", "levelcross.cli"],
        "setup": fig1_setup,
        "run": fig1_run,
        "items": 40,
        "layers": ["cli", "sim", "distributions", "exact", "quadrature", "specfun",
                   "approx", "moments"],
    },
    "pairs_sim": {
        "modules": ["levelcross"],
        "setup": pairs_setup,
        "run": pairs_run,
        "items": 11 * len(PAIRS),
        "layers": ["sim", "distributions", "specfun", "approx", "moments"],
    },
    "exact_tail": {
        "modules": ["levelcross"],
        "setup": exact_setup,
        "run": exact_run,
        "items": len(exact_queries()) + 1,
        "layers": ["distributions", "exact", "quadrature", "specfun", "approx", "moments"],
    },
}
