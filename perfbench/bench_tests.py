"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest perfbench/bench_tests.py -q

They run in a few seconds: no test executes a whole workload.
"""

import copy
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as _fh:
    GOLDENS = json.load(_fh)


# -- percentiles and sample counts ---------------------------------------


def test_nearest_rank_percentile():
    values = list(range(40, 0, -1))  # 40 .. 1, unsorted on purpose
    assert run.percentile(values, 50) == 20
    assert run.percentile(values, 75) == 30
    assert run.percentile([7.0], 75) == 7.0
    assert run.percentile([1, 2, 3], 50) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_p75_has_ten_samples_beyond_it(name):
    n = workloads.WORKLOADS[name]["items"]
    assert n >= 40
    rank = run.percentile(list(range(1, n + 1)), 75)
    assert n - rank >= 10


def test_item_counts_match_the_goldens():
    assert len(GOLDENS["fig1_exp"]["x"]) == workloads.WORKLOADS["fig1_exp"]["items"] == 40
    assert len(GOLDENS["pairs_sim"]["nodes"]) == workloads.WORKLOADS["pairs_sim"]["items"] == 55
    assert len(GOLDENS["exact_tail"]["queries"]) + 1 == workloads.WORKLOADS["exact_tail"]["items"]
    assert workloads.WORKLOADS["exact_tail"]["items"] == 118


# -- output checks -------------------------------------------------------


def golden_record(name):
    """An execution record whose outputs reproduce the goldens exactly."""
    g = GOLDENS[name]
    if name == "fig1_exp":
        items = []
        for row in g["rows"]:
            x, main, exact, sim, lo, hi = map(float, row.split(","))
            items.append({"x": x, "main": main, "exact": exact, "sim": sim,
                          "sim_ci_low": lo, "sim_ci_high": hi, "row": row})
        header = "x,main,exact,sim,sim_ci_low,sim_ci_high"
        extra = {"csv": "\n".join([header, *g["rows"]]) + "\n"}
    elif name == "pairs_sim":
        items = []
        for node in g["nodes"]:
            p = node["successes"] / node["trials"]
            items.append({**node, "estimate": p, "ci_low": max(0.0, p - 0.1),
                          "ci_high": min(1.0, p + 0.1)})
        extra = {}
    else:
        items = [
            {"u": u, "c": c, "v": v, "t": t, "exact": q["exact"], "main": q["main"],
             "corrected": q["corrected"]}
            for (u, c, v, t), q in zip(workloads.exact_queries(), g["queries"])
        ]
        items.append({"unconditional": g["unconditional"]})
        extra = {}
    return {"error": None, "missing": [], "outputs": {"items": items, "extra": extra}}


def failed_frac(fails):
    return sum(f is not None for f in fails) / len(fails)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_outputs_pass(name):
    fails = run.failures(name, workloads.DEFAULT_SEED, golden_record(name), GOLDENS)
    assert len(fails) == workloads.WORKLOADS[name]["items"]
    assert failed_frac(fails) == 0.0, [f for f in fails if f]


def test_fig1_csv_hash_is_the_published_one():
    rec = golden_record("fig1_exp")
    digest = run.checks.sha256(rec["outputs"]["extra"]["csv"])
    assert digest == GOLDENS["fig1_exp"]["csv_sha256"]
    assert digest == "a227c0dc3427153b25c266ca91569484f75b325d8b986da54389282e63c910cb"


@pytest.mark.parametrize("name,path", [
    ("fig1_exp", ("exact", 3)),
    ("pairs_sim", ("nodes", 7, "corrected")),
    ("exact_tail", ("queries", 70, "exact")),
])
def test_corrupted_golden_registers_in_failed_frac(name, path):
    goldens = copy.deepcopy(GOLDENS)
    parent = goldens[name]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] += 1e-6  # far beyond every tolerance
    fails = run.failures(name, workloads.DEFAULT_SEED, golden_record(name), goldens)
    assert failed_frac(fails) == 1 / workloads.WORKLOADS[name]["items"]


def test_sim_counts_are_exact_at_the_default_seed_only():
    rec = golden_record("pairs_sim")
    node = rec["outputs"]["items"][12]
    node["successes"] += 1
    node["estimate"] = node["successes"] / node["trials"]
    assert failed_frac(run.failures("pairs_sim", workloads.DEFAULT_SEED, rec, GOLDENS)) > 0
    # another seed draws other paths: one more success is well within 6 SE
    assert failed_frac(run.failures("pairs_sim", 1, rec, GOLDENS)) == 0


def test_fig1_coverage_rule_depends_on_the_seed():
    def with_misses(k):
        rec = golden_record("fig1_exp")
        for item in rec["outputs"]["items"][:k]:
            item["sim_ci_low"] = item["sim_ci_high"] = item["exact"] + 0.5
        return rec

    def failing(seed, rec):
        return [i for i, f in enumerate(run.failures("fig1_exp", seed, rec, GOLDENS)) if f]

    # criterion 5 at the default seed: below 90% covered, the misses fail
    assert failing(workloads.DEFAULT_SEED, with_misses(4)) == []
    assert failing(workloads.DEFAULT_SEED, with_misses(5)) == [0, 1, 2, 3, 4]
    # other seeds: chance misses pass; 13 of 40 cannot happen by chance
    assert failing(3, with_misses(12)) == []
    assert failing(3, with_misses(13)) == list(range(13))


def test_fig1_csv_change_fails_at_the_default_seed():
    rec = golden_record("fig1_exp")
    rec["outputs"]["extra"]["csv"] += "\n"
    rec["outputs"]["items"][5]["row"] += "0"
    fails = run.failures("fig1_exp", workloads.DEFAULT_SEED, rec, GOLDENS)
    assert [i for i, f in enumerate(fails) if f] == [5]


def test_a_raising_workload_fails_every_item():
    rec = golden_record("exact_tail")
    rec["error"] = "RuntimeError: boom"
    assert failed_frac(run.failures("exact_tail", 1, rec, GOLDENS)) == 1.0


def test_output_differing_between_executions_fails():
    first, second = golden_record("exact_tail"), golden_record("exact_tail")
    second["outputs"]["items"][0]["main"] += 1e-12  # inside tolerance, but not equal
    fails = run.failures("exact_tail", 1, second, GOLDENS, reference=first)
    assert [i for i, f in enumerate(fails) if f] == [0]


def test_idle_expected_layer_is_a_failure():
    plain, traced = golden_record("pairs_sim"), golden_record("pairs_sim")
    traced["layer_calls"] = dict.fromkeys(tracer.LAYERS, 5)
    assert failed_frac(run.traced_failures("pairs_sim", 1, plain, traced, GOLDENS)) == 0
    traced["layer_calls"]["distributions"] = 0
    assert failed_frac(run.traced_failures("pairs_sim", 1, plain, traced, GOLDENS)) == 1.0


# -- the seed argument ---------------------------------------------------


def test_seed_argument_reaches_every_execution(monkeypatch):
    assert run.parse_args(["--workload", "pairs_sim"]).seed == workloads.DEFAULT_SEED
    assert run.parse_args(["--workload", "pairs_sim", "--seed", "77"]).seed == 77
    seen = []

    class Done:
        returncode, stderr = 0, ""
        stdout = '{"setup_s": 0.01}\n'

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        return Done()

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    run.Runner("pairs_sim", 77).child("setup")
    assert seen[0][-3:] == ["pairs_sim", "77", "setup"]


def test_workloads_pass_the_seed_to_the_simulator():
    assert workloads.fig1_setup(77)["argv"][-2:] == ["--seed", "77"]
    assert workloads.pairs_setup(77)["seed"] == 77


def test_seed_changes_simulated_paths_and_repeats_exactly():
    import levelcross as lc

    name, t_spec, y_spec, _ = workloads.PAIRS[1]
    gaps, jumps = lc.parse_spec(t_spec), lc.parse_spec(y_spec)
    grid = lc.SweepGrid(1.0, 1.2, 0.1)

    def counts(seed):
        swept = lc.sweep_c(gaps, jumps, 10.0, 0.0, 100.0, grid, 60, seed)
        return [est.successes for _, est in swept]

    assert counts(5) == counts(5)
    assert counts(5) != counts(6)


# -- the tracer ----------------------------------------------------------


@pytest.fixture
def full_trace():
    import levelcross  # noqa: F401
    import levelcross.cli  # noqa: F401

    tr = tracer.Tracer()
    tr.install(full=True)
    try:
        yield tr
    finally:
        tr.uninstall()


def test_wrappers_rebind_every_import_site(full_trace):
    import levelcross as lc
    import levelcross.cli
    import levelcross.exact
    import levelcross.sim

    assert full_trace.missing == []
    wrapped = lc.exact_conditional
    assert wrapped is levelcross.exact.exact_conditional is levelcross.cli.exact_conditional
    assert wrapped.__name__ == "span"
    assert levelcross.sim.first_crossing_time.__name__ == "hot"


def test_uninstall_restores_the_library():
    import levelcross as lc
    import levelcross.exact

    original = lc.exact_conditional
    tr = tracer.Tracer()
    tr.install(full=True)
    assert lc.exact_conditional is not original
    tr.uninstall()
    assert lc.exact_conditional is original is levelcross.exact.exact_conditional
    assert "next_uniform" in vars(lc.LcgStream)
    assert lc.LcgStream.next_uniform.__name__ == "next_uniform"


def test_trace_counts_layers_and_items(full_trace):
    import levelcross as lc

    model = lc.ExpExpModel(1.0, 1.0)
    q = lc.CrossingQuery(10.0, 1.0, 0.0, 20.0)
    traced_value = lc.exact_conditional(model, q)
    est = lc.simulate_conditional(lc.Exponential(1.0), lc.Exponential(1.0),
                                  10.0, 1.0, 0.0, 20.0, 25, 3)
    m = full_trace.layer_metrics()
    full_trace.uninstall()
    assert traced_value == lc.exact_conditional(model, q)
    assert m["exact.conditional_calls"] == 1
    assert m["quadrature.calls"] == 1
    assert m["specfun.log_bessel_i1_calls"] > 100
    assert m["quadrature.integrand_evals"] >= m["specfun.log_bessel_i1_calls"]
    assert m["sim.trajectories"] == 25
    stream = lc.LcgStream(3)
    for _ in range(25):
        lc.first_crossing_time(lc.Exponential(1.0), lc.Exponential(1.0),
                               10.0, 1.0, 0.0, 20.0, stream)
    assert m["sim.uniforms_per_trajectory"] == stream.draws / 25
    assert m["distributions.draws"] == stream.draws
    assert 0.0 <= m["sim.horizon_stopped_frac"] <= 1.0
    assert est.trials == 25
    # both methods evaluated the same query, so they form one item
    assert [key for key, *_ in full_trace.item_spans] == [(0, (10.0, 1.0, 0.0, 20.0))]
    assert full_trace.item_times()[0] > 0.0


def test_self_times_add_up_to_the_traced_time(full_trace):
    import levelcross as lc

    q = lc.CrossingQuery(10.0, 1.2, 0.0, 30.0)
    lc.exact_conditional(lc.ExpExpModel(1.0, 1.0), q)
    lc.corrected_expansion(q, lc.constants_for(lc.Exponential(1.0), lc.Exponential(1.0)))
    total_self = sum(rec[1] for rec in full_trace.stats.values())
    outer = sum(end - start for _, _, start, end, parent, _ in full_trace.spans if parent is None)
    assert math.isclose(total_self, outer, rel_tol=1e-6)


# -- BENCHMARK.json ------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    units = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert names.match(m["name"]) and units.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for w in spec["workloads"]:
        assert names.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]


def test_a_moved_function_stays_traced_in_its_new_layer(monkeypatch):
    import types

    import levelcross as lc
    import levelcross.sim

    fn = levelcross.sim.first_crossing_time
    engine = types.ModuleType("levelcross.engine")
    engine.__all__ = ["first_crossing_time"]
    engine.first_crossing_time = fn
    monkeypatch.setattr(fn, "__module__", "levelcross.engine")
    monkeypatch.setitem(sys.modules, "levelcross.engine", engine)
    monkeypatch.setattr(levelcross.sim, "__all__",
                        [n for n in levelcross.sim.__all__ if n != "first_crossing_time"])

    tr = tracer.Tracer()
    tr.install(full=True)
    try:
        lc.simulate_conditional(lc.Exponential(1.0), lc.Exponential(1.0),
                                10.0, 1.0, 0.0, 20.0, 7, 3)
    finally:
        tr.uninstall()
    assert tr.missing == []
    assert tr.layer_metrics()["sim.trajectories"] == 7
    assert tr.layer_calls()["engine"] >= 7
    assert levelcross.sim.first_crossing_time is fn
