"""Output checks against the goldens, run outside the timed region.

``check(workload, seed, outputs, goldens)`` returns one entry per expected
item: ``None`` when the item passed, otherwise the first reason it failed.
Goldens were recorded at the default seed by ``make_goldens.py``.

Tolerances are the ones the test suite already uses: 1e-9 for exact and
closed-form values (the CLI and approximation tests), 1e-8 between the
exact formula and the renewal-series oracle (acceptance criterion 4) and
for the unconditional value (its default ``rel_tol``); exact values may
exceed 1 by 1e-12 (acceptance criterion 9).

Simulation is checked bit-exactly at the default seed, where the figure-1
intervals must also cover the exact curve at 90% of nodes (criterion 5).
At other seeds that rule would fail a correct simulator by chance: each
95% interval misses with probability about 5%, and 5 of 40 missed at 2 of
the seeds 1-40.  There the number of misses must stay
below ``MAX_MISSES``, and the pair estimates must agree with the
default-seed counts within ``MAX_Z`` standard errors of a two-sample
binomial test.  Both have a false-alarm rate below 1e-6 per run.
"""

import hashlib
import math

from workloads import DEFAULT_SEED, exact_queries

VALUE_TOL = 1e-9
SERIES_TOL = 1e-8
UNCONDITIONAL_TOL = 1e-8
COVERAGE = 0.90
# P(13 or more of 40 intervals miss) < 4e-7 at a 6% miss rate per node
MAX_MISSES = 13
MAX_Z = 6.0  # a false alarm needs a 6-sigma draw: about 1e-9 per node


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _far(label, got, want, tol):
    if got is None or not abs(got - want) <= tol:
        return f"{label} = {got!r}, golden {want!r} (tolerance {tol:g})"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


def check(workload, seed, outputs, goldens):
    return _CHECKS[workload](seed, outputs["items"], outputs["extra"], goldens[workload])


def _check_fig1(seed, items, extra, golden):
    n = len(golden["x"])
    if len(items) != n:
        return [f"expected {n} sweep rows, got {len(items)}"] * n
    fails = [
        _first(
            _far("x", item["x"], x, 1e-12),
            _far("main", item["main"], main, VALUE_TOL),
            _far("exact", item["exact"], exact, VALUE_TOL),
        )
        for item, x, main, exact in zip(items, golden["x"], golden["main"], golden["exact"])
    ]
    covered = [it["sim_ci_low"] <= it["exact"] <= it["sim_ci_high"] for it in items]
    if seed == DEFAULT_SEED:
        too_few = sum(covered) < COVERAGE * n
    else:
        too_few = n - sum(covered) >= MAX_MISSES
    if too_few:
        fails = [
            f or (None if ok else f"sim CI misses exact at {n - sum(covered)} of {n} nodes")
            for f, ok in zip(fails, covered)
        ]
    if seed == DEFAULT_SEED and sha256(extra["csv"]) != golden["csv_sha256"]:
        fails = [
            f or (None if it["row"] == row else "CSV row differs from the golden CSV")
            for f, it, row in zip(fails, items, golden["rows"])
        ]
        if not any(fails):
            fails = ["CSV sha256 differs from the golden CSV"] * n
    return fails


def _binomial_z(k1, n1, k2, n2):
    pooled = (k1 + k2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    return 0.0 if var == 0.0 else abs(k1 / n1 - k2 / n2) / math.sqrt(var)


def _check_pair_node(seed, item, want):
    if "error" in item:
        return item["error"]
    k, n = item["successes"], item["trials"]
    if item["pair"] != want["pair"] or n != want["trials"]:
        return f"node {item['pair']}/{n} trials, golden {want['pair']}/{want['trials']}"
    if seed == DEFAULT_SEED:
        sim = None if k == want["successes"] else f"successes {k}, golden {want['successes']}"
    else:
        z = _binomial_z(k, n, want["successes"], want["trials"])
        sim = None if z <= MAX_Z else f"estimate {k}/{n} is {z:.1f} SE from golden seed"
    return _first(
        _far("c", item["c"], want["c"], 1e-12),
        sim,
        None if item["estimate"] == k / n else "estimate != successes / trials",
        None if item["ci_low"] <= item["estimate"] <= item["ci_high"] else "estimate outside CI",
        _far("main", item["main"], want["main"], VALUE_TOL),
        _far("corrected", item["corrected"], want["corrected"], VALUE_TOL),
    )


def _check_pairs(seed, items, extra, golden):
    nodes = golden["nodes"]
    if len(items) != len(nodes):
        return [f"expected {len(nodes)} pair nodes, got {len(items)}"] * len(nodes)
    return [_check_pair_node(seed, item, want) for item, want in zip(items, nodes)]


def _check_query(item, query, want):
    if "error" in item:
        return item["error"]
    if (item["u"], item["c"], item["v"], item["t"]) != query:
        return f"query {item['u'], item['c'], item['v'], item['t']} != {query}"
    exact = item["exact"]
    return _first(
        None if 0.0 <= exact <= 1.0 + 1e-12 else f"exact = {exact!r} is not a probability",
        _far("exact", exact, want["exact"], VALUE_TOL),
        want["series"] is not None and _far("exact - series", exact, want["series"], SERIES_TOL),
        _far("main", item["main"], want["main"], VALUE_TOL),
        _far("corrected", item["corrected"], want["corrected"], VALUE_TOL),
    )


def _check_exact(seed, items, extra, golden):
    queries = exact_queries()
    n = len(queries) + 1
    if len(items) != n:
        return [f"expected {n} exact items, got {len(items)}"] * n
    fails = [_check_query(it, q, want) for it, q, want in zip(items, queries, golden["queries"])]
    last = items[-1]
    fails.append(
        last.get("error")
        or _far("unconditional", last["unconditional"], golden["unconditional"], UNCONDITIONAL_TOL)
    )
    return fails


_CHECKS = {"fig1_exp": _check_fig1, "pairs_sim": _check_pairs, "exact_tail": _check_exact}
