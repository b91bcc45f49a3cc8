"""Record the benchmark goldens at the default seed.

    python3 perfbench/make_goldens.py

Run from the checkout root.  Writes ``perfbench/goldens.json``: the
figure-1 CSV (rows and sha256) with its main and exact columns, the pair
nodes with their success counts and closed forms, and every exact_tail
value, with ``series_oracle`` beside each finite-horizon query with
t <= 100 (the oracle cannot bound its series tail at t = 1000).  Regenerate
only when the library's reproducibility contract changes on purpose.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


def run(name):
    wl = workloads.WORKLOADS[name]
    return wl["run"](wl["setup"](SEED), tracer.Tracer())


def main():
    import levelcross as lc

    fig1 = run("fig1_exp")
    items = fig1["items"]
    goldens = {
        "seed": SEED,
        "fig1_exp": {
            "csv_sha256": checks.sha256(fig1["extra"]["csv"]),
            "rows": [it["row"] for it in items],
            "x": [it["x"] for it in items],
            "main": [it["main"] for it in items],
            "exact": [it["exact"] for it in items],
        },
        "pairs_sim": {
            "nodes": [
                {key: it[key] for key in ("pair", "c", "trials", "successes", "main", "corrected")}
                for it in run("pairs_sim")["items"]
            ]
        },
    }
    model = lc.ExpExpModel(1.0, 1.0)
    exact = run("exact_tail")["items"]
    queries = []
    for it, (u, c, v, t) in zip(exact, workloads.exact_queries()):
        series = None
        if math.isfinite(t) and t <= 100.0:
            series = lc.series_oracle(model, lc.CrossingQuery(u, c, v, t))
        queries.append({"exact": it["exact"], "series": series, "main": it["main"],
                        "corrected": it["corrected"]})
    goldens["exact_tail"] = {"queries": queries, "unconditional": exact[-1]["unconditional"]}

    path = os.path.join(HERE, "goldens.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}; figure-1 CSV sha256 {goldens['fig1_exp']['csv_sha256']}")


if __name__ == "__main__":
    main()
