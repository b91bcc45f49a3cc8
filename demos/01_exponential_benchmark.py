"""Exponential gaps, exponential jumps: the one case with an exact answer.

Sweeps the drift rate c at level u = 10 with horizon t = 100 and compares
three routes to P{0 < tau <= t | first renewal at 0}:

  * the exact Bessel-integral formula,
  * the inverse-Gaussian main-term approximation,
  * Monte Carlo (N = 1000 trajectories per grid node, fixed seed).

Writes exp_benchmark.csv / exp_benchmark.svg next to this script's cwd.
"""

import math

from levelcross import (
    CrossingQuery,
    DEFAULT_SEED,
    Exponential,
    ExpExpModel,
    SweepGrid,
    constants_for,
    evaluate_sweep,
    exact_conditional,
    main_term,
    render_svg,
)

U, HORIZON, TRIALS = 10.0, 100.0, 1000

gaps = Exponential(1.0)
jumps = Exponential(1.0)
model = ExpExpModel(gaps.rate, jumps.rate)
k = constants_for(gaps, jumps)
print(f"constants: M={k.M:g}  D2={k.D2:g}  c*={k.c_star:g}  "
      f"KF*c={k.kf_coeff:g}  KS*c={k.ks_coeff:g}")

result = evaluate_sweep(gaps, jumps, SweepGrid(0.05, 2.0, 0.05), ("main", "exact", "sim"),
                        u=U, horizon=HORIZON, trials=TRIALS, seed=DEFAULT_SEED)
print(f"\n{'c':>5} {'exact':>10} {'main':>10} {'sim':>10}   95% CI")
worst, covered = 0.0, 0
for c, r in result.rows:
    est = r["sim"]
    worst = max(worst, abs(r["main"] - r["exact"]))
    covered += est.ci_low <= r["exact"] <= est.ci_high
    if round(c * 20) % 4 == 0:  # print every 0.2
        print(f"{c:5.2f} {r['exact']:10.5f} {r['main']:10.5f} {est.estimate:10.5f}"
              f"   [{est.ci_low:.3f}, {est.ci_high:.3f}]")

print(f"\nmax |main - exact| over the grid: {worst:.4f}")
print(f"simulation CI covers the exact value at {covered}/{len(result.rows)} nodes")

with open("exp_benchmark.csv", "w", encoding="utf-8", newline="\n") as fh:
    fh.write(result.to_csv())
with open("exp_benchmark.svg", "w", encoding="utf-8", newline="\n") as fh:
    fh.write(render_svg(result))
print("wrote exp_benchmark.csv, exp_benchmark.svg")

# the same comparison as the horizon grows at the critical rate, where the
# crossing probability converges only like 1/sqrt(t)
print(f"\nat c = c* = {k.c_star:g}:")
print(f"{'t':>6} {'exact':>10} {'main':>10}")
for t in (50.0, 100.0, 500.0, 1000.0):
    q = CrossingQuery(U, k.c_star, 0.0, t)
    print(f"{t:6.0f} {exact_conditional(model, q):10.5f} {main_term(q, k):10.5f}")
print(f"{'inf':>6} {'':>10} {main_term(CrossingQuery(U, k.c_star, 0.0, math.inf), k):10.5f}")
