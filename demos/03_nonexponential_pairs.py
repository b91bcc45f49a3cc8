"""Light- and heavy-tailed gap/jump pairs with no exact formula.

For four pairs (Erlang-Erlang, Mix2Exp-Pareto, Erlang-Pareto and
Pareto-Pareto) the only benchmark is simulation.  Each sweep prints the
pair's constants, compares the main and corrected approximations with the
Monte Carlo interval on a drift grid around the critical rate c*, and
writes an SVG.  Pass a trial count to override the quick default:

    python demos/03_nonexponential_pairs.py 1000
"""

import sys

from levelcross import (
    DEFAULT_SEED,
    SweepGrid,
    constants_for,
    evaluate_sweep,
    parse_spec,
    render_svg,
)

TRIALS = int(sys.argv[1]) if len(sys.argv) > 1 else 300
U, HORIZON = 40.0, 1000.0

PAIRS = [
    ("erlang_erlang", "erlang:1.2,2", "erlang:1,2"),
    ("mix2exp_pareto", "mix2exp:1,2,0.6666666666666667", "pareto:4,0.35"),
    ("erlang_pareto", "erlang:6,4", "pareto:4,0.4"),
    ("pareto_pareto", "pareto:4,0.4", "pareto:4,0.4"),
]

for name, t_spec, y_spec in PAIRS:
    gaps, jumps = parse_spec(t_spec), parse_spec(y_spec)
    k = constants_for(gaps, jumps)
    print(f"\n=== {name}:  T={t_spec}  Y={y_spec}")
    print(f"    M={k.M:.4g}  D2={k.D2:.4g}  c*={k.c_star:.4g}  "
          f"KF*c={k.kf_coeff:.4g}  KS*c={k.ks_coeff:.4g}")

    grid = SweepGrid(round(0.4 * k.c_star, 2), round(1.8 * k.c_star, 2), 0.1,
                     refinements=((round(0.85 * k.c_star, 2), round(1.15 * k.c_star, 2), 2),))
    result = evaluate_sweep(gaps, jumps, grid, ("main", "corrected", "sim"),
                            u=U, horizon=HORIZON, trials=TRIALS, seed=DEFAULT_SEED)
    inside = 0
    print(f"    {'c':>5} {'main':>9} {'corrected':>10} {'sim':>7}   95% CI")
    for c, r in result.rows:
        est = r["sim"]
        inside += est.ci_low - 0.02 <= r["corrected"] <= est.ci_high + 0.02
        print(f"    {c:5.2f} {r['main']:9.5f} {r['corrected']:10.5f} {est.estimate:7.3f}"
              f"   [{est.ci_low:.3f}, {est.ci_high:.3f}]")
    print(f"    corrected within widened CI at {inside}/{len(result.rows)} nodes")

    out = f"pair_{name}.svg"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_svg(result))
    print(f"    wrote {out}")
