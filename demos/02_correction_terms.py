"""Anatomy of the corrected expansion at a moderate level (u = 50, t = 1000).

Shows the two correction integrals, the K_F/K_S weights, and how the
corrected value relates to the main term and to the exact curve.  In this
configuration the corrected expansion sits consistently *below* the exact
probability over the whole drift range, while the main term crosses it.
"""

from levelcross import (
    CrossingQuery,
    Exponential,
    SweepGrid,
    constants_for,
    corrected_expansion,
    evaluate_sweep,
    render_svg,
)

U, HORIZON = 50.0, 1000.0
exp1 = Exponential(1.0)
k = constants_for(exp1, exp1)

print(f"u={U:g}  t={HORIZON:g}  c*={k.c_star:g}  KF={k.kf_coeff:g}/c  KS={k.ks_coeff:g}/c\n")
print(f"{'c':>5} {'exact':>9} {'main':>9} {'corrected':>10} {'I_F':>9} {'I_S':>9}")

result = evaluate_sweep(exp1, exp1, SweepGrid(0.5, 2.0, 0.05), ("main", "corrected", "exact"),
                        u=U, horizon=HORIZON)
below, above_main = 0, 0
for c, r in result.rows:
    below += r["corrected"] <= r["exact"]
    above_main += r["main"] >= r["exact"]
    if round(c * 20) % 2 == 0:
        terms = corrected_expansion(CrossingQuery(U, c, 0.0, HORIZON), k)
        print(f"{c:5.2f} {r['exact']:9.5f} {r['main']:9.5f} {r['corrected']:10.5f} "
              f"{terms.correction_f:9.5f} {terms.correction_s:9.5f}")

print(f"\ncorrected <= exact at {below}/{len(result.rows)} nodes")
print(f"main >= exact at {above_main}/{len(result.rows)} nodes "
      "(the main term tends to overshoot here)")

with open("correction_terms.svg", "w", encoding="utf-8", newline="\n") as fh:
    fh.write(render_svg(result))
print("wrote correction_terms.svg")

# the corrected expansion can go negative far above the critical rate;
# it is reported as computed, not clamped
q = CrossingQuery(8.0, 3.5, 0.0, HORIZON)
r = corrected_expansion(q, k)
print(f"\nat u={q.u:g}, c={q.c:g}: main={r.main:.3e}  corrected={r.corrected:.3e}"
      f"{'  (negative, as documented)' if r.corrected < 0 else ''}")
