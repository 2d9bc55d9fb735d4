"""Measured vs predicted rare-window probabilities across row sizes.

The headline asymptotic statement says

    P(S_n in I_n)  ~  C(n, k) * (rho2 - rho1) * n^(-alpha k) * K(rho),

with I_n the window [n(rho1 + mu_n), n(rho2 + mu_n)].  This script measures
the left side by plain hit counting and by the conditional Monte Carlo
estimator (the largest coordinate integrated out through the exact tail),
computes the right side, and tracks their ratio as n doubles repeatedly.
The drift of the ratio toward 1 is the whole point; at small n the bulk's
own fluctuations smear the window and the ratio sits well below 1.

Run:  python3 demos/window_ratio_sweep.py     (about ten seconds)
"""

import bigjumps as bj

tp = bj.TruncatedPareto(c=1.5, alpha=1.5)
window = bj.RhoWindow(0.5, ("fixed", 0.1))
krho = bj.condensation_constant(tp.h, 0.5, 1)

print(f"scheme: conditioned Pareto, alpha = {tp.alpha}, target excess rho = 0.5 (k = 1)")
print(f"window width 0.1 centered at rho; K = h(0.5) = {krho.value:.4f}\n")

rows = bj.ratio_sweep(tp, window, [64, 256, 1024, 4096], samples_per_n=200_000, krho=krho, seed=3)
print(f"{'n':>5} {'measured':>11} {'(se)':>9} {'conditional':>11} {'(se)':>9} {'predicted':>11} {'ratio':>7} {'cond/rhs':>8}")
for row in rows:
    n = row["n"]
    cond = bj.estimate_conditional(tp, n, window, tp.mu_n(n)[0], 20_000, seed=3)
    print(
        f"{n:5d} {row['prob']:11.3e} {row['std_error']:9.1e} {cond.prob:11.3e} {cond.std_error:9.1e} "
        f"{row['rhs']:11.3e} {row['ratio']:7.3f} {cond.prob / row['rhs']:8.3f}"
    )

print("""
Reading the table: both measured columns estimate the finite-n truth
without bias and agree within about two combined standard errors; at
n = 64 the window is narrower than the bulk fluctuation scale and the
measured probability is only ~0.35x the prediction, but the ratio climbs
toward 1 as n grows.  The conditional estimator draws n - 1 coordinates
and integrates the largest one out exactly, so every replica contributes:
from a tenth of the replicas its standard error is at most hit
counting's, and half of it at n = 4096.
""")

print("=== exact-oracle variant (discrete grid scheme) ===")
dg = bj.DiscreteGrid(pmf=(0.9, 0.05, 0.03, 0.02))
w = bj.RhoWindow(0.45, ("fixed", 0.3))
kr = bj.condensation_constant(bj.uniform_h, 0.45, 1)
for row in bj.ratio_sweep(dg, w, [16, 32, 64], 0, kr, alpha=1.5):
    print(f"n={row['n']:3d}: exact P = {row['prob']:.5e} (method {row['method']})")
print("Grid schemes route through the exact n-fold convolution, which is what")
print("the hit-counting and conditional estimators are validated against in the test suite.")
