"""The lattice-torus ball graph: out-degrees condense, in-degrees never do.

Every vertex of the (2N+1)^d torus draws a heavy-tailed radius
(P(R > x) = x^(-beta)) and points an edge at each lattice point inside its
open ball.  The out-degree of a vertex is then a cut-off heavy-tailed
variable (the ball cannot hold more than n-1 points), so an excess number
of edges condenses into a few huge out-degree vertices, while each edge
arriving at a vertex comes from a different ball: in-degrees stay
microscopic.

Run:  python3 demos/torus_condensation.py
"""

import math

import bigjumps as bj

print("=== degree statistics across torus sizes (d = 2, beta = 3) ===")
print(f"{'N':>4} {'n':>7} {'edges/n':>8} {'top-1 out share':>16} {'max in share':>13}")
for N in (16, 32, 64):
    cfg = bj.TorusConfig(d=2, N=N, beta=3.0, seed=5)
    g = bj.generate_graph(cfg)
    stats = bj.condensation_stats(g, k=1, eps=0.1)
    print(
        f"{N:4d} {cfg.n:7d} {g.rho_n:8.3f} {stats['top_k_out_share']:16.4f} "
        f"{stats['max_in_share']:13.5f}"
    )
print("Both share columns shrink with n in a typical (unconditioned) graph;")
print("the contrast appears when the edge count is forced to be excessive.")

print("\n=== a planted condensate: one radius covering the torus ===")
cfg = bj.TorusConfig(d=2, N=32, beta=3.0, seed=6)
g = bj.generate_graph(cfg, planted_radii={1000: cfg.N * math.sqrt(2) + 1.0})
stats = bj.condensation_stats(g, k=1, eps=0.5)
print(f"n = {cfg.n}: planted vertex out-share = {stats['top_k_out_share']:.6f} (= (n-1)/n)")
print(f"vertices with out-degree above n/2: {stats['big_out_count']}")
print(f"max in-degree share stays at {stats['max_in_share']:.5f}: the excess edges")
print("all leave one vertex but land everywhere, so no vertex receives a")
print("macroscopic number of them.")

print("\n=== the geometry bridge g and the out-degree tail constant ===")
print(f"g(1/sqrt(2)) in d = 2: {bj.g_eval(2, 1/math.sqrt(2)):.10f}  (inscribed disk, pi/4)")
for d in (1, 2, 3):
    r = 0.6
    count_scale = bj.g_eval(d, r)
    print(f"d = {d}: g({r}) = {count_scale:.5f}, g'({r}) = {float(bj.g_prime(d, r)):.5f}, "
          f"g_inverse(g({r})) = {bj.g_inverse(d, float(count_scale)):.6f}")

print("\n=== empirical tail calibration (d = 1, beta = 1.5) ===")
report = bj.calibrate_h(1, 1.5, N_list=[128, 512], a_list=(0.3, 0.5, 0.8), samples=300_000, seed=7)
print(f"derived constant (4/d)^(beta/2) = {report['derived_const']:.4f}; "
      f"the (4d)^(-beta/2) variant sometimes quoted = {report['quoted_const']:.4f}")
print(f"{'N':>5} {'a':>5} {'n^beta P(W >= a n)':>19} {'measured const':>15}")
for row in report["rows"]:
    print(f"{row['N']:5d} {row['a']:5.2f} {row['scaled_tail']:19.4f} {row['measured_const']:15.4f}")
print("The measured constants land on the derived value; the quoted variant is")
print("off by the factor 4^(beta/2) * d^beta and is reported for the record.")

print("\n=== the out-degree scheme plugs into the rare-event machinery ===")
lb = bj.LatticeBall(d=1, beta=1.5)
n = 1025
mu, _ = lb.mu_n(n)
print(f"LatticeBall(d=1, beta=1.5) at n = {n}: mu_n = {mu:.3f}")
est = bj.estimate_naive(lb, n, bj.RhoWindow(0.5, ("fixed", 0.2)), mu, samples=40_000, seed=8)
print(f"P(S_n in the rho = 0.5 window) = {est.prob:.4e} +- {est.std_error:.1e}")
print("so the graph-level condensation statements ride on the same scheme-level")
print("machinery demonstrated in the other walkthroughs.")
