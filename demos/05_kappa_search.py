"""Estimating the variational limit constant kappa.

The limiting functional in the variational sense is kappa * int |grad u|^p
with 0 < kappa <= 1.  kappa is an infimum over families converging to
the unit-gradient profile U, so any feasible competitor gives an upper
bound.  Here a projected pattern search perturbs lattice values of U
inside an L^p proximity ball and keeps the best functional value found.

For the indicator kernel the search does find competitors strictly
below the value at U: locally flat plateaus hide small-scale pair
differences below the kernel threshold.  That gap is the numerical
shadow of kappa < 1 for threshold kernels.

Run:  python demos/05_kappa_search.py
"""

import nlsobolev as nl

k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
prob = nl.KappaProblem(kernel=k, delta=0.05, grid_n=2048, p=2.0, d=1,
                       iterations=2000, restarts=5, seed=7)
rep = nl.kappa_estimate(prob)

print("pattern search, d = 1, p = 2, indicator kernel, delta = 0.05, grid 2048")
print(f"  baseline at U     : {rep.baseline:.6f}   (closed form (1-delta)^2 = "
      f"{(1 - 0.05) ** 2:.6f})")
print(f"  kappa_hat         : {rep.kappa_hat:.6f}")
print(f"  improvement       : {rep.baseline - rep.kappa_hat:.6f}")
print(f"  proximity to U    : {rep.final_proximity:.5f} <= eps = {rep.epsilon:.5f}")
print(f"  trace entries     : {len(rep.trace)} (non-increasing best-so-far)")

marks = [0, 1000, 2500, 5000, 7500, 10000]
print("\n  iteration   best objective")
for m in marks:
    it, obj, _ = rep.trace[min(m, len(rep.trace) - 1)]
    print(f"  {it:>9}   {obj:.6f}")

print("\nnote: kappa_hat is an upper bound for the discretized infimum at")
print("this (delta, grid); the sandwich 0 < kappa <= 1 is all the theory")
print("pins down, and the run respects it:",
      0.0 < rep.kappa_hat <= 1.0)

# the trivial recovery family g_delta = f certifies the upper half of
# the sandwich: its values tend to the full energy, so kappa <= 1
rec = nl.delta_sweep(nl.cube_profile(1), k, 2.0, [0.2, 0.1, 0.05, 0.025], grid_n=2048)
print("\nrecovery family values (tend to energy = 1):",
      ", ".join(f"{v:.4f}" for v in rec.values()))
