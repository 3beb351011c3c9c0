#!/usr/bin/env python3
"""Watch the locality window: no A-B information flow early, correlations later.

With the C-B coupling dominant, reading out B reveals nothing about A (and
operations on B cannot move A's reduced state) for a time of order
1 / sup|lambda_i0j|. Past that window the C system mediates correlations in
both directions even though A and B never interact directly.
"""

import numpy as np

import disd
from disd.evolve import perturbation_data, propagate
from disd.locality import mi_trajectory, signaling_test, tau_estimate

dims = disd.Dims(2, 3, 3)
init = disd.InitialSpec(alpha=np.ones(2) / np.sqrt(2), chi=np.ones(3) / np.sqrt(3))

spec = disd.build_canonical(dims, seed=1, c1=2.0, c2=0.2)
pd = perturbation_data(spec)
print(f"sup|lambda_i0j| = {pd.lambda_sup:.4f}   1/sup = {1 / pd.lambda_sup:.1f}")

times = np.linspace(0.0, 120.0, 241)
traj = propagate(spec, init, times)
mi = mi_trajectory(traj)
b_to_a, a_to_b = (signaling_test(traj, d, n_samples=16, seed=1) for d in ("b_to_a", "a_to_b"))
print(f"onset estimate tau (0.01 bit threshold): {tau_estimate(times, mi, 0.01):.2f}")
print(f"{'t':>7}  {'I(A:B) bits':>12}  {'B->A signal':>12}  {'A->B signal':>12}")
for k in range(0, 241, 30):
    print(f"{times[k]:7.1f}  {mi[k]:12.5f}  {b_to_a[k]:12.5f}  {a_to_b[k]:12.5f}")

print()
print("onset time vs coupling strength (c2 = 0.2 fixed):")
for c1 in (1.0, 2.0, 4.0, 8.0):
    spec = disd.build_canonical(dims, seed=1, c1=c1, c2=0.2)
    grid = np.linspace(0.0, 50.0 * c1, 801)
    traj = propagate(spec, init, grid)
    tau = tau_estimate(grid, mi_trajectory(traj), 0.01)
    print(f"  c1 = {c1:4.0f}   tau = {tau:8.2f}")
