#!/usr/bin/env python3
"""Compare exact evolution against the phase-dressed product approximation.

The approximation keeps the state in the robust C sector and dresses each
A and B amplitude with free, first-order, and second-order phases. Its
residual against the exact state, and the size of the second-order table,
both fall off like 1/c1 when the C-B coupling is cranked up.
"""

import numpy as np

import disd

dims = disd.Dims(2, 3, 3)
init = disd.InitialSpec(alpha=np.ones(2) / np.sqrt(2), chi=np.ones(3) / np.sqrt(3))
times = np.linspace(0.0, 5.0, 200)


def residuals(c1):
    """The product form's data at c1 and its residual at each time, from the simulate job."""
    spec = disd.build_canonical(dims, seed=1, c1=c1, c2=0.05)
    pd, columns = disd.simulate_columns(spec, init, times)
    return pd, columns["residual_eq4"]


print("residual of the product approximation along one trajectory (c1 = 16):")
pd, res = residuals(16.0)
for k in range(0, 200, 40):
    print(f"  t = {times[k]:5.2f}   residual = {res[k]:.3e}")
print(f"  max over the window: {res.max():.3e}")

print()
print("scaling with the dominant coupling at fixed c2 = 0.05:")
print(f"  {'c1':>6}  {'lambda_sup':>12}  {'max residual':>13}")
rows = []
for c1 in (1.0, 4.0, 16.0, 64.0, 256.0):
    pd, res = residuals(c1)
    r = res.max()
    rows.append((c1, pd.lambda_sup, r))
    print(f"  {c1:6.0f}  {pd.lambda_sup:12.3e}  {r:13.3e}")

c1s, lams, res_max = zip(*rows)
fit = np.polyfit(np.log(c1s), np.log(res_max), 1)[0]
fit_lam = np.polyfit(np.log(c1s), np.log(lams), 1)[0]
print(f"log-log slopes: residual {fit:+.3f}, lambda_sup {fit_lam:+.3f} (1/c1 would be -1)")
