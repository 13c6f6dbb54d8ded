# Cross-validate the jump-process master equation against the quasilinear
# solver in the diffusive limit, and look at the discretized kernel moments.

import numpy as np

from degenstein import (EpsProblem, GridSpec, LambdaChoice, build_table,
                        bump, kernel_moments, power_family_kernel,
                        power_profile, run_master, solve)

beta, tau0 = 1.0, 1.5e-4
kern = power_family_kernel(beta=beta, tau0=tau0, a=1.0)

# kernel rows integrate to one, center exactly, and hit the target variance
# once sigma spans a few cells
h = 0.005
for u in (0.2, 0.7):
    mass, mean, var = kernel_moments(kern, u, h)
    target = tau0 * u ** (beta - 1.0)
    print(f"u={u:3.1f}: mass-1 = {mass - 1.0:+.1e}  mean = {mean:+.1e}  "
          f"var/target - 1 = {var / target - 1.0:+.2%}")

# --- master equation vs PDE on a gentle hump ------------------------------
tab = build_table(power_profile(beta), LambdaChoice(1.0), s_min=1e-8, K=256)
shape = bump((0.0,), 0.3, 0.05, shape="cos2")
T = 0.01

for n, dt in ((401, 1.5e-4), (801, 7.5e-5)):
    grid = GridSpec(extent=((-1.0, 1.0),), n=(n,))
    prob = EpsProblem(table=tab, eps=1e-6, g=shape, psi=1.0)
    trace = solve(prob, grid, T, 2)
    pde = trace.fields[-1] - prob.eps

    d0 = grid.sample(shape)
    times, master = run_master(d0, grid, kern, None, T, dt)
    vol = grid.cell_volume
    mass0 = d0.sum() * vol
    drift = abs(master.sum() * vol - mass0) / mass0
    gap = np.abs(master - pde).sum() * vol / mass0
    print(f"n={n:4d}, dt={dt:.1e}: {len(times) - 1} jumps, "
          f"mass drift {drift:.1e}, L1 gap to PDE = {gap:.4%}")

print("the residual gap is the divergence-form flux term the solver "
      "does not carry; it shrinks with h^2 toward the operator gap")
