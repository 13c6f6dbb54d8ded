# March the regularized evolution for a compact hump and watch the exact
# discrete max principle and the dissipation-energy balance.

import numpy as np

from degenstein import (EpsProblem, GridSpec, LambdaChoice, build_table,
                        bump, energy_identity_residual, grad_energy,
                        power_profile, solve)

tab = build_table(power_profile(1.0), LambdaChoice(1.0), s_min=1e-8, K=256)

grid = GridSpec(extent=((-1.0, 1.0),), n=(401,))
prob = EpsProblem(table=tab, eps=1e-6,
                  g=bump((-0.6,), 0.2, 0.2, shape="cos2"), psi=1.0)

trace = solve(prob, grid, T=0.05, snapshot_times=11)
print(f"{trace.n_steps} steps to T = {trace.T:g} "
      f"(dt in [{trace.dt_history.min():.3e}, {trace.dt_history.max():.3e}])")

# max principle: the ceiling only ever moves down, the floor holds exactly
print(f"sup u: {trace.max_u_history[0]:.6f} -> {trace.max_u_history[-1]:.6f} "
      f"(never rises: {bool(np.all(np.diff(trace.max_u_history) <= 1e-15))})")
print(f"floor: min u = {min(float(f.min()) for f in trace.fields):.3e} "
      f"vs eps = {prob.eps:g}")

# the balance 2*dissipation(T) + E(T) = E(0) closes to discretization error
g0, gT = grad_energy(trace.fields[0], grid), grad_energy(trace.fields[-1], grid)
print(f"grad energy {g0:.6f} -> {gT:.6f}, "
      f"2*dissipation = {2 * trace.dissipation_at(trace.T):.6f}")
print(f"energy identity residual: {energy_identity_residual(trace):.3e}")

# halving h knocks the residual down by about 4x
fine = solve(prob, GridSpec(extent=((-1.0, 1.0),), n=(801,)), 0.05, 11)
print(f"on 801 cells: {energy_identity_residual(fine):.3e}")

# asking for a too-large step is an error, not a silent blowup
from degenstein import CflError, cfl_dt, step_explicit

g_vals, psi_vals = prob.sample_on(grid)
u0 = prob.eps + g_vals
u0[~grid.interior_mask()] = prob.eps * psi_vals[~grid.interior_mask()]
dt_ok = cfl_dt(prob, grid, u0)
try:
    step_explicit(u0, prob, grid, 3.0 * dt_ok)
except CflError as e:
    print(f"oversized step rejected: {e}")
