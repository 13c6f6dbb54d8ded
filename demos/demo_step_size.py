# What the forward-Euler step size buys: the explicit step is SAFETY times
# the stability limit min(h)^2 / (2 * dim * max D).  For any SAFETY <= 1
# each update keeps a weight of at least 1 - SAFETY on its own cell, so
# every step is a convex combination of its stencil and the discrete
# maximum principle holds.  Below that bound, SAFETY only trades steps for
# time-discretization error, and this table measures how much of it there
# is against the errors that do not depend on dt.
#
#     python3 demos/demo_step_size.py
#
# takes about half a minute on a 2-core host.

import numpy as np

from degenstein import (EpsProblem, GridSpec, LambdaChoice, build_table,
                        bump, energy_identity_residual, power_profile, solve)
from degenstein import solver

tab = build_table(power_profile(1.0), LambdaChoice(1.0), s_min=1e-8, K=256)


def tent_run(n):
    """The desk run (n = 801) or the README config (n = 401)."""
    grid = GridSpec(extent=((-1.0, 1.0),), n=(n,))
    prob = EpsProblem(table=tab, eps=1e-6, g=bump((-0.6,), 0.2, 0.2),
                      psi=1.0, omega_prime=((0.5,), 0.4))
    return solve(prob, grid, 0.05, 33)


def oracle_error(dim, n):
    """L1 error over mass against the separable solution of u_t = u lap u,
    u = A0 (R^2 - |x|^2)_+ / (1 + 2 dim A0 t), at A0 = R = T = 0.5."""
    A0 = R = T = 0.5
    grid = GridSpec(extent=((-1.0, 1.0),) * dim, n=(n,) * dim)

    def hump(*x):
        return A0 * np.maximum(R * R - sum(xi ** 2 for xi in x), 0.0)

    prob = EpsProblem(table=tab, eps=1e-6, g=hump, psi=1.0)
    num = solve(prob, grid, T, 2).fields[-1] - prob.eps
    exact = grid.sample(hump) / (1.0 + 2.0 * dim * A0 * T)
    return float(np.abs(num - exact).sum() / exact.sum())


def at_safety(s, fn, *args):
    """fn(*args) with the explicit step at s times its stability limit."""
    kept = solver.SAFETY
    solver.SAFETY = s
    try:
        return fn(*args)
    finally:
        solver.SAFETY = kept


ref = at_safety(0.05, tent_run, 801).fields[-1]
mass = float((ref - 1e-6).sum())

print(f"solver.SAFETY = {solver.SAFETY}; desk: 801 cells, T = 0.05; "
      f"README config: 401 cells")
print(f"{'SAFETY':>6} {'desk steps':>10} {'L1/mass vs 0.05':>15} "
      f"{'oracle 1-D':>10} {'oracle 2-D':>10} {'desk res':>9} "
      f"{'README res':>10}")
for s in (0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0):
    desk = at_safety(s, tent_run, 801)
    gap = float(np.abs(desk.fields[-1] - ref).sum()) / mass
    print(f"{s:>6.2f} {desk.n_steps:>10,} {gap:>15.2e} "
          f"{at_safety(s, oracle_error, 1, 401):>10.5f} "
          f"{at_safety(s, oracle_error, 2, 64):>10.5f} "
          f"{energy_identity_residual(desk):>9.2e} "
          f"{energy_identity_residual(at_safety(s, tent_run, 401)):>10.2e}")
