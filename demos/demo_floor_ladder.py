# Send the regularization floor to zero along a halving ladder and watch
# consecutive solutions converge in L1 -- the numerical echo of the
# vanishing-viscosity construction.  The ladder marches lagged backward
# Euler; each rung is checked against its explicit `solve`.

from dataclasses import replace

import numpy as np

from degenstein import (EpsProblem, GridSpec, LambdaChoice, build_table,
                        bump, eps_sweep, power_profile, solve)

tab = build_table(power_profile(1.0), LambdaChoice(1.0), s_min=1e-8, K=256)
grid = GridSpec(extent=((-1.0, 1.0),), n=(401,))
prob = EpsProblem(table=tab, eps=1e-3, g=bump((-0.6,), 0.2, 0.2), psi=1.0)

ladder = [1e-3 * 2.0 ** (-k) for k in range(5)]
sweep = eps_sweep(prob, grid, T=0.05, eps_values=ladder)

print("eps ladder:", ", ".join(f"{e:.2e}" for e in sweep.eps_values))
for eps, final, steps in zip(sweep.eps_values, sweep.finals, sweep.n_steps):
    explicit = solve(replace(prob, eps=float(eps)), grid, 0.05, 2)
    ref = explicit.fields[-1]
    agree = np.abs(final - ref).sum() / (ref - eps).sum()
    print(f"  eps={eps:.2e}: {steps} implicit steps "
          f"(explicit: {explicit.n_steps}), L1 to explicit / mass = "
          f"{agree:.2e}")
for (a, b, gap) in zip(sweep.eps_values, sweep.eps_values[1:],
                       sweep.distances):
    print(f"  ||u_{a:.2e} - u_{b:.2e}||_L1 = {gap:.4e}")

ratios = [y / x for x, y in zip(sweep.distances, sweep.distances[1:])]
print("consecutive gap ratios:", ", ".join(f"{r:.3f}" for r in ratios))
print("Cauchy along the ladder:", sweep.is_cauchy())
