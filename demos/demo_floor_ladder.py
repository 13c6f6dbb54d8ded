# Send the regularization floor to zero along a halving ladder and watch
# consecutive solutions converge in L1 -- the numerical echo of the
# vanishing-viscosity construction.  Each rung is one `solve` at its floor.

from degenstein import (EpsProblem, GridSpec, LambdaChoice, build_table,
                        bump, eps_sweep, power_profile)

tab = build_table(power_profile(1.0), LambdaChoice(1.0), s_min=1e-8, K=256)
grid = GridSpec(extent=((-1.0, 1.0),), n=(401,))
prob = EpsProblem(table=tab, eps=1e-3, g=bump((-0.6,), 0.2, 0.2), psi=1.0)

ladder = [1e-3 * 2.0 ** (-k) for k in range(5)]
sweep = eps_sweep(prob, grid, T=0.05, eps_values=ladder)

print("eps ladder:", ", ".join(f"{e:.2e}" for e in sweep.eps_values))
for eps, steps in zip(sweep.eps_values, sweep.n_steps):
    print(f"  eps={eps:.2e}: {steps} steps")
for (a, b, gap) in zip(sweep.eps_values, sweep.eps_values[1:],
                       sweep.distances):
    print(f"  ||u_{a:.2e} - u_{b:.2e}||_L1 = {gap:.4e}")

ratios = [y / x for x, y in zip(sweep.distances, sweep.distances[1:])]
print("consecutive gap ratios:", ", ".join(f"{r:.3f}" for r in ratios))
print("Cauchy along the ladder:", sweep.is_cauchy())
