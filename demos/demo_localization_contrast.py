# The headline contrast: in the degenerate medium a hump released at -0.6
# never touches a watched ball at +0.5 inside the certified window, while
# the same hump in a non-degenerate control floods the whole box.

import math

import numpy as np

from degenstein import (CutoffFamily, EpsProblem, ExponentPack, GridSpec,
                        LambdaChoice, build_table, bump, constant_table,
                        de_giorgi_trace, estimate_T_prime, front_series,
                        power_profile, solve, time_to_threshold)

grid = GridSpec(extent=((-1.0, 1.0),), n=(401,))
hump = bump((-0.6,), 0.2, 0.2)
cut = CutoffFamily(x0=(0.5,), R=0.4, Rp=0.2)


def floor_set(pack, table, eps):
    """The T' of a ball that never leaves the floor eps, where Y_0[T'] is
    T'^beta * H(eps) * int theta_0^2 (the gradient term is negligible
    there): it depends on eps and the cutoff, not on the solution."""
    mass = table.eval("H", eps) * float(np.sum(cut.theta(grid, 0) ** 2)) \
        * grid.cell_volume
    return (pack.threshold / mass) ** (1.0 / pack.beta_exp)


# --- degenerate medium ----------------------------------------------------
tab = build_table(power_profile(1.0), LambdaChoice(1.0), s_min=1e-8, K=256)
prob = EpsProblem(table=tab, eps=1e-6, g=hump, psi=1.0,
                  omega_prime=(cut.x0, cut.R))
trace = solve(prob, grid, T=0.05, snapshot_times=33)

pack = ExponentPack.build(cut, N_dim=1, table=tab)
print(f"exponents: k={pack.k:.3f} beta={pack.beta_exp:.3f} "
      f"D={pack.D:.6g} threshold={pack.threshold:.3e}")

dg = de_giorgi_trace(trace, cut, pack, tab)
print(f"certified window T' = {dg.T_prime:.3e} of T = {trace.T:g}, "
      f"floor-set: theta_L/(H(eps)*int theta_0^2) = "
      f"{floor_set(pack, tab, prob.eps):.3e}")
for n in range(1, len(dg.Y)):
    margin = dg.bound[n] / dg.Y[n] if dg.Y[n] > 0 else math.inf
    print(f"  n={n}: Y={dg.Y[n]:.3e}  bound={dg.bound[n]:.3e}  "
          f"margin {margin:8.3g}x")
print(f"verdict: {dg.verdict}")

times, r_front, r_empty = front_series(trace, x0_front=(-0.6,),
                                       x0_empty=cut.x0)
print(f"front radius {r_front[0]:.3f} -> {r_front[-1]:.3f}; "
      f"clean radius never below {r_empty.min():.3f}")
arr = time_to_threshold(trace, cut.x0, cut.Rp)
print(f"arrival at the watched ball: "
      f"{'censored (never)' if math.isinf(arr) else f'{arr:.4f}'}")

# --- non-degenerate control ----------------------------------------------
ctab = constant_table(M=1.0)
control = EpsProblem(table=ctab, eps=1e-8, g=hump, psi=1.0)
ctrace = solve(control, grid, T=0.3, snapshot_times=61)
cpack = ExponentPack.build(cut, N_dim=1, lam=1.0)
ctp = estimate_T_prime(ctrace, cut, cpack, ctab)
carr = time_to_threshold(ctrace, cut.x0, cut.Rp)
print(f"\ncontrol (P = const): T' = {ctp:.3e}, floor-set: "
      f"theta_L/(H(eps)*int theta_0^2) = {floor_set(cpack, ctab, 1e-8):.3e}; "
      f"ball reached at t = {carr:.4f}")
print("both T' are set by the floor, not by the solution: the control's is "
      "100x the degenerate run's only because its eps is 100x smaller")
interior = grid.interior_mask()
clean = [float(f[interior].min()) > control.support_threshold
         for f in ctrace.fields]
first = clean.index(True)
print(f"control support fills the whole interior from t = "
      f"{ctrace.times[first]:.3f} onward")
