# Build coefficient tables for two degeneracy profiles and check them
# against what we know in closed form.

import os
import tempfile

import numpy as np

from degenstein import (LambdaChoice, build_table, exp_inv_profile,
                        power_profile)

# --- power family P(s) = s^beta: every column has a closed form -----------
beta = 2.0
tab = build_table(power_profile(beta), LambdaChoice(1.0), s_min=1e-8, K=256)

s = tab.s
closed = {
    "I": s ** (-beta) / beta,
    "H": beta * s ** beta,
    "F": beta ** 2 * s ** (2 * beta - 1),
    "G": np.sqrt(2 * beta - 1) * s ** beta,
}
print(f"power profile, beta = {beta:g}, {len(s)} nodes "
      f"on [{tab.s_min:g}, {tab.M:g}]")
for col, ref in closed.items():
    err = np.abs(tab.column(col) / ref - 1.0).max()
    print(f"  {col:7s} vs closed form: max rel err {err:.3e}")

# structural identities hold at the nodes no matter the profile
for key, res in tab.identity_residuals().items():
    print(f"  identity {key:15s} residual {res:.3e}")

# --- a genuinely flat profile: P(s) = exp(1 - 1/s) ------------------------
tab2 = build_table(exp_inv_profile(1.0), LambdaChoice(1.0),
                   s_min=1e-2, K=256)
print(f"\nexp(-1/s) profile, {len(tab2.s)} nodes")
for key, res in tab2.identity_residuals().items():
    print(f"  identity {key:15s} residual {res:.3e}")

# point values anywhere in [s_min, M] come from monotone interpolation
for q in (0.013, 0.2, 0.77):
    print(f"  F({q:5.3f}) = {tab2.eval('F', q):.6e}   "
          f"G({q:5.3f}) = {tab2.eval('G', q):.6e}")

with tempfile.TemporaryDirectory() as tmp:
    tab.dump_csv(os.path.join(tmp, "table_power_beta2.csv"))
print("\nwrote table_power_beta2.csv (header: s,I,H,h,F,Fprime,G)")
