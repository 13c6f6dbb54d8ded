# Run the structural checks on the built-in profile catalog and show what
# each report contains.

from degenstein import (PROFILES, LambdaChoice, build_table,
                        check_almost_decreasing, check_profile, power_profile)

# --- the four stock profiles ----------------------------------------------
for entry in PROFILES.values():
    report = entry.run()
    ok = "PASS" if report.all_pass() else "FAIL"
    close, _ = entry.matches(report)
    agree = "matches" if close else "DRIFTED"
    print(f"{entry.name:18s} {ok}  A={report.A_est:8.5f}  "
          f"B={report.B_est:8.5f}  C1={report.C1_est:8.5f}  ({agree})")

# --- anatomy of one report ------------------------------------------------
tab = build_table(power_profile(1.0), LambdaChoice(1.0), s_min=1e-8, K=256)
report = check_profile(tab)
print("\npower beta=1 verdicts:")
for name, verdict in report.verdicts.items():
    print(f"  {name:18s} {'ok' if verdict['pass'] else 'violated'}")

# the almost-decreasing constant depends on the weight mu; c = 1 means
# s^mu * P(s) is genuinely monotone on the node set
for mu in (1.0, 1.5, 2.0):
    c, ok, mu_used, sup = check_almost_decreasing(tab, mu=mu)
    print(f"  mu={mu:3.1f}: c={c:.6f} ({'ok' if ok else 'too large'})")
