"""Structural assumption checks on a coefficient table.

The solvability and localization arguments downstream need three things from
the calculus: the diffusion weight is controlled by the gradient transform
(F <= C1*G*G'), the gradient transform is controlled by the time weight
((sqrt(s*F))^lam <= C2*H, with C2 = 1 by construction here), and the
derivative F' stays positive, which is a comparison between (Lambda+1)/Lambda
and sup P*I.  Limits toward s = 0 are never read off at zero: they are
extrapolated trends on geometric subsequences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional

import numpy as np

from .coeffs import (CoefficientTable, DegeneracyProfile, LambdaChoice,
                     build_table, custom_profile, exp_inv_profile,
                     exp_zeta_profile, power_profile)
from .errors import DomainError

__all__ = [
    "AssumptionReport",
    "check_A1",
    "estimate_A_B",
    "check_almost_decreasing",
    "check_profile",
    "CatalogEntry",
    "PROFILES",
    "custom_csv_profile",
]

C_FLOOR = 0.5   # the almost-decreasing constant c must reach this
TREND_POINTS = 8


@dataclass
class AssumptionReport:
    """Verdicts and measured constants for one (profile, Lambda) pair.

    Verdicts carry margins, not bare booleans, so borderline cases (e.g.
    sup P*I equal to its small-s limit) degrade gracefully instead of
    flipping on roundoff.
    """

    profile_kind: str
    profile_params: dict
    Lambda: float
    A_est: float
    B_est: float
    B_slope: float
    C1_est: float
    C2_residual: float
    mu_used: float
    almost_dec_c: float
    sPprimeI_sup: float
    sPprimeI_trend: float
    verdicts: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts.values())

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _trend_points(table: CoefficientTable) -> np.ndarray:
    """Doubling subsequence from s_min; when fewer than TREND_POINTS
    doublings fit below M the window shrinks, capped at the geometric
    midpoint of [s_min, M] so the fit never leaves the small-s half."""
    lo = table.s_min
    hi = min(table.M, lo * 2.0 ** (TREND_POINTS - 1))
    mid = float(np.sqrt(lo * table.M))
    if hi > mid > lo * 2.0:
        hi = mid
    return np.geomspace(lo, hi, TREND_POINTS)


def check_A1(table: CoefficientTable):
    """Estimate C1 = sup F/(G*G') over the nodes.

    Passes when the sup is finite and the ratio does not run away toward
    s_min: consecutive values on the smallest nodes must stay within a
    factor 2 of each other.
    """
    ratio = table.F / (table.G * np.sqrt(table.Fprime))
    if not np.all(np.isfinite(ratio)):
        return float("inf"), False, {"reason": "nonfinite ratio"}
    C1 = float(np.max(ratio))
    head = ratio[:TREND_POINTS]
    steps = head[:-1] / head[1:]
    bounded = bool(np.all(steps < 2.0) and np.all(steps > 0.5))
    return C1, bounded, {"small_s_ratio": head.tolist()}


def _profile_of(table: CoefficientTable) -> DegeneracyProfile:
    """The profile a table was built from; the checks need it, and a table
    without one (the constant control table, or one read back by load_csv)
    raises DomainError."""
    if table.profile is None:
        raise DomainError("the table has no degeneracy profile, so there are "
                          "no assumptions to check")
    return table.profile


def _small_s_trend(table: CoefficientTable, weight) -> tuple:
    """Linear fit of weight(s)*I(s) against log s on the trend points, read
    off at s_min: (value there, slope)."""
    pts = _trend_points(table)
    t = np.log(pts)
    slope, intercept = np.polyfit(t, weight(pts) * table.eval("I", pts), 1)
    return float(slope * t[0] + intercept), float(slope)


def estimate_A_B(table: CoefficientTable):
    """Sup and small-s trend of P*I for the table's profile.

    A_est is the nodewise max.  B_est is a linear fit of P*I against log s on
    the doubling subsequence near s_min, read off at s_min; the slope is
    reported so callers can see whether the trend has settled.
    """
    profile = _profile_of(table)
    A_est = float(np.max(profile(table.s) * table.I))
    B_at_s_min, slope = _small_s_trend(table, profile)
    return A_est, max(0.0, B_at_s_min), slope


def _dP(profile: DegeneracyProfile, s: np.ndarray) -> np.ndarray:
    if profile.analytic_dP is not None:
        return np.asarray(profile.analytic_dP(s), dtype=float)
    # central difference on a relative stencil; profiles are smooth in log s
    d = 1e-6
    return (profile(s * (1 + d)) - profile(s * (1 - d))) / (2 * d * s)


def check_almost_decreasing(table: CoefficientTable,
                            mu: Optional[float] = None):
    """Almost-decreasing test for Q = P*I^mu, P the table's profile.

    Q is almost decreasing when Q(t) >= c*Q(s) for every node pair t < s with
    c >= C_FLOOR.  With mu = None the exponent is taken from the sufficient
    condition: mu = sup s*P'(s)*I(s), which makes Q nonincreasing whenever
    that sup is attained uniformly.  Work happens in logs; I^mu overflows
    doubles otherwise.
    """
    profile = _profile_of(table)
    sPpI = table.s * _dP(profile, table.s) * table.I
    sup_sPpI = float(np.max(sPpI))
    mu_used = sup_sPpI if mu is None else float(mu)
    if mu_used <= 0.0:
        raise DomainError(f"almost-decreasing exponent must be positive, got {mu_used:g}")
    Qlog = np.log(profile(table.s)) + mu_used * np.log(table.I)
    # c = min over t < s of Q(t)/Q(s) = exp(min_j
    #     (running min of Qlog up to j-1) - Qlog[j])
    runmin = np.minimum.accumulate(Qlog)[:-1]
    c = float(np.exp(np.min(runmin - Qlog[1:])))
    return c, bool(c >= C_FLOOR), mu_used, sup_sPpI


def check_profile(table: CoefficientTable) -> AssumptionReport:
    """Run the full battery of structural checks on a table and collect a
    report.  The profile and Lambda are the table's own, as build_table
    sets them; a table without a profile raises DomainError."""
    profile = _profile_of(table)
    C1, a1_ok, a1_detail = check_A1(table)
    A_est, B_est, B_slope = estimate_A_B(table)
    c, ad_ok, mu_used, sup_sPpI = check_almost_decreasing(table)
    sPprimeI_trend, _ = _small_s_trend(table, lambda s: s * _dP(profile, s))
    res = table.identity_residuals()
    C2_residual = res["sF_pow_vs_H"]
    growth = (table.Lambda + 1.0) / table.Lambda
    p2_margin = growth - A_est

    report = AssumptionReport(
        profile_kind=profile.kind,
        profile_params=dict(profile.params),
        Lambda=table.Lambda,
        A_est=A_est,
        B_est=B_est,
        B_slope=B_slope,
        C1_est=C1,
        C2_residual=C2_residual,
        mu_used=mu_used,
        almost_dec_c=c,
        sPprimeI_sup=sup_sPpI,
        sPprimeI_trend=sPprimeI_trend,
        verdicts={
            "A1": {"pass": a1_ok, "C1": C1, **a1_detail},
            "A2": {"pass": bool(C2_residual <= 10.0 * table.quad_tol),
                   "residual": C2_residual},
            "P2": {"pass": bool(p2_margin > 0.0), "margin": p2_margin,
                   "growth": growth},
            "almost_decreasing": {"pass": ad_ok, "c": c, "c_floor": C_FLOOR},
        },
    )
    return report


# -- profile registry -------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One named degeneracy: its profile kind, factory (beta, M, tail) ->
    profile, and the limits its default-beta estimates must reproduce.
    takes_beta and takes_tail say whether the factory reads beta and tail.
    The build floor is the profile's own s_min_hint."""

    kind: str
    factory: Callable[[float, float, Optional[float]], DegeneracyProfile]
    expected: dict  # keys: A_est/B_est/sPprimeI_trend -> (value, tol, mode)
    takes_beta: bool = True
    takes_tail: bool = False

    @property
    def name(self) -> str:
        return f"{self.kind}_beta1" if self.takes_beta else self.kind

    def make_profile(self, beta: float = 1.0, M: float = 1.0,
                     tail: Optional[float] = None) -> DegeneracyProfile:
        return self.factory(beta, M, tail)

    def run(self) -> AssumptionReport:
        """Check the table of the default-beta profile at Lambda = 1."""
        return check_profile(build_table(self.make_profile(),
                                         LambdaChoice(1.0)))

    def matches(self, report: AssumptionReport):
        """Compare measured estimates against the expected limits.

        Relative mode uses the 10% extrapolation margin; absolute mode is for
        limits equal to zero, where a relative margin is meaningless.
        """
        failures = []
        for key, (value, tol, mode) in self.expected.items():
            got = getattr(report, key)
            err = abs(got - value) if mode == "abs" else abs(got - value) / abs(value)
            if err > tol:
                failures.append(f"{key}: got {got:.6g}, want {value:g} (tol {tol:g} {mode})")
        if not report.all_pass():
            bad = [k for k, v in report.verdicts.items() if not v["pass"]]
            failures.append(f"verdicts failed: {bad}")
        return len(failures) == 0, failures


def _zeta_bounded(s):
    return 1.0 + np.asarray(s, dtype=float) / 2.0


# int_s^M zeta(r)/r dr; -log(s) + log(M) rather than log(M/s), so M = 1
# gives the bits of the plain -log(s) form
def _zeta_bounded_integral(s, M=1.0):
    s = np.asarray(s, dtype=float)
    return -np.log(s) + np.log(M) + (M - s) / 2.0


def _zeta_slow(s):
    return 1.0 - np.log(np.asarray(s, dtype=float))


def _zeta_slow_integral(s, M=1.0):
    s = np.asarray(s, dtype=float)
    return -np.log(s) + np.log(M) + 0.5 * np.log(s) ** 2 - 0.5 * np.log(M) ** 2


# The four worked degeneracies keyed by profile kind, the one definition the
# CLI, configs and the catalog read.  The rate kinds are
# P = exp(-int_s^M zeta(r)/r dr); exp_inv's build floor keeps 1/(s*P) in
# double range, so its limits are read as trends.
#   power s^beta: P*I identically 1/beta, s*P'*I identically 1
#   exp_inv exp(-1/s^beta): P*I tends to 0, s*P'*I to 1
#   bounded rate zeta = 1 + s/2: P*I tends to 1/zeta(0) = 1
#   slow rate zeta = 1 - log s: P*I tends to 0 like 1/zeta, s*P'*I to 1
_UNIT_LIMITS = {"A_est": (1.0, 0.10, "rel"), "B_est": (1.0, 0.10, "rel"),
                "sPprimeI_trend": (1.0, 0.10, "rel")}
PROFILES = {e.kind: e for e in (
    CatalogEntry(
        kind="power",
        factory=lambda beta, M, tail: power_profile(beta, M=M, tail=tail),
        expected=_UNIT_LIMITS, takes_tail=True),
    CatalogEntry(
        kind="exp_inv",
        factory=lambda beta, M, tail: exp_inv_profile(beta, M=M),
        expected={"B_est": (0.0, 0.05, "abs"),
                  "sPprimeI_trend": (1.0, 0.10, "rel")}),
    CatalogEntry(
        kind="exp_zeta_bounded",
        factory=lambda beta, M, tail: exp_zeta_profile(
            _zeta_bounded, lambda s: _zeta_bounded_integral(s, M), M=M,
            kind="exp_zeta_bounded"),
        expected=_UNIT_LIMITS, takes_beta=False),
    CatalogEntry(
        kind="exp_zeta_slow",
        factory=lambda beta, M, tail: exp_zeta_profile(
            _zeta_slow, lambda s: _zeta_slow_integral(s, M), M=M,
            kind="exp_zeta_slow"),
        expected={**_UNIT_LIMITS, "B_est": (0.0, 0.10, "abs")},
        takes_beta=False),
)}


def custom_csv_profile(path) -> DegeneracyProfile:
    """Profile kind 'custom': (s, P) samples from a CSV with one header row;
    the domain edge M is the last sampled s."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise DomainError(f"custom profile CSV {path} needs s and P columns")
    return custom_profile(data[:, 0], data[:, 1])
