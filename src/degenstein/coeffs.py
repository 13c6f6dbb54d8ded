"""Coefficient calculus for concentration-dependent degenerate diffusion.

A degeneracy profile P (positive, bounded, vanishing at zero concentration)
generates the whole family of coefficients the other modules consume:

    I(s)  tail integral of 1/(sigma*P(sigma)) from s up to the domain edge M,
          plus a constant tail accounting for the continuation beyond M
    H(s)  = (Lambda*I)^(-1/Lambda), the integrated time weight
    h(s)  = H^(Lambda+1)/(s*P), the pointwise time weight (h = H')
    F(s)  = H^(Lambda+1)/s, the diffusion weight (F = h*P)
    G(s)  = integral of sqrt(F') from 0 to s, the gradient transform

The algebraic identities s*F = H^(Lambda+1), (s*F)^(lam/2) = H and
h*s*P = H^(Lambda+1) hold by construction; the numerical content is the
accuracy of the I and G quadratures and the sign of F'.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from .errors import AssumptionError, DomainError, QuadratureError

__all__ = [
    "DegeneracyProfile",
    "LambdaChoice",
    "CoefficientTable",
    "integral_I",
    "build_table",
    "power_profile",
    "exp_inv_profile",
    "exp_zeta_profile",
    "custom_profile",
    "constant_table",
    "COLUMNS",
]

COLUMNS = ("s", "I", "H", "h", "F", "Fprime", "G")

# 15-point Gauss-Legendre rule used for per-segment quadrature of smooth
# integrands; abscissae on [-1, 1].
_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)


@dataclass
class DegeneracyProfile:
    """Degeneracy profile P on (0, M]: positive, bounded by c3, vanishing at 0.

    Parameters
    ----------
    func : callable
        Vectorized map s -> P(s), valid on (0, M].
    M : float
        Right edge of the concentration domain.
    c3 : float
        Upper bound for P on (0, M].
    kind : str
        Free-form tag used by the CLI and reports.
    params : dict
        Constructor parameters, for provenance in reports.
    analytic_I : callable, optional
        Closed form for I(s) when one exists; enables the exact derivative
        formula for F' and is used by tests as a reference.
    analytic_dP : callable, optional
        Closed form for P'(s); the checker falls back to finite differences
        without it.
    tail : float, optional
        Tail constant added to the inner integral.  None defers the choice
        to build time (default 1/Lambda).
    s_min_hint : float, optional
        Smallest concentration at which P and 1/(s*P) are representable in
        double precision; build_table uses it as the default lower node.
    """

    func: Callable[[np.ndarray], np.ndarray]
    M: float
    c3: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    analytic_I: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_dP: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tail: Optional[float] = None
    s_min_hint: Optional[float] = None

    def __post_init__(self):
        if not (self.M > 0):
            raise DomainError("profile domain edge M must be positive")
        if not (self.c3 > 0):
            raise DomainError("profile bound c3 must be positive")

    def __call__(self, s):
        return self.func(np.asarray(s, dtype=float))

    def validate(self, n_check: int = 24) -> None:
        """Sample P on a geometric grid and enforce the profile invariants:
        strict positivity, the bound c3, and decay toward zero concentration."""
        lo = self.s_min_hint if self.s_min_hint is not None else 1e-8 * self.M
        grid = np.geomspace(lo, self.M, n_check)
        vals = np.asarray(self(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"profile '{self.kind}' not finite on ({lo:g}, {self.M:g}]")
        if np.any(vals <= 0.0):
            raise DomainError(f"profile '{self.kind}' must be strictly positive on (0, M]")
        if np.any(vals > self.c3 * (1.0 + 1e-9)):
            raise DomainError(
                f"profile '{self.kind}' exceeds its bound c3={self.c3:g} "
                f"(max sampled {vals.max():g})"
            )
        # degeneracy at the origin, judged on the sampled trend
        if vals[0] > 0.1 * self.c3:
            raise DomainError(
                f"profile '{self.kind}' does not decay toward s=0 "
                f"(P({lo:g}) = {vals[0]:g} vs c3 = {self.c3:g})"
            )


@dataclass(frozen=True)
class LambdaChoice:
    """Exponent pair (Lambda, lam) tied by lam*(Lambda+1) = 2."""

    Lambda: float

    def __post_init__(self):
        if not (self.Lambda > 0 and np.isfinite(self.Lambda)):
            raise DomainError("Lambda must be positive and finite")

    @property
    def lam(self) -> float:
        return 2.0 / (self.Lambda + 1.0)

    @staticmethod
    def from_auto(A_est: float, margin: float = 0.5) -> "LambdaChoice":
        """Pick Lambda so that (Lambda+1)/Lambda = A_est*(1+margin).

        When the target is not reachable (A_est*(1+margin) <= 1) every
        positive Lambda already clears the constraint and we return 1.
        """
        target = A_est * (1.0 + margin)
        if not np.isfinite(target) or target <= 1.0:
            return LambdaChoice(1.0)
        return LambdaChoice(1.0 / (target - 1.0))


def _quad_segment(fn, a: float, b: float, tol: float):
    """Adaptive quadrature of fn over [a, b]; returns (value, error estimate)."""
    with np.errstate(over="raise"):
        try:
            val, err = integrate.quad(fn, a, b, epsabs=0.0, epsrel=tol, limit=200)
        except FloatingPointError as exc:
            raise QuadratureError(
                f"integrand overflow on [{a:g}, {b:g}]; raise s_min"
            ) from exc
    if not np.isfinite(val):
        raise QuadratureError(f"quadrature diverged on [{a:g}, {b:g}]")
    if err > 10.0 * tol * max(abs(val), 1e-300):
        raise QuadratureError(
            f"quadrature stalled on [{a:g}, {b:g}]: value {val:g}, error {err:g}"
        )
    return val, err


def integral_I(profile: DegeneracyProfile, s, tail: float = 1.0,
               quad_tol: float = 1e-8) -> float:
    """Inner integral of 1/(sigma*P(sigma)) from s to M, plus the tail constant.

    Computed under the substitution sigma = e^t, in chunks of at most one
    e-fold so the adaptive rule stays local even when the integrand spans
    many orders of magnitude.
    """
    s = float(s)
    if not (0.0 < s <= profile.M * (1.0 + 1e-12)):
        raise DomainError(f"s={s:g} outside (0, M={profile.M:g}]")
    if tail < 0.0:
        raise DomainError("tail constant must be nonnegative")
    s = min(s, profile.M)

    def integrand(t):
        return 1.0 / float(profile(np.exp(t)))

    t_lo, t_hi = np.log(s), np.log(profile.M)
    if t_hi - t_lo < 1e-15:
        return tail
    n_chunk = max(1, int(np.ceil(t_hi - t_lo)))
    edges = np.linspace(t_lo, t_hi, n_chunk + 1)
    total = 0.0
    # accumulate from the M side, where the integrand is smallest
    for k in range(n_chunk - 1, -1, -1):
        val, _ = _quad_segment(integrand, edges[k], edges[k + 1], quad_tol)
        total += val
    return total + tail


@dataclass
class CoefficientTable:
    """Log-spaced tabulation of the coefficient family with monotone
    piecewise-cubic evaluation between nodes."""

    s: np.ndarray
    I: np.ndarray
    H: np.ndarray
    h: np.ndarray
    F: np.ndarray
    Fprime: np.ndarray
    G: np.ndarray
    Lambda: Optional[float] = None
    tail: Optional[float] = None
    quad_tol: float = 1e-8
    profile: Optional[DegeneracyProfile] = None
    _interp: dict = field(default_factory=dict, repr=False)

    @property
    def s_min(self) -> float:
        return float(self.s[0])

    @property
    def M(self) -> float:
        return float(self.s[-1])

    @property
    def lam(self) -> float:
        if self.Lambda is None:
            raise DomainError("table has no Lambda attached")
        return 2.0 / (self.Lambda + 1.0)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise DomainError(f"unknown column '{name}'; have {COLUMNS}")
        return getattr(self, name)

    def _interpolator(self, name):
        # interpolate in log s; positive columns additionally in log value,
        # which keeps them positive and monotone under PCHIP.  A tuple of
        # names gets one interpolant over the stacked columns: PCHIP slopes
        # are per column, so it matches the single-column ones to roundoff
        # while paying the per-call overhead once.
        if name not in self._interp:
            t = np.log(self.s)
            y = np.column_stack([self.column(c) for c in name]) \
                if isinstance(name, tuple) else self.column(name)
            if np.all(y > 0.0):
                self._interp[name] = ("log", PchipInterpolator(t, np.log(y)))
            elif isinstance(name, tuple):
                raise DomainError(
                    f"joint evaluation needs positive columns, got {name}")
            else:
                self._interp[name] = ("lin", PchipInterpolator(t, y))
        return self._interp[name]

    def eval(self, column, s):
        """Evaluate a column at concentrations s in [s_min, M].

        Exact at the nodes; monotone-preserving cubic in between.  Arguments
        outside the tabulated range (beyond roundoff slack) raise DomainError.
        A tuple of positive column names is evaluated through one joint
        interpolant and returns the columns along a trailing axis.
        """
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        lo, hi = self.s_min, self.M
        if arr.size and (arr.min() < lo * (1.0 - 1e-12)
                         or arr.max() > hi * (1.0 + 1e-12)):
            bad = arr[(arr < lo * (1.0 - 1e-12)) | (arr > hi * (1.0 + 1e-12))]
            raise DomainError(
                f"evaluation outside [{lo:g}, {hi:g}]: first offender {bad.flat[0]:g}"
            )
        clamped = np.clip(arr, lo, hi)
        mode, itp = self._interpolator(column)
        out = itp(np.log(clamped))
        if mode == "log":
            out = np.exp(out)
        if scalar:
            out = out[0]
            return float(out) if out.ndim == 0 else out
        return out

    def identity_residuals(self) -> dict:
        """Max relative residuals of the construction identities, nodewise."""
        sF = self.s * self.F
        Hp1 = self.H ** (self.Lambda + 1.0)
        res = {
            "sF_vs_H": float(np.max(np.abs(sF / Hp1 - 1.0))),
            "sF_pow_vs_H": float(np.max(np.abs(sF ** (self.lam / 2.0) / self.H - 1.0))),
            "hsP_vs_H": np.nan,
            "G_le_sqrt_sF": float(np.max(self.G / np.sqrt(sF) - 1.0)),
        }
        if self.profile is not None:
            P = self.profile(self.s)
            res["hsP_vs_H"] = float(np.max(np.abs(self.h * self.s * P / Hp1 - 1.0)))
        return res

    def validate(self) -> None:
        tol = 10.0 * self.quad_tol
        if np.any(np.diff(self.s) <= 0):
            raise AssumptionError("s nodes must be strictly increasing")
        if np.any(np.diff(self.I) > tol * np.abs(self.I[:-1])):
            raise AssumptionError("I must be nonincreasing")
        for name in ("H", "F", "G"):
            y = self.column(name)
            if np.any(np.diff(y) < -tol * np.maximum(np.abs(y[:-1]), 1e-300)):
                raise AssumptionError(f"{name} must be nondecreasing")
        if self.Lambda is not None:
            res = self.identity_residuals()
            for key in ("sF_vs_H", "sF_pow_vs_H"):
                if res[key] > tol:
                    raise AssumptionError(f"identity {key} off by {res[key]:g}")
            if np.isfinite(res["hsP_vs_H"]) and res["hsP_vs_H"] > tol:
                raise AssumptionError(f"identity hsP_vs_H off by {res['hsP_vs_H']:g}")
            if res["G_le_sqrt_sF"] > tol:
                raise AssumptionError(
                    f"G exceeds sqrt(s*F) by relative {res['G_le_sqrt_sF']:g}"
                )

    # -- serialization ----------------------------------------------------

    def dump_csv(self, path) -> None:
        data = np.column_stack([self.column(c) for c in COLUMNS])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            for row in data:
                writer.writerow([format(v, ".17g") for v in row])

    @staticmethod
    def load_csv(path, Lambda: Optional[float] = None) -> "CoefficientTable":
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != COLUMNS:
                raise DomainError(f"unexpected CSV header {header}; want {list(COLUMNS)}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[1] != len(COLUMNS):
            raise DomainError("CSV column count mismatch")
        cols = {name: data[:, i].copy() for i, name in enumerate(COLUMNS)}
        return CoefficientTable(Lambda=Lambda, **cols)


def _segment_gauss(fn, a: float, b: float) -> float:
    """Fixed 15-point Gauss-Legendre integral of fn over [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(_GL_W * fn(mid + half * _GL_X)))


def _fprime_closed_form(profile: DegeneracyProfile, s: np.ndarray,
                        Lambda: float, I_vals: np.ndarray) -> np.ndarray:
    """Exact derivative of the diffusion weight in terms of I and P:
    F'(s) = Lambda^(-1/Lambda-1) * s^-2 * I^(-1/Lambda-2) * P^-1
            * ((1+Lambda)/Lambda - P*I).
    """
    P = profile(s)
    B1 = Lambda ** (-1.0 / Lambda - 1.0)
    return B1 * s ** -2.0 * I_vals ** (-1.0 / Lambda - 2.0) / P \
        * ((1.0 + Lambda) / Lambda - P * I_vals)


def build_table(profile: DegeneracyProfile, lam: LambdaChoice,
                s_min: Optional[float] = None, K: int = 256,
                quad_tol: float = 1e-8, tail: Optional[float] = None
                ) -> CoefficientTable:
    """Tabulate the full coefficient family on K log-spaced nodes.

    The I column is always quadrature-built (segment integrals accumulated
    from the M side); closed forms, when the profile carries them, only feed
    the derivative column and test comparisons.  F' <= 0 at any node aborts
    the build: it signals that Lambda is too small for this profile's
    sup P*I.
    """
    if K < 16:
        raise DomainError("need at least 16 nodes")
    profile.validate()
    Lambda = lam.Lambda
    if tail is None:
        tail = profile.tail if profile.tail is not None else 1.0 / Lambda
    if tail < 0.0:
        raise DomainError("tail constant must be nonnegative")
    if s_min is None:
        s_min = profile.s_min_hint if profile.s_min_hint is not None \
            else 1e-8 * profile.M
    if not (0.0 < s_min < profile.M):
        raise DomainError(f"s_min={s_min:g} outside (0, M)")

    s = np.geomspace(s_min, profile.M, K)
    s[-1] = profile.M
    t = np.log(s)

    def inv_sP(tt):
        return 1.0 / profile(np.exp(tt))

    # inner integral per node: sum of segment integrals from the M side
    seg = np.empty(K - 1)
    for i in range(K - 1):
        seg[i], _ = _quad_segment(inv_sP, t[i], t[i + 1], quad_tol)
    I_vals = np.empty(K)
    I_vals[-1] = tail
    I_vals[:-1] = tail + np.cumsum(seg[::-1])[::-1]

    P_vals = profile(s)
    H = (Lambda * I_vals) ** (-1.0 / Lambda)
    Hp1 = H ** (Lambda + 1.0)
    h = Hp1 / (s * P_vals)
    F = Hp1 / s

    if profile.analytic_I is not None:
        Fp = _fprime_closed_form(profile, s, Lambda, np.asarray(profile.analytic_I(s)))
    else:
        # second-order central differences on the uniform log grid, one-sided
        # at the ends; differencing log F keeps the stencil conditioned even
        # when F itself grows by orders of magnitude per node
        dt = t[1] - t[0]
        lnF = np.log(F)
        dlnF = np.empty(K)
        dlnF[1:-1] = (lnF[2:] - lnF[:-2]) / (2.0 * dt)
        dlnF[0] = (-3.0 * lnF[0] + 4.0 * lnF[1] - lnF[2]) / (2.0 * dt)
        dlnF[-1] = (3.0 * lnF[-1] - 4.0 * lnF[-2] + lnF[-3]) / (2.0 * dt)
        Fp = F / s * dlnF
    if np.any(Fp <= 0.0) or not np.all(np.isfinite(Fp)):
        bad = int(np.argmin(Fp))
        PI = P_vals[bad] * I_vals[bad]
        raise AssumptionError(
            f"diffusion weight not strictly increasing: F'({s[bad]:g}) = {Fp[bad]:g} "
            f"(P*I there = {PI:g}, needs (Lambda+1)/Lambda = "
            f"{(Lambda + 1) / Lambda:g} to dominate)"
        )

    table = CoefficientTable(s=s, I=I_vals, H=H, h=h, F=F, Fprime=Fp,
                             G=np.zeros(K), Lambda=Lambda, tail=tail,
                             quad_tol=quad_tol, profile=profile)

    # gradient transform: integrate sqrt of the published F' interpolant,
    # rescaled per segment so the model's integral reproduces the exact F
    # increments.  The rescale keeps G consistent with refinement oracles
    # (factors are exactly 1 for power-law F') and makes the bound
    # G <= sqrt(s*F) hold by Cauchy-Schwarz rather than by luck.
    _, fp_itp = table._interpolator("Fprime")

    def sqrt_fp(ss):
        return np.exp(0.5 * fp_itp(np.log(ss)))

    def fp_model(ss):
        return np.exp(fp_itp(np.log(ss)))

    # endpoint piece on [0, s_min]: power-law continuation with the
    # interpolant's own log-log slope at the first node, equivalent to the
    # r^2 substitution for the endpoint singularity
    q0 = float(fp_itp.derivative()(t[0]))
    if q0 / 2.0 + 1.0 <= 0.0 or q0 + 1.0 <= 0.0:
        raise AssumptionError(
            f"gradient transform endpoint integral diverges (log-slope {q0:g})"
        )
    G = np.empty(K)
    alpha_end = F[0] * (q0 + 1.0) / (Fp[0] * s[0])
    G[0] = np.sqrt(alpha_end * Fp[0]) * s[0] / (q0 / 2.0 + 1.0)
    for i in range(K - 1):
        raw_g = _segment_gauss(sqrt_fp, s[i], s[i + 1])
        raw_f = _segment_gauss(fp_model, s[i], s[i + 1])
        alpha = (F[i + 1] - F[i]) / raw_f
        if not (alpha > 0.0):
            raise AssumptionError(
                f"diffusion weight increment not positive near s={s[i]:g}"
            )
        G[i + 1] = G[i] + np.sqrt(alpha) * raw_g
    table.G = G
    table._interp.pop("G", None)

    table.validate()
    return table


# -- profile factories ----------------------------------------------------

def power_profile(beta: float, M: float = 1.0,
                  tail: Optional[float] = None) -> DegeneracyProfile:
    """Power-law degeneracy P(s) = s^beta.

    The default tail is the exact continuation of the inner integral beyond
    M, which gives the closed form I(s) = s^(-beta)/beta.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if tail is None:
        tail = M ** (-beta) / beta
    offset = tail - M ** (-beta) / beta

    def func(s):
        return s ** beta

    def analytic_I(s):
        return np.asarray(s) ** (-beta) / beta + offset

    def analytic_dP(s):
        return beta * np.asarray(s) ** (beta - 1.0)

    return DegeneracyProfile(func=func, M=M, c3=M ** beta, kind="power",
                             params={"beta": beta}, analytic_I=analytic_I,
                             analytic_dP=analytic_dP, tail=tail)


def exp_inv_profile(beta: float = 1.0, M: float = 1.0) -> DegeneracyProfile:
    """Essential-singularity degeneracy P(s) = exp(-1/s^beta).

    No integrable continuation beyond M exists, so the tail stays the
    configured constant.  The representable range is limited: 1/s^beta must
    stay well under the double-precision exponent budget, hence the s_min
    hint.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")

    def func(s):
        return np.exp(-np.asarray(s, dtype=float) ** -beta)

    def analytic_dP(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-s ** -beta) * beta * s ** (-beta - 1.0)

    hint = max((1.0 / 200.0) ** (1.0 / beta), 1e-8 * M)
    return DegeneracyProfile(func=func, M=M, c3=float(np.exp(-M ** -beta)),
                             kind="exp_inv", params={"beta": beta},
                             analytic_dP=analytic_dP, s_min_hint=hint)


def exp_zeta_profile(zeta: Callable[[np.ndarray], np.ndarray],
                     zeta_over_s_integral: Optional[Callable] = None,
                     M: float = 1.0, kind: str = "exp_zeta",
                     s_min_hint: Optional[float] = None) -> DegeneracyProfile:
    """Degeneracy written through a rate function: P(s) = exp(-int_s^M zeta(r)/r dr).

    Parameters
    ----------
    zeta : callable
        Positive rate; bounded rates give P comparable to a power, slowly
        diverging rates give sub-power decay.
    zeta_over_s_integral : callable, optional
        Closed form of int_s^M zeta(r)/r dr.  Without it the integral is
        tabulated once on a fine log grid and interpolated, which is accurate
        but slightly slower to construct.
    """
    if zeta_over_s_integral is None:
        grid_t = np.linspace(np.log(1e-9 * M), np.log(M), 2048)

        def rate(tt):
            return float(zeta(np.exp(np.asarray(tt))))

        vals = np.zeros_like(grid_t)
        for i in range(len(grid_t) - 2, -1, -1):
            piece, _ = _quad_segment(rate, grid_t[i], grid_t[i + 1], 1e-10)
            vals[i] = vals[i + 1] + piece
        itp = PchipInterpolator(grid_t, vals)

        def zeta_over_s_integral(s):
            return itp(np.log(np.asarray(s, dtype=float)))

    integral = zeta_over_s_integral

    def func(s):
        return np.exp(-np.asarray(integral(s), dtype=float))

    def analytic_dP(s):
        s = np.asarray(s, dtype=float)
        return func(s) * zeta(s) / s

    return DegeneracyProfile(func=func, M=M, c3=1.0, kind=kind,
                             params={}, analytic_dP=analytic_dP,
                             s_min_hint=s_min_hint)


def custom_profile(s_nodes, P_nodes, kind: str = "custom_table") -> DegeneracyProfile:
    """Profile interpolated from tabulated (s, P) samples, monotone cubic in
    log-log space; used by the CLI's custom-table path."""
    s_nodes = np.asarray(s_nodes, dtype=float)
    P_nodes = np.asarray(P_nodes, dtype=float)
    if s_nodes.ndim != 1 or s_nodes.shape != P_nodes.shape or s_nodes.size < 4:
        raise DomainError("need matching 1-d arrays with at least 4 samples")
    if np.any(np.diff(s_nodes) <= 0) or np.any(P_nodes <= 0) or np.any(s_nodes <= 0):
        raise DomainError("samples must be positive with increasing s")
    itp = PchipInterpolator(np.log(s_nodes), np.log(P_nodes))

    def func(s):
        return np.exp(itp(np.log(np.asarray(s, dtype=float))))

    return DegeneracyProfile(func=func, M=float(s_nodes[-1]),
                             c3=float(P_nodes.max()), kind=kind,
                             s_min_hint=float(s_nodes[0]))


def constant_table(F0: float = 1.0, h0: float = 1.0, M: float = 1.0,
                   s_min: float = 1e-8, K: int = 64) -> CoefficientTable:
    """Nondegenerate control coefficients: F and h constant, H linear, G = 0.

    Bypasses the calculus on purpose (the construction identities do not
    apply); used as the infinite-speed contrast in localization experiments.
    """
    s = np.geomspace(s_min, M, K)
    P0 = F0 / h0
    # inner integral consistent with the constant profile, for reporting only
    I_vals = np.log(M / s) / P0 + 1.0
    return CoefficientTable(s=s, I=I_vals, H=h0 * s, h=np.full(K, h0),
                            F=np.full(K, F0), Fprime=np.zeros(K),
                            G=np.zeros(K), Lambda=None, tail=1.0)
