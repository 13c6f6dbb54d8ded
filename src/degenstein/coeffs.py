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
accuracy of the I and G quadratures and of F', and the sign of F'.

A profile is its function alone.  F' is, for every profile, the
second-order difference of ln F on the uniform log grid (one-sided at the
ends), exact where ln F is linear in ln s: 3.8e-13 relative to the closed
form on the power family with its default tail.  Where ln F bends (another
tail, exp_inv) the truncation shows, up to 8.5e-3 at K = 256.  Closed
forms live only in the tests and demos, as references.

Both numerical kernels are numpy-only: every integral uses one 21-point
Gauss-Kronrod rule (Piessens et al., QUADPACK, 1983) in one vectorized pass
over all segments, bisecting only the segments that miss the tolerance, and
the table is read back through a monotone piecewise-cubic Hermite
interpolant with PCHIP slopes (Fritsch & Carlson, SIAM J. Numer. Anal. 17,
1980) in log s.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AssumptionError, DomainError, QuadratureError

__all__ = [
    "DegeneracyProfile",
    "LambdaChoice",
    "CoefficientTable",
    "build_table",
    "power_profile",
    "exp_inv_profile",
    "exp_zeta_profile",
    "custom_profile",
    "constant_table",
    "COLUMNS",
]

COLUMNS = ("s", "I", "H", "h", "F", "Fprime", "G")

# 21-point Kronrod extension of the 10-point Gauss rule on [-1, 1] (the
# QUADPACK qk21 table): nonnegative abscissae in decreasing order, the
# Gauss nodes at odd positions.  K21 is exact to degree 31, G10 to 19.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])
# one weight matrix: column 0 is the Kronrod rule, column 1 the Gauss rule
# (zero weight on the Kronrod-only nodes)
_GK_W = np.zeros((21, 2))
_GK_W[:, 0] = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_W[1:10:2, 1] = _WG
_GK_W[11:20:2, 1] = _WG[::-1]
_QUAD_LIMIT = 200    # most subintervals one adaptive quadrature may use
QUAD_TOL = 1e-8      # relative tolerance of the tables' quadrature
DP_STEP = 1e-6       # relative half-width of the checker's P' stencil


@dataclass
class DegeneracyProfile:
    """Degeneracy profile P on (0, M]: positive, bounded by c3, vanishing at 0.

    A profile states P alone: build_table takes I and F', and the checker
    P', from P by quadrature and differences, whatever the kind.

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
    tail : float, optional
        Tail constant added to the inner integral.  None defers the choice
        to build time (default 1/Lambda).
    s_min_hint : float, optional
        The default lowest table node: build_table starts there unless
        given s_min.  None resolves to 1e-8*M; a profile that needs a
        higher floor (exp_inv's double range, a custom profile's first
        sample) sets its own.
    """

    func: Callable[[np.ndarray], np.ndarray]
    M: float
    c3: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    tail: Optional[float] = None
    s_min_hint: Optional[float] = None

    def __post_init__(self):
        if not (self.M > 0):
            raise DomainError("profile domain edge M must be positive")
        if not (self.c3 > 0):
            raise DomainError("profile bound c3 must be positive")
        if self.s_min_hint is None:
            self.s_min_hint = 1e-8 * self.M

    def __call__(self, s):
        return self.func(np.asarray(s, dtype=float))

    def validate(self) -> None:
        """Sample P on a geometric grid and enforce the profile invariants:
        strict positivity, the bound c3, and decay toward zero concentration."""
        lo = self.s_min_hint
        grid = np.geomspace(lo, self.M, 24)
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
    def from_auto(A_est: float) -> "LambdaChoice":
        """Pick Lambda so that (Lambda+1)/Lambda = 1.5*A_est, a 50% margin.

        When the target is not reachable (1.5*A_est <= 1) every positive
        Lambda already clears the constraint and we return 1.
        """
        target = A_est * 1.5
        if not np.isfinite(target) or target <= 1.0:
            return LambdaChoice(1.0)
        return LambdaChoice(1.0 / (target - 1.0))


def _gauss_kronrod(fn, a: np.ndarray, b: np.ndarray):
    """K21 integrals of fn over the intervals [a_j, b_j] and their error
    estimates |K21 - G10|, from one vectorized call of fn."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GK_X
    f = np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
    kg = (f @ _GK_W) * half[:, None]
    return kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])


def _quad_segment(fn, a: float, b: float, tol: float):
    """Adaptive quadrature of fn over [a, b]; returns (value, error estimate).

    Globally adaptive 21-point Gauss-Kronrod: the subinterval with the
    largest error estimate is bisected until the summed estimate falls to
    tol relative, or _QUAD_LIMIT subintervals are in use.  fn must accept an
    array of abscissae.
    """
    with np.errstate(over="raise"):
        try:
            lo, hi = [float(a)], [float(b)]
            vals, errs = (r.tolist() for r in
                          _gauss_kronrod(fn, np.array(lo), np.array(hi)))
            val, err = vals[0], errs[0]
            while np.isfinite(err) and err > tol * abs(val) \
                    and len(lo) < _QUAD_LIMIT:
                # bisect the worst subinterval: left half in place, right
                # half appended
                j = errs.index(max(errs))
                mid = 0.5 * (lo[j] + hi[j])
                v2, e2 = (r.tolist() for r in _gauss_kronrod(
                    fn, np.array([lo[j], mid]), np.array([mid, hi[j]])))
                lo.append(mid)
                hi.append(hi[j])
                hi[j] = mid
                vals[j], errs[j] = v2[0], e2[0]
                vals.append(v2[1])
                errs.append(e2[1])
                val, err = sum(vals), sum(errs)
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


def _quad_segments(fn, edges, tol: float) -> np.ndarray:
    """Integrals of fn over every [edges[i], edges[i+1]]: one K21 pass, then
    `_quad_segment` for each segment that misses its first test (NaN and inf
    miss), or for all of them in order if the pass overflows, so that a
    QuadratureError names the failing segment."""
    a, b = edges[:-1], edges[1:]
    try:
        with np.errstate(over="raise"):
            vals, errs = _gauss_kronrod(fn, a, b)
        miss = ~(errs <= tol * np.abs(vals))
    except FloatingPointError:
        vals, miss = np.empty(a.size), np.ones(a.size, dtype=bool)
    for i in np.flatnonzero(miss):
        vals[i], _ = _quad_segment(fn, a[i], b[i], tol)
    return vals


def _integrals_to_edge(g, t: np.ndarray, tol: float) -> np.ndarray:
    """int_{e^t_i}^{e^t_-1} g(r)/r dr at every node of the increasing log
    grid t: the integral of g(e^t) over each segment, summed from the last
    node's side, where the integrands of the profile calculus are smallest.
    The last entry is 0."""
    out = np.zeros(len(t))
    seg = _quad_segments(lambda tt: g(np.exp(tt)), t, tol)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant of values y over
    strictly increasing nodes x.  Node slopes are PCHIP's (Fritsch &
    Carlson): the weighted harmonic mean of the adjacent secants where they
    share a sign and zero otherwise, and the shape-preserving one-sided
    three-point formula at both ends.

    Everything a call needs is one contiguous gather block with a column
    per segment: row 0 the segment's left node, rows 1-4 its cubic's
    coefficients from the highest power down.  A call is one binary search
    of x in the interior nodes x[1:-1], one `take` of the block at that
    index shaped like x, and one Horner pass.  The search puts x[-1] in the
    last segment and anything beyond the nodes in an end segment, so the
    end cubics extrapolate.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        hk = np.diff(x)
        mk = np.diff(y) / hk
        # interior: weighted harmonic mean of same-sign secants
        w1 = 2.0 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2.0 * hk[:-1]
        flat = (np.sign(mk[1:]) != np.sign(mk[:-1])) | (mk[1:] == 0.0) \
            | (mk[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
            inner = np.where(flat, 0.0, 1.0 / whmean)
        self.slopes = d = np.hstack([
            self._end_slope(hk[0], hk[1], mk[0], mk[1]), inner,
            self._end_slope(hk[-1], hk[-2], mk[-1], mk[-2])])
        t = (d[:-1] + d[1:] - 2.0 * mk) / hk
        # (5, nseg)
        self._block = np.stack([x[:-1], t / hk, (mk - d[:-1]) / hk - t,
                                d[:-1], y[:-1]])
        self._inner = x[1:-1]

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
        return np.where(overshoot, 3.0 * m0, d)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        g = self._block.take(self._inner.searchsorted(x, side="right"),
                             axis=-1)
        dx = x - g[0]
        out = g[1] * dx
        out += g[2]
        out *= dx
        out += g[3]
        out *= dx
        out += g[4]
        return out


@dataclass
class CoefficientTable:
    """Log-spaced tabulation of the coefficient family with monotone
    piecewise-cubic evaluation between nodes, and the profile it was built
    from, which the solver's diffusivity and the checker read."""

    s: np.ndarray
    I: np.ndarray
    H: np.ndarray
    h: np.ndarray
    F: np.ndarray
    Fprime: np.ndarray
    G: np.ndarray
    profile: DegeneracyProfile
    Lambda: Optional[float] = None
    # (log, _Pchip) interpolants, built from the columns above:
    # `dataclasses.replace` gives the new table its own
    _interp: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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
        # which keeps them positive and monotone under PCHIP.  Returns
        # (log, _Pchip).
        t = np.log(self.s)
        y = self.column(name)
        if np.all(y > 0.0):
            return True, _Pchip(t, np.log(y))
        return False, _Pchip(t, y)

    def check_domain(self, s: np.ndarray) -> None:
        """DomainError unless every value of the array s lies in [s_min, M]
        up to a roundoff slack of 1e-12 relative; NaN fails."""
        lo, hi = self.s_min * (1.0 - 1e-12), self.M * (1.0 + 1e-12)
        # negated comparisons, so NaN is rejected too
        if not (s.min(initial=np.inf) >= lo and s.max(initial=-np.inf) <= hi):
            bad = s[~((s >= lo) & (s <= hi))]
            raise DomainError(f"value outside [{self.s_min:g}, {self.M:g}]: "
                              f"first offender {bad.flat[0]:g}")

    def eval(self, column, s):
        """Evaluate a column at concentrations s in [s_min, M] (see
        `check_domain`; values within its slack clamp to the end nodes):
        the stored values at the nodes to roundoff, a monotone-preserving
        cubic in between.  The column's interpolant is built once per
        table.  A scalar s gives a float.
        """
        arr = np.asarray(s, dtype=float)
        if not arr.ndim:
            return float(self.eval(column, arr.reshape(1))[0])
        self.check_domain(arr)
        if column not in self._interp:
            self._interp[column] = self._interpolator(column)
        log, itp = self._interp[column]
        out = itp(np.log(np.clip(arr, self.s_min, self.M)))
        return np.exp(out, out=out) if log else out

    def identity_residuals(self) -> dict:
        """Max relative residuals of the construction identities, nodewise."""
        sF = self.s * self.F
        Hp1 = self.H ** (self.Lambda + 1.0)
        return {
            "sF_vs_H": float(np.max(np.abs(sF / Hp1 - 1.0))),
            "sF_pow_vs_H": float(np.max(np.abs(sF ** (self.lam / 2.0) / self.H - 1.0))),
            "hsP_vs_H": float(np.max(np.abs(
                self.h * self.s * self.profile(self.s) / Hp1 - 1.0))),
            "G_le_sqrt_sF": float(np.max(self.G / np.sqrt(sF) - 1.0)),
        }

    def validate(self) -> None:
        tol = 10.0 * QUAD_TOL
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
            for key in ("sF_vs_H", "sF_pow_vs_H", "hsP_vs_H"):
                if res[key] > tol:
                    raise AssumptionError(f"identity {key} off by {res[key]:g}")
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


def build_table(profile: DegeneracyProfile, lam: LambdaChoice,
                s_min: Optional[float] = None, K: int = 256) -> CoefficientTable:
    """Tabulate the full coefficient family on K log-spaced nodes from
    s_min, by default the profile's s_min_hint, to M.

    The I column is quadrature-built (one K21 pass over the node segments,
    refining only those that miss QUAD_TOL, summed from the M side), and
    F' is the second-order difference of ln F on the log grid, for every
    profile.  The tail constant is the profile's, or 1/Lambda when it has none.  F' <= 0
    at any node aborts the build: it signals that Lambda is too small for
    this profile's sup P*I.
    """
    if K < 16:
        raise DomainError("need at least 16 nodes")
    profile.validate()
    Lambda = lam.Lambda
    tail = profile.tail if profile.tail is not None else 1.0 / Lambda
    if not (0.0 <= tail < np.inf):      # negated, so NaN is rejected too
        raise DomainError("tail constant must be nonnegative and finite")
    if s_min is None:
        s_min = profile.s_min_hint
    if not (0.0 < s_min < profile.M):
        raise DomainError(f"s_min={s_min:g} outside (0, M)")

    s = np.geomspace(s_min, profile.M, K)
    s[-1] = profile.M
    t = np.log(s)
    I_vals = tail + _integrals_to_edge(lambda r: 1.0 / profile(r), t, QUAD_TOL)

    P_vals = profile(s)
    # checked below: a Lambda far off the profile's scale takes H or F' out of range
    with np.errstate(all="ignore"):
        H = (Lambda * I_vals) ** (-1.0 / Lambda)
        Hp1 = H ** (Lambda + 1.0)
        h = Hp1 / (s * P_vals)
        F = Hp1 / s
        # second-order central differences on the uniform log grid,
        # one-sided at the ends; differencing log F keeps the stencil
        # conditioned even when F grows by orders of magnitude per node
        dt = t[1] - t[0]
        lnF = np.log(F)
        dlnF = np.empty(K)
        dlnF[1:-1] = (lnF[2:] - lnF[:-2]) / (2.0 * dt)
        dlnF[0] = (-3.0 * lnF[0] + 4.0 * lnF[1] - lnF[2]) / (2.0 * dt)
        dlnF[-1] = (3.0 * lnF[-1] - 4.0 * lnF[-2] + lnF[-3]) / (2.0 * dt)
        Fp = F / s * dlnF
    for name, column in (("H", H), ("F'", Fp)):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise AssumptionError(
                f"{name}({s[bad[0]]:g}) = {column[bad[0]]:g} at Lambda = "
                f"{Lambda:g}: the table leaves the double range")
    if np.any(Fp <= 0.0):
        bad = int(np.argmin(Fp))
        PI = P_vals[bad] * I_vals[bad]
        raise AssumptionError(
            f"diffusion weight not strictly increasing: F'({s[bad]:g}) = {Fp[bad]:g} "
            f"(P*I there = {PI:g}, needs (Lambda+1)/Lambda = "
            f"{(Lambda + 1) / Lambda:g} to dominate)"
        )

    table = CoefficientTable(s=s, I=I_vals, H=H, h=h, F=F, Fprime=Fp,
                             G=np.zeros(K), Lambda=Lambda,
                             profile=profile)

    # gradient transform: integrate sqrt of the published F' interpolant,
    # rescaled per segment so the model's integral reproduces the exact F
    # increments.  The rescale keeps G consistent with refinement oracles
    # (factors are exactly 1 for power-law F') and makes the bound
    # G <= sqrt(s*F) hold by Cauchy-Schwarz rather than by luck.
    _, fp_itp = table._interpolator("Fprime")

    def fp_model(ss, power):
        return np.exp(power * fp_itp(np.log(ss)))

    # endpoint piece on [0, s_min]: power-law continuation with the
    # interpolant's own log-log slope at the first node, equivalent to the
    # r^2 substitution for the endpoint singularity
    q0 = float(fp_itp.slopes[0])
    if q0 / 2.0 + 1.0 <= 0.0 or q0 + 1.0 <= 0.0:
        raise AssumptionError(
            f"gradient transform endpoint integral diverges (log-slope {q0:g})"
        )
    alpha_end = F[0] * (q0 + 1.0) / (Fp[0] * s[0])
    G0 = np.sqrt(alpha_end * Fp[0]) * s[0] / (q0 / 2.0 + 1.0)
    # smooth between nodes: the K21 column, no refinement
    raw_g, _ = _gauss_kronrod(lambda ss: fp_model(ss, 0.5), s[:-1], s[1:])
    raw_f, _ = _gauss_kronrod(lambda ss: fp_model(ss, 1.0), s[:-1], s[1:])
    alpha = np.diff(F) / raw_f
    if not np.all(alpha > 0.0):
        raise AssumptionError("diffusion weight increment not positive near "
                              f"s={s[np.argmin(alpha > 0.0)]:g}")
    table.G = np.cumsum(np.concatenate([[G0], np.sqrt(alpha) * raw_g]))

    table.validate()
    return table


# -- profile factories ----------------------------------------------------

def power_profile(beta: float = 1.0, M: float = 1.0,
                  tail: Optional[float] = None) -> DegeneracyProfile:
    """Power-law degeneracy P(s) = s^beta.

    The default tail is the exact continuation of the inner integral beyond
    M, which gives I(s) = s^(-beta)/beta; another tail bends ln F, and F'
    carries the stencil's truncation (see the module docstring).
    """
    if not (0.0 < beta < np.inf):       # negated, so NaN is rejected too
        raise DomainError("beta must be positive and finite")
    if not (M > 0):     # before the default tail divides by M ** beta
        raise DomainError("profile domain edge M must be positive")
    if tail is None:
        tail = M ** (-beta) / beta

    def func(s):
        return s ** beta

    return DegeneracyProfile(func=func, M=M, c3=M ** beta, kind="power",
                             params={"beta": beta}, tail=tail)


def exp_inv_profile(beta: float = 1.0, M: float = 1.0) -> DegeneracyProfile:
    """Essential-singularity degeneracy P(s) = exp(-1/s^beta).

    No integrable continuation beyond M exists, so the tail stays the
    configured constant.  The representable range is limited: 1/(s*P) grows
    like exp(1/s^beta), so the profile's build floor (its s_min_hint) is
    max((1/200)^(1/beta), 1e-2, 1e-8*M), which keeps 1/s^beta at most 200
    on the table.
    """
    if not (0.0 < beta < np.inf):       # negated, so NaN is rejected too
        raise DomainError("beta must be positive and finite")
    if not (M > 0):     # before c3 raises M to the power -beta
        raise DomainError("profile domain edge M must be positive")

    def func(s):
        return np.exp(-np.asarray(s, dtype=float) ** -beta)

    hint = max((1.0 / 200.0) ** (1.0 / beta), 1e-2, 1e-8 * M)
    return DegeneracyProfile(func=func, M=M, c3=float(np.exp(-M ** -beta)),
                             kind="exp_inv", params={"beta": beta},
                             s_min_hint=hint)


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
        but slightly slower to construct.  The grid spans
        [min(1e-9*M, s_min_hint), M] at 2048 nodes per nine decades.  Its
        end cubic serves the checker's P' stencil, which reaches DP_STEP
        below the floor; an evaluation further below raises DomainError
        rather than extrapolating.
    """
    if zeta_over_s_integral is None:
        lower = 1e-9 * M if s_min_hint is None else min(1e-9 * M, s_min_hint)
        decades = np.log10(M / lower)
        n_nodes = 1 + int(np.ceil(2047 * decades / 9.0 - 1e-9))
        grid_t = np.linspace(np.log(lower), np.log(M), n_nodes)
        itp = _Pchip(grid_t, _integrals_to_edge(zeta, grid_t, 1e-10))

        def zeta_over_s_integral(s):
            s = np.asarray(s, dtype=float)
            if np.any(s < lower * (1.0 - DP_STEP) * (1.0 - 1e-12)):
                raise DomainError(
                    f"rate integral tabulated on [{lower:g}, {M:g}] only; "
                    f"pass s_min_hint to reach {float(np.min(s)):g}")
            return itp(np.log(s))

    integral = zeta_over_s_integral

    def func(s):
        return np.exp(-np.asarray(integral(s), dtype=float))

    return DegeneracyProfile(func=func, M=M, c3=1.0, kind=kind,
                             params={}, s_min_hint=s_min_hint)


def custom_profile(s_nodes, P_nodes) -> DegeneracyProfile:
    """Profile interpolated from tabulated (s, P) samples, monotone cubic in
    log-log space; used by the CLI's custom-table path.  Every sample must
    be finite, and the first s is the build floor."""
    s_nodes = np.asarray(s_nodes, dtype=float)
    P_nodes = np.asarray(P_nodes, dtype=float)
    if s_nodes.ndim != 1 or s_nodes.shape != P_nodes.shape or s_nodes.size < 4:
        raise DomainError("need matching 1-d arrays with at least 4 samples")
    bad = ~(np.isfinite(s_nodes) & np.isfinite(P_nodes))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"sample {i + 1} of {s_nodes.size} is not finite: "
                          f"s={s_nodes[i]:g}, P={P_nodes[i]:g}")
    if np.any(np.diff(s_nodes) <= 0) or np.any(P_nodes <= 0) or np.any(s_nodes <= 0):
        raise DomainError("samples must be positive with increasing s")
    itp = _Pchip(np.log(s_nodes), np.log(P_nodes))

    def func(s):
        return np.exp(itp(np.log(np.asarray(s, dtype=float))))

    return DegeneracyProfile(func=func, M=float(s_nodes[-1]),
                             c3=float(P_nodes.max()), kind="custom_table",
                             s_min_hint=float(s_nodes[0]))


def constant_table(F0: float = 1.0, h0: float = 1.0, M: float = 1.0,
                   s_min: float = 1e-8, K: int = 64) -> CoefficientTable:
    """Nondegenerate control coefficients: F and h constant, H linear, G = 0,
    with the constant profile P = F0/h0 that drives the solver.

    Bypasses the calculus on purpose (the construction identities do not
    apply, so Lambda stays None and the checker rejects the table); used as
    the infinite-speed contrast in localization experiments.
    """
    if not (0 < s_min < M and F0 > 0 and h0 > 0):
        raise DomainError(f"constant table needs 0 < s_min < M and positive "
                          f"F0, h0; got s_min={s_min:g}, M={M:g}, "
                          f"F0={F0:g}, h0={h0:g}")
    s = np.geomspace(s_min, M, K)
    P0 = F0 / h0
    # inner integral consistent with the constant profile, for reporting only
    I_vals = np.log(M / s) / P0 + 1.0
    profile = DegeneracyProfile(func=lambda v: np.full(np.shape(v), P0), M=M,
                                c3=P0, kind="constant",
                                params={"F0": F0, "h0": h0})
    return CoefficientTable(s=s, I=I_vals, H=h0 * s, h=np.full(K, h0),
                            F=np.full(K, F0), Fprime=np.zeros(K),
                            G=np.zeros(K), Lambda=None,
                            profile=profile)
