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

Both numerical kernels are numpy-only: every integral uses one 21-point
Gauss-Kronrod rule (Piessens et al., QUADPACK, 1983) in one vectorized pass
over all segments, bisecting only the segments that miss the tolerance, and
the table is read back through a monotone piecewise-cubic Hermite
interpolant with PCHIP slopes (Fritsch & Carlson, SIAM J. Numer. Anal. 17,
1980) in log s.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
_QUAD_TOL = 1e-8     # relative tolerance of the tables' quadrature


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
    analytic_I: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_dP: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
    """Monotone piecewise-cubic Hermite interpolant of one or more columns.

    y holds one column per trailing index over strictly increasing nodes x.
    Node slopes are PCHIP's (Fritsch & Carlson): the weighted harmonic mean
    of the adjacent secants where they share a sign and zero otherwise, and
    the shape-preserving one-sided three-point formula at both ends.

    Everything a call needs is one contiguous gather block with a column
    per segment and a copy of the last: row 0 the segment's left node, rows
    1-4 its cubic's coefficients from the highest power down (per column of
    y along a second axis when there are several).  A call is one segment
    index (arithmetic on uniform nodes, a binary search in x[1:] otherwise),
    one `take` of the block at that index shaped like x, and one Horner
    pass.  x[-1] indexes the copy; beyond the nodes the take clips to the
    end columns, so the end cubics extrapolate.  The columns come back on a
    leading axis: x.shape for one, (ncol,) + x.shape for several.  `at` is
    that call for a float array x, with the block and nodes bound once;
    calling the interpolant converts x and calls `at`.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        cols = y.reshape(len(x), -1)
        hk = np.diff(x)[:, None]
        mk = np.diff(cols, axis=0) / hk
        # interior: weighted harmonic mean of same-sign secants
        w1 = 2.0 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2.0 * hk[:-1]
        flat = (np.sign(mk[1:]) != np.sign(mk[:-1])) | (mk[1:] == 0.0) \
            | (mk[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
            inner = np.where(flat, 0.0, 1.0 / whmean)
        d = np.concatenate([self._end_slope(hk[0], hk[1], mk[0], mk[1])[None],
                            inner,
                            self._end_slope(hk[-1], hk[-2], mk[-1], mk[-2])[None]])
        self.slopes = d.reshape(y.shape)
        t = (d[:-1] + d[1:] - 2.0 * mk) / hk
        left = np.broadcast_to(x[:-1, None], mk.shape)
        block = np.stack([left, t / hk, (mk - d[:-1]) / hk - t, d[:-1],
                          cols[:-1]])
        block = np.concatenate([block, block[:, -1:]], axis=1)
        # (5, nseg + 1), or (5, ncol, nseg + 1) for several columns
        self._block = np.ascontiguousarray(
            block.transpose(0, 2, 1) if y.ndim > 1 else block[..., 0])
        step = (x[-1] - x[0]) / (len(x) - 1)
        uniform = np.ptp(hk) <= 1e-9 * step
        x0, right, block = x[0], x[1:], self._block
        self._inv_step = inv_step = 1.0 / step if uniform else None

        def at(x):
            if inv_step is not None:
                i = ((x - x0) * inv_step).astype(np.intp)
            else:
                i = right.searchsorted(x, side="right")
            g = block.take(i, axis=-1, mode="clip")
            dx = x - g[0]
            out = g[1] * dx
            out += g[2]
            out *= dx
            out += g[3]
            out *= dx
            out += g[4]
            return out

        self.at = at

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
        return np.where(overshoot, 3.0 * m0, d)

    def __call__(self, x):
        return self.at(np.asarray(x, dtype=float))


def integral_I(profile: DegeneracyProfile, s, tail: float = 1.0,
               quad_tol: float = _QUAD_TOL) -> float:
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
    t_lo, t_hi = np.log(s), np.log(profile.M)
    if t_hi - t_lo < 1e-15:
        return tail
    n_chunk = max(1, int(np.ceil(t_hi - t_lo)))
    edges = np.linspace(t_lo, t_hi, n_chunk + 1)
    return float(_integrals_to_edge(lambda r: 1.0 / profile(r), edges,
                                    quad_tol)[0]) + tail


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
    quad_tol: float = _QUAD_TOL
    profile: Optional[DegeneracyProfile] = None
    # evaluators, built from the columns above: `dataclasses.replace`
    # gives the new table its own
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
        # which keeps them positive and monotone under PCHIP.  A tuple of
        # names gets one interpolant over the stacked columns: PCHIP slopes
        # are per column, so it matches the single-column ones to roundoff
        # while paying the per-call overhead once.  Returns (log, _Pchip).
        t = np.log(self.s)
        y = np.column_stack([self.column(c) for c in name]) \
            if isinstance(name, tuple) else self.column(name)
        if np.all(y > 0.0):
            return True, _Pchip(t, np.log(y))
        if isinstance(name, tuple):
            raise DomainError(
                f"joint evaluation needs positive columns, got {name}")
        return False, _Pchip(t, y)

    def evaluator(self, column):
        """The one evaluation of a column (or a tuple of positive columns),
        as a function f(s, bounds=None) of an array s, built once per
        column and table; `eval` and `EpsProblem.diffusivity` call it.

        f checks the domain: arguments outside [s_min, M] beyond roundoff
        slack raise DomainError.  bounds, when given, is an interval (lo,
        hi) that holds every value of s, such as the extrema of a field s
        is cut from; it stands in for the scan of s, and s itself is
        scanned only if the interval leaves the domain.  Past the check, f
        is one log, one gather of the interpolant's padded block at an
        index shaped like s (see `_Pchip`), one Horner pass and, for
        positive columns, one exp.
        """
        if column in self._interp:
            return self._interp[column]
        log, itp = self._interpolator(column)
        # the node range and its roundoff slack
        lo, hi = self.s_min, self.M
        lo_ok, hi_ok = lo * (1.0 - 1e-12), hi * (1.0 + 1e-12)

        def f(s, bounds=None):
            if s.size:
                amin, amax = (s.min(), s.max()) if bounds is None else bounds
                # negated comparisons, so NaN is rejected too
                if not (amin >= lo_ok and amax <= hi_ok):
                    bad = s[~((s >= lo_ok) & (s <= hi_ok))]
                    if bad.size:
                        raise DomainError(
                            f"evaluation outside [{lo:g}, {hi:g}]: first "
                            f"offender {bad.flat[0]:g}")
                # clamping values inside [lo, hi] leaves them as they are
                if amin < lo or amax > hi:
                    s = np.minimum(np.maximum(s, lo), hi)
            out = itp.at(np.log(s))
            if log:
                np.exp(out, out=out)
            return out

        self._interp[column] = f
        return f

    def eval(self, column, s, bounds=None):
        """Evaluate a column at concentrations s in [s_min, M] through its
        `evaluator`: exact at the nodes, a monotone-preserving cubic in
        between.  A tuple of positive column names is evaluated through one
        joint interpolant and returns the columns along a leading axis, so
        ``F, h = table.eval(("F", "h"), s)`` unpacks them.  A scalar s of
        one column gives a float.
        """
        arr = np.asarray(s, dtype=float)
        if arr.ndim:
            return self.evaluator(column)(arr, bounds)
        out = self.evaluator(column)(arr.reshape(1), bounds)[..., 0]
        return float(out) if out.ndim == 0 else out

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


def _fprime_closed_form(profile: DegeneracyProfile, s: np.ndarray,
                        Lambda: float, I_vals: np.ndarray) -> np.ndarray:
    """Exact derivative of the diffusion weight in terms of I and P:
    F'(s) = Lambda^(-1/Lambda-1) * s^-2 * I^(-1/Lambda-2) * P^-1
            * ((1+Lambda)/Lambda - P*I).
    """
    P = profile(s)
    B1 = np.float64(Lambda) ** (-1.0 / Lambda - 1.0)  # inf on overflow, not an error
    return B1 * s ** -2.0 * I_vals ** (-1.0 / Lambda - 2.0) / P \
        * ((1.0 + Lambda) / Lambda - P * I_vals)


def build_table(profile: DegeneracyProfile, lam: LambdaChoice,
                s_min: Optional[float] = None, K: int = 256) -> CoefficientTable:
    """Tabulate the full coefficient family on K log-spaced nodes from
    s_min, by default the profile's s_min_hint, to M.

    The I column is always quadrature-built (one K21 pass over the node
    segments, refining only those that miss _QUAD_TOL, summed from the M
    side); closed forms, when the profile carries them, only feed the
    derivative column and test comparisons.  The tail constant is the
    profile's, or 1/Lambda when it has none.  F' <= 0 at any node aborts
    the build: it signals that Lambda is too small for this profile's
    sup P*I.
    """
    if K < 16:
        raise DomainError("need at least 16 nodes")
    profile.validate()
    Lambda = lam.Lambda
    tail = profile.tail if profile.tail is not None else 1.0 / Lambda
    if tail < 0.0:
        raise DomainError("tail constant must be nonnegative")
    if s_min is None:
        s_min = profile.s_min_hint
    if not (0.0 < s_min < profile.M):
        raise DomainError(f"s_min={s_min:g} outside (0, M)")

    s = np.geomspace(s_min, profile.M, K)
    s[-1] = profile.M
    t = np.log(s)
    I_vals = tail + _integrals_to_edge(lambda r: 1.0 / profile(r), t, _QUAD_TOL)

    P_vals = profile(s)
    # checked below: a Lambda far off the profile's scale takes H or F' out of range
    with np.errstate(all="ignore"):
        H = (Lambda * I_vals) ** (-1.0 / Lambda)
        Hp1 = H ** (Lambda + 1.0)
        h = Hp1 / (s * P_vals)
        F = Hp1 / s
        if profile.analytic_I is not None:
            Fp = _fprime_closed_form(profile, s, Lambda, np.asarray(profile.analytic_I(s)))
        else:
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
                             G=np.zeros(K), Lambda=Lambda, tail=tail,
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

def power_profile(beta: float, M: float = 1.0,
                  tail: Optional[float] = None) -> DegeneracyProfile:
    """Power-law degeneracy P(s) = s^beta.

    The default tail is the exact continuation of the inner integral beyond
    M, which gives the closed form I(s) = s^(-beta)/beta.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if not (M > 0):     # before the default tail divides by M ** beta
        raise DomainError("profile domain edge M must be positive")
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
    configured constant.  The representable range is limited: 1/(s*P) grows
    like exp(1/s^beta), so the profile's build floor (its s_min_hint) is
    max((1/200)^(1/beta), 1e-2, 1e-8*M), which keeps 1/s^beta at most 200
    on the table.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if not (M > 0):     # before c3 raises M to the power -beta
        raise DomainError("profile domain edge M must be positive")

    def func(s):
        return np.exp(-np.asarray(s, dtype=float) ** -beta)

    def analytic_dP(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-s ** -beta) * beta * s ** (-beta - 1.0)

    hint = max((1.0 / 200.0) ** (1.0 / beta), 1e-2, 1e-8 * M)
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
        but slightly slower to construct.  The grid spans
        [min(1e-9*M, s_min_hint), M] at 2048 nodes per nine decades, and an
        evaluation below it raises DomainError rather than extrapolating.
    """
    if zeta_over_s_integral is None:
        lower = 1e-9 * M if s_min_hint is None else min(1e-9 * M, s_min_hint)
        decades = np.log10(M / lower)
        n_nodes = 1 + int(np.ceil(2047 * decades / 9.0 - 1e-9))
        grid_t = np.linspace(np.log(lower), np.log(M), n_nodes)
        itp = _Pchip(grid_t, _integrals_to_edge(zeta, grid_t, 1e-10))

        def zeta_over_s_integral(s):
            s = np.asarray(s, dtype=float)
            if np.any(s < lower * (1.0 - 1e-12)):
                raise DomainError(
                    f"rate integral tabulated on [{lower:g}, {M:g}] only; "
                    f"pass s_min_hint to reach {float(np.min(s)):g}")
            return itp(np.log(s))

    integral = zeta_over_s_integral

    def func(s):
        return np.exp(-np.asarray(integral(s), dtype=float))

    def analytic_dP(s):
        s = np.asarray(s, dtype=float)
        return func(s) * zeta(s) / s

    return DegeneracyProfile(func=func, M=M, c3=1.0, kind=kind,
                             params={}, analytic_dP=analytic_dP,
                             s_min_hint=s_min_hint)


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
    """Nondegenerate control coefficients: F and h constant, H linear, G = 0.

    Bypasses the calculus on purpose (the construction identities do not
    apply); used as the infinite-speed contrast in localization experiments.
    """
    if not (0 < s_min < M and F0 > 0 and h0 > 0):
        raise DomainError(f"constant table needs 0 < s_min < M and positive "
                          f"F0, h0; got s_min={s_min:g}, M={M:g}, "
                          f"F0={F0:g}, h0={h0:g}")
    s = np.geomspace(s_min, M, K)
    P0 = F0 / h0
    # inner integral consistent with the constant profile, for reporting only
    I_vals = np.log(M / s) / P0 + 1.0
    return CoefficientTable(s=s, I=I_vals, H=h0 * s, h=np.full(K, h0),
                            F=np.full(K, F0), Fprime=np.zeros(K),
                            G=np.zeros(K), Lambda=None, tail=1.0)
