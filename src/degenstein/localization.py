"""Cutoff families, localized energies, and the iteration bound machinery.

The measured object is the weighted energy

    Y_n[T'] = (T')^beta * [ sup_{tau<=T'} int theta_n^2 H(u)
                            + int_0^{T'} int |grad(theta_n G(u))|^2 ],

evaluated by quadrature on solver traces.  The cutoffs theta_n live on a
shrinking family of balls B_{R_n}(x0) interpolating between R and R'; the
geometric decay constant is b with (b-2)/(b-1) = R'/R.  A separate
closed-form bound (lady_bound) certifies that any sequence obeying the
recursion y_{n+1} <= c b^n y_n^{1+delta} collapses to zero once y_0 is below
the threshold c^{-1/delta} b^{-1/delta^2}.

The sup over tau uses stored snapshots only, so it is a lower bound of the
continuum sup; the time integral is a trapezoid over the same instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coeffs import CoefficientTable
from .errors import DomainError, GeometryError
from .solver import GridSpec, SolveTrace, _grad_energies

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

__all__ = [
    "CutoffFamily",
    "ExponentPack",
    "DeGiorgiTrace",
    "default_j",
    "lady_bound",
    "lady_threshold",
    "table_state_eval",
    "energy_Y",
    "de_giorgi_trace",
    "estimate_T_prime",
    "front_radius",
    "empty_radius",
    "front_series",
    "time_to_threshold",
]

# (sqrt(s*F))^lam = H holds by the table's construction, so the constant
# of that bound is 1
C2 = 1.0
_BISECT_RTOL = 1e-3    # estimate_T_prime stops at this relative bracket
_EVAL_CHUNK = 8        # snapshots per table_state_eval call in _stored_rows


@dataclass(frozen=True)
class CutoffFamily:
    """Shrinking balls B_{R_n}(x0) from R down to Rp, with b > 2 fixed by
    (b-2)/(b-1) = Rp/R."""

    x0: tuple
    R: float
    Rp: float

    def __post_init__(self):
        if not (0.0 < self.Rp < self.R):
            raise GeometryError("need 0 < Rp < R")
        object.__setattr__(self, "x0", tuple(np.atleast_1d(np.asarray(self.x0, dtype=float))))

    @property
    def b(self) -> float:
        rho = self.Rp / self.R
        return (2.0 - rho) / (1.0 - rho)

    def R_n(self, n: int) -> float:
        b = self.b
        return self.R * (b - 2.0 + b ** (-float(n))) / (b - 1.0)

    def check_inside(self, grid: GridSpec) -> None:
        if len(self.x0) != grid.dim:
            raise GeometryError(f"center has {len(self.x0)} components on a "
                                f"{grid.dim}-d grid")
        for c, (a, bnd) in zip(self.x0, grid.extent):
            if c - self.R < a - 1e-12 or c + self.R > bnd + 1e-12:
                raise GeometryError(
                    f"ball of radius {self.R:g} at {self.x0} leaves the box")

    def theta(self, grid: GridSpec, n: int) -> np.ndarray:
        """Cutoff theta_n on the grid: 1 inside B_{R_{n+1}}, 0 outside
        B_{R_n}, linear ramp in between (slope b^{n+1}/R)."""
        self.check_inside(grid)
        d = grid.distance_to(self.x0)
        Rn, Rn1 = self.R_n(n), self.R_n(n + 1)
        return np.clip((Rn - d) / (Rn - Rn1), 0.0, 1.0)


def default_j(N_dim: int) -> float:
    """Interpolation exponent: 2/(N-2) above two dimensions, 2 below (any
    valid low-dimension Gagliardo-Nirenberg exponent works; the constant S
    absorbs the difference)."""
    return 2.0 / (N_dim - 2) if N_dim >= 3 else 2.0


@dataclass(frozen=True)
class ExponentPack:
    """Derived exponents and the iteration constant D for a run.

    From lam (the time-weight exponent, in (0,2)) and j the pack fixes
    k = (2-lam)/(2+2j-lam) in (0,1), the time power beta_exp =
    (1-(1+j)k)/(kj) > 0, and D = b^4 (2 C1^2 + 1) C2^(1-k) S^(k(1+j)) / R^2
    with the module constant C2 = 1.  The identity beta_exp + 1 - (1+j)k =
    beta_exp * (1+kj) rearranges the definition and is kept as a tripwire.
    """

    lam: float
    j: float
    b: float
    R: float
    S: float = 1.0
    C1: float = 1.0
    k: float = field(init=False)
    beta_exp: float = field(init=False)
    D: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.lam < 2.0):
            raise DomainError("lam must lie in (0, 2)")
        if self.j <= 0 or self.S <= 0 or self.C1 <= 0:
            raise DomainError("j, S, C1 must be positive")
        if self.b <= 2.0 or self.R <= 0:
            raise DomainError("need b > 2 and R > 0")
        k = (2.0 - self.lam) / (2.0 + 2.0 * self.j - self.lam)
        beta = (1.0 - (1.0 + self.j) * k) / (k * self.j)
        if not (0.0 < k < 1.0 and (1.0 + self.j) * k < 1.0 and beta > 0.0):
            raise DomainError("exponents left their admissible ranges")
        D = (self.b ** 4 * (2.0 * self.C1 ** 2 + 1.0)
             * C2 ** (1.0 - k) * self.S ** (k * (1.0 + self.j))
             / self.R ** 2)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "beta_exp", beta)
        object.__setattr__(self, "D", D)

    @property
    def delta(self) -> float:
        return self.k * self.j

    @property
    def threshold(self) -> float:
        """theta_L = D^(-1/(kj)) * b^(-2/(k^2 j^2)): the largest Y_0 the
        iteration provably sends to zero, lady_threshold of the recursion
        y_{n+1} <= D (b^2)^n y_n^(1+kj)."""
        return lady_threshold(self.D, self.b ** 2, self.delta)

    @classmethod
    def build(cls, cutoffs: CutoffFamily, N_dim: int, *,
              table: Optional[CoefficientTable] = None,
              lam: Optional[float] = None, C1: float = 1.0, S: float = 1.0,
              j: Optional[float] = None) -> "ExponentPack":
        """The pack of a run in N_dim dimensions: b and R from cutoffs, lam
        given or 2/(Lambda+1) of the table's Lambda, j given or
        default_j(N_dim)."""
        if lam is None:
            if table is None or table.Lambda is None:
                raise DomainError("need lam directly or a table with Lambda")
            lam = 2.0 / (table.Lambda + 1.0)
        return cls(lam=lam, j=default_j(N_dim) if j is None else j,
                   b=cutoffs.b, R=cutoffs.R, S=S, C1=C1)


def lady_bound(c: float, b: float, delta: float, y0: float, n: int) -> float:
    """Closed-form majorant of the recursion y_{m+1} = c b^m y_m^{1+delta}.

    Equality holds when the recursion is saturated, so this dominates any
    sequence satisfying the inequality form.  Computed in logs; y0 = 0 gives
    0 exactly (zero is absorbing).
    """
    if c <= 0 or delta <= 0:
        raise DomainError("need c > 0 and delta > 0")
    if b < 1.0:
        raise DomainError("need b >= 1")
    if y0 < 0:
        raise DomainError("need y0 >= 0")
    if n < 0:
        raise DomainError("need n >= 0")
    if y0 == 0.0:
        return 0.0
    p = (1.0 + delta) ** n
    a_c = (p - 1.0) / delta
    a_b = (p - 1.0) / delta ** 2 - n / delta
    with np.errstate(over="ignore", under="ignore"):
        return float(np.exp(a_c * math.log(c) + a_b * math.log(b)
                            + p * math.log(y0)))


def lady_threshold(c: float, b: float, delta: float) -> float:
    """Start below c^(-1/delta) b^(-1/delta^2) and the bound decays like
    b^(-n/delta)."""
    if c <= 0 or delta <= 0 or b < 1.0:
        raise DomainError("need c > 0, delta > 0, b >= 1")
    return c ** (-1.0 / delta) * b ** (-1.0 / delta ** 2)


def table_state_eval(table: CoefficientTable, column: str,
                     values: np.ndarray) -> np.ndarray:
    """Evaluate a table column on a state field.

    Nonpositive state maps to 0 (the continuum value of H and G at the
    origin); positive state below the first node clamps to it, state above M
    clamps to M.  A NaN state raises DomainError naming the first one.
    """
    values = np.asarray(values, dtype=float)
    least = values.min(initial=math.inf)
    if least != least:
        at = np.unravel_index(int(np.argmax(np.isnan(values))), values.shape)
        raise DomainError(f"state is NaN at index {tuple(map(int, at))}")
    lo, top = table.s_min, table.M
    out = table.eval(column, np.clip(values, lo, top).ravel(),
                     (lo, top)).reshape(values.shape)
    if least <= 0.0:
        out[values <= 0.0] = 0.0
    return out


def _snapshot_schedule(trace: SolveTrace, T_prime: float):
    """Stored instants up to T_prime, closed with T_prime itself when no
    stored one is there: (times, number of stored fields leading them)."""
    if not (0.0 <= T_prime <= trace.T * (1 + 1e-12)):
        raise DomainError(f"T_prime={T_prime:g} outside [0, {trace.T:g}]")
    T_prime = min(T_prime, trace.T)
    times = [min(float(t), T_prime) for t in trace.times
             if t <= T_prime * (1 + 1e-12)]
    n_stored = len(times)
    if times[-1] < T_prime * (1 - 1e-12):
        times.append(T_prime)
    return np.asarray(times), n_stored


def _energy_rows(theta: np.ndarray, H: np.ndarray, G: np.ndarray,
                 grid: GridSpec):
    """Per field of the H and G stacks, int theta^2 H and the gradient
    energy of theta*G.  Each row sums its cells as one field does, so a
    row is bit for bit the same in a stack of any height."""
    mass = np.add.reduce((theta * theta * H).reshape(len(H), -1), axis=1)
    return mass * grid.cell_volume, _grad_energies(theta * G, grid)


def _stored_rows(trace: SolveTrace, cutoffs: CutoffFamily,
                 table: CoefficientTable, n: int, theta: np.ndarray):
    """`_energy_rows` of the stored snapshots per (table, cutoffs, n), and
    the H(u) and G(u) stacks they come from per table, kept on the trace;
    each entry holds its table, so the table's id in its key stays valid."""
    states = trace._table_states
    if id(table) not in states:
        # a few fields per call, so an evaluation's temporaries stay a few
        # fields large; it is per cell, so the chunking changes no value
        fields = trace.fields
        starts = range(0, len(fields), _EVAL_CHUNK)
        states[id(table)] = (table, *(
            np.concatenate([
                table_state_eval(table, c, np.stack(fields[i:i + _EVAL_CHUNK]))
                for i in starts])
            for c in ("H", "G")))
    key = (id(table), cutoffs, n)
    if key not in states:
        states[key] = (table, *_energy_rows(theta, *states[id(table)][1:],
                                            trace.grid))
    return states[key][1:]


def _weighted_energy(T_prime: float, pack: ExponentPack, times: np.ndarray,
                     mass: np.ndarray, grad: np.ndarray) -> float:
    """(T')^beta * (max of the mass rows, at least 0, plus the trapezoid of
    the gradient rows over times)."""
    sup_mass = max([0.0] + mass.tolist())
    time_term = float(_trapezoid(grad, times)) if len(times) > 1 else 0.0
    return T_prime ** pack.beta_exp * (sup_mass + time_term)


def energy_Y(trace: SolveTrace, cutoffs: CutoffFamily, pack: ExponentPack,
             table: CoefficientTable, n: int, T_prime: float, *,
             theta: Optional[np.ndarray] = None) -> float:
    """Quadrature value of Y_n[T'] on a solver trace.

    The sup runs over stored snapshots (a lower bound of the true sup); the
    space-time term is a trapezoid in time of the centered-difference
    gradient energy of the product theta_n * G(u).  The stored snapshots'
    mass and gradient-energy rows are kept on the trace per (table,
    cutoffs, n), so a probe evaluates only the row of its interpolated
    endpoint, if T' falls between two stored instants.  The stored rows up
    to T' alone are a lower bound of Y_n[T'], from which `estimate_T_prime`
    settles failing probes.  theta, if given, must be
    cutoffs.theta(trace.grid, n), built once by a caller that probes one n
    many times.
    """
    grid = trace.grid
    if theta is None:
        theta = cutoffs.theta(grid, n)
    times, n_stored = _snapshot_schedule(trace, T_prime)
    mass, grad = _stored_rows(trace, cutoffs, table, n, theta)
    mass, grad = mass[:n_stored], grad[:n_stored]
    if len(times) > n_stored:
        u = trace.field_at(times[-1])[None]
        m, g = _energy_rows(theta, table_state_eval(table, "H", u),
                            table_state_eval(table, "G", u), grid)
        mass, grad = np.concatenate([mass, m]), np.concatenate([grad, g])
    return _weighted_energy(T_prime, pack, times, mass, grad)


@dataclass
class DeGiorgiTrace:
    """Measured Y_n sequence with the recursion bounds and verdicts."""

    T_prime: float            # largest certified horizon (0 if none)
    Y_horizon: float          # horizon at which the Y_n were measured
    Y: np.ndarray
    bound: np.ndarray         # D b^(2(n-1)) Y_{n-1}^(1+kj); nan at n = 0
    threshold: float          # theta_L
    verdict: dict
    pack: ExponentPack

    def to_dict(self) -> dict:
        return {
            "T_prime": self.T_prime,
            "Y_horizon": self.Y_horizon,
            "Y": [float(v) for v in self.Y],
            "bound": [None if not np.isfinite(v) else float(v) for v in self.bound],
            "threshold": self.threshold,
            "verdict": dict(self.verdict),
            "exponents": {
                "lam": self.pack.lam, "j": self.pack.j, "k": self.pack.k,
                "beta_exp": self.pack.beta_exp, "delta": self.pack.delta,
                "D": self.pack.D, "b": self.pack.b, "R": self.pack.R,
                "S": self.pack.S, "C1": self.pack.C1, "C2": C2,
            },
        }


def de_giorgi_trace(trace: SolveTrace, cutoffs: CutoffFamily,
                    pack: ExponentPack, table: CoefficientTable,
                    n_max: int = 6) -> DeGiorgiTrace:
    """Measure Y_0..Y_{n_max} at the trace's horizon T and compare against
    the iterative inequality.

    The verdict checks Y_n <= 2 D b^(2(n-1)) Y_{n-1}^(1+kj); the factor 2 is
    quadrature slack on top of the stored bound column.  T_prime in the
    result is the certified horizon from bisection (estimate_T_prime).
    Each theta_n is built once, the bisection reusing theta_0.
    """
    thetas = [cutoffs.theta(trace.grid, n) for n in range(n_max + 1)]
    Y = np.array([energy_Y(trace, cutoffs, pack, table, n, trace.T,
                           theta=thetas[n])
                  for n in range(n_max + 1)])
    bound = np.full(n_max + 1, np.nan)
    d = pack.delta
    for n in range(1, n_max + 1):
        bound[n] = pack.D * pack.b ** (2.0 * (n - 1)) * Y[n - 1] ** (1.0 + d)
    holds = [bool(Y[n] <= 2.0 * bound[n] * (1 + 1e-12)) for n in range(1, n_max + 1)]
    verdict = {
        "iteration_holds": holds,
        "all_hold": all(holds),
        "nonincreasing_after_1": bool(np.all(np.diff(Y[1:]) <= 1e-12 * max(Y.max(), 1e-300))),
        "y0_below_threshold": bool(Y[0] <= pack.threshold),
    }
    Tp = estimate_T_prime(trace, cutoffs, pack, table, theta0=thetas[0])
    return DeGiorgiTrace(T_prime=Tp, Y_horizon=trace.T, Y=Y, bound=bound,
                         threshold=pack.threshold, verdict=verdict, pack=pack)


def estimate_T_prime(trace: SolveTrace, cutoffs: CutoffFamily,
                     pack: ExponentPack, table: CoefficientTable, *,
                     theta0: Optional[np.ndarray] = None) -> float:
    """Largest T' in (0, T] with Y_0[T'] <= theta_L, by bisection to a
    bracket of _BISECT_RTOL relative; 0 if even arbitrarily small horizons
    fail.  theta0, if given, must be cutoffs.theta(trace.grid, 0);
    otherwise it is built here, once.

    Y_0[T'] is nondecreasing in T' and vanishes as T' -> 0 (the prefactor
    (T')^beta does), so the certified horizon is positive whenever the state
    has finite energy, though it can be far below T.

    A probe fails without energy_Y when the stored rows up to T' alone,
    (T')^beta * (max mass + trapezoid of the gradient rows), exceed theta_L
    by a relative 1e-12.  That is a lower bound of Y_0[T'], whose endpoint
    row only adds a mass to the max and a nonnegative trapezoid segment,
    and its rounding is far inside the margin, so every probe settles as
    energy_Y would and T' is the same to the bit.  With T' far below T most
    probes fail this way, at no table evaluation.
    """
    theta_L = pack.threshold
    if theta0 is None:
        theta0 = cutoffs.theta(trace.grid, 0)
    mass, grad = _stored_rows(trace, cutoffs, table, 0, theta0)

    def holds(tp: float) -> bool:
        times, n = _snapshot_schedule(trace, tp)
        lower = _weighted_energy(tp, pack, times[:n], mass[:n], grad[:n])
        if lower > theta_L * (1.0 + 1e-12):
            return False
        return energy_Y(trace, cutoffs, pack, table, 0, tp,
                        theta=theta0) <= theta_L

    T = trace.T
    if holds(T):
        return T
    lo, hi = 0.0, T  # y0(lo) <= theta_L always (prefactor 0), y0(hi) > theta_L
    for _ in range(200):
        if hi - lo <= _BISECT_RTOL * max(hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _farthest(d: np.ndarray) -> float:
    return float(d.max()) if d.size else 0.0


def _nearest(d: np.ndarray) -> float:
    return float(d.min()) if d.size else math.inf


def front_radius(values: np.ndarray, grid: GridSpec, x0,
                 threshold: float) -> float:
    """Sup of |x - x0| over cells above threshold; 0 when nothing is
    supported."""
    return _farthest(grid.distance_to(x0)[values > threshold])


def empty_radius(values: np.ndarray, grid: GridSpec, x0,
                 threshold: float) -> float:
    """Radius of the largest supported-cell-free ball around x0 (inf of
    distances to cells above threshold); +inf when nothing is supported."""
    return _nearest(grid.distance_to(x0)[values > threshold])


def front_series(trace: SolveTrace, x0_front, x0_empty=None):
    """Per-snapshot front radius around x0_front and empty radius around
    x0_empty (defaults to x0_front), at the problem's support threshold:
    arrays (t, r_front, r_empty).  Each centre's distances are computed
    once for all snapshots."""
    thr = trace.prob.support_threshold
    d_front = trace.grid.distance_to(x0_front)
    d_empty = d_front if x0_empty is None else trace.grid.distance_to(x0_empty)
    r_front = np.array([_farthest(d_front[f > thr]) for f in trace.fields])
    r_empty = np.array([_nearest(d_empty[f > thr]) for f in trace.fields])
    return trace.times.copy(), r_front, r_empty


def time_to_threshold(trace: SolveTrace, x0, radius: float) -> float:
    """First time any cell within distance radius of x0 crosses the
    problem's support threshold, linearly interpolated between snapshots;
    +inf when censored at the horizon."""
    thr = trace.prob.support_threshold
    for c, (lo, hi) in zip(x0, trace.grid.extent):
        if not lo <= c <= hi:
            raise GeometryError("probe center outside the grid box")
    d = trace.grid.distance_to(x0)
    ball = d <= radius + 1e-12 if radius > 0 else d <= d.min() + 1e-12
    if not np.any(ball):
        raise GeometryError("no cells within the probe radius")
    prev_t, prev_m = None, None
    for t, f in zip(trace.times, trace.fields):
        m = float(f[ball].max())
        if m > thr:
            if prev_t is None or prev_m is None or m == prev_m:
                return float(t)
            w = (thr - prev_m) / (m - prev_m)
            return float(prev_t + w * (t - prev_t))
        prev_t, prev_m = float(t), m
    return math.inf
