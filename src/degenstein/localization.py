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
from dataclasses import asdict, dataclass, field
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
    "front_radius",
    "empty_radius",
    "front_series",
    "time_to_threshold",
]

# (sqrt(s*F))^lam = H holds by the table's construction, so the constant
# of that bound is 1
C2 = 1.0
_BISECT_RTOL = 1e-3    # the T' bisection stops at this relative bracket
# fields per table_state_eval call in _rows: all 33 desk snapshots in one
# call raised the desk process's peak RSS by about 0.3 MB
_EVAL_CHUNK = 8


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
        # plain floats, so messages print (0.9,), not np.float64(0.9)
        x0 = tuple(np.atleast_1d(np.asarray(self.x0, dtype=float)).tolist())
        # negated, so NaN is rejected too
        if not all(abs(c) < math.inf for c in x0):
            raise GeometryError(f"center {x0} is not finite")
        object.__setattr__(self, "x0", x0)

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
        if not (self.j > 0 and self.S > 0 and self.C1 > 0):
            raise DomainError("j, S, C1 must be positive")
        if not (self.b > 2.0 and self.R > 0):
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
            lam = table.lam
        return cls(lam=lam, j=default_j(N_dim) if j is None else j,
                   b=cutoffs.b, R=cutoffs.R, S=S, C1=C1)


def lady_bound(c: float, b: float, delta: float, y0: float, n: int) -> float:
    """Closed-form majorant of the recursion y_{m+1} = c b^m y_m^{1+delta}.

    Equality holds when the recursion is saturated, so this dominates any
    sequence satisfying the inequality form.  Computed in logs; y0 = 0 gives
    0 exactly (zero is absorbing).
    """
    # negated, so NaN is rejected too
    if not (c > 0 and delta > 0):
        raise DomainError("need c > 0 and delta > 0")
    if not b >= 1.0:
        raise DomainError("need b >= 1")
    if not y0 >= 0:
        raise DomainError("need y0 >= 0")
    if not n >= 0:
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
    if not (c > 0 and delta > 0 and b >= 1.0):
        raise DomainError("need c > 0, delta > 0, b >= 1")
    return c ** (-1.0 / delta) * b ** (-1.0 / delta ** 2)


def table_state_eval(table: CoefficientTable, column: str,
                     values: np.ndarray) -> np.ndarray:
    """Evaluate a table column on a state field of any shape, cell by cell.

    Nonpositive state maps to 0 (the continuum value of H and G at the
    origin); positive state below the first node clamps to it, state above M
    clamps to M.  A NaN state raises DomainError naming the first one.
    """
    values = np.asarray(values, dtype=float)
    least = _least_state(values)
    # eval gives a float for a 0-d state
    out = np.asarray(table.eval(column,
                                np.clip(values, table.s_min, table.M)))
    if least <= 0.0:
        out[values <= 0.0] = 0.0
    return out


def _least_state(values: np.ndarray) -> float:
    """The least value of values; DomainError naming the first NaN."""
    least = values.min(initial=math.inf)
    if least != least:
        at = np.unravel_index(int(np.argmax(np.isnan(values))), values.shape)
        raise DomainError(f"state is NaN at index {tuple(map(int, at))}")
    return least


def _snapshot_schedule(trace: SolveTrace, T_prime: float):
    """Stored instants up to T_prime, closed with T_prime itself when no
    stored one is there: (times, number of stored fields leading them)."""
    if not (0.0 <= T_prime <= trace.T * (1 + 1e-12)):
        raise DomainError(f"T_prime={T_prime:g} outside [0, {trace.T:g}]")
    T_prime = min(T_prime, trace.T)
    times = np.minimum(trace.times[trace.times <= T_prime * (1 + 1e-12)], T_prime)
    n_stored = len(times)
    if times[-1] < T_prime * (1 - 1e-12):
        times = np.append(times, T_prime)
    return times, n_stored


def _rows(table: CoefficientTable, fields: np.ndarray, thetas: list,
          grid: GridSpec) -> list:
    """Per cutoff theta of thetas, the rows (int theta^2 H(u), gradient
    energy of theta*G(u)) of a stack of fields along a leading axis.

    H and G are evaluated once, on the bounding box of the support of
    thetas[0] and 0 elsewhere, which every cutoff must lie inside: theta
    vanishes outside the box, so its products with H and G are the same
    floats as with H and G evaluated everywhere (0 * finite = 0).  Every
    cell is still checked for NaN.  The evaluation is per cell, and each
    row sums its cells as one field does, so a row is bit for bit the same
    in a stack of any height or chunking."""
    _least_state(fields)
    box = (slice(None), *(slice(c.min(), c.max() + 1) if c.size else
                          slice(0, 0) for c in np.nonzero(thetas[0] > 0.0)))
    H, G = np.zeros((2, *fields.shape))
    inner = fields[box]
    for i in range(0, len(fields), _EVAL_CHUNK):
        for out, c in ((H, "H"), (G, "G")):
            out[i:i + _EVAL_CHUNK][box] = table_state_eval(
                table, c, inner[i:i + _EVAL_CHUNK])
    return [(np.add.reduce((th * th * H).reshape(len(H), -1), axis=1)
             * grid.cell_volume, _grad_energies(th * G, grid))
            for th in thetas]


def _weighted_energy(T_prime: float, pack: ExponentPack, times: np.ndarray,
                     mass: np.ndarray, grad: np.ndarray) -> float:
    """(T')^beta * (max of the mass rows, at least 0, plus the trapezoid of
    the gradient rows over times)."""
    sup_mass = max([0.0] + mass.tolist())
    time_term = float(_trapezoid(grad, times)) if len(times) > 1 else 0.0
    return T_prime ** pack.beta_exp * (sup_mass + time_term)


def _Y(trace: SolveTrace, pack: ExponentPack, table: CoefficientTable,
       theta: np.ndarray, mass: np.ndarray, grad: np.ndarray,
       T_prime: float) -> float:
    """Y[T'] of the cutoff theta from its rows (mass, grad) of the stored
    snapshots up to T' at least: the stored rows, closed with the row of
    the field interpolated at T' when T' falls between two stored
    instants."""
    times, n = _snapshot_schedule(trace, T_prime)
    mass, grad = mass[:n], grad[:n]
    if len(times) > n:
        (m, g), = _rows(table, trace.field_at(times[-1])[None], [theta],
                        trace.grid)
        mass, grad = np.concatenate([mass, m]), np.concatenate([grad, g])
    return _weighted_energy(T_prime, pack, times, mass, grad)


def energy_Y(trace: SolveTrace, cutoffs: CutoffFamily, pack: ExponentPack,
             table: CoefficientTable, n: int, T_prime: float) -> float:
    """Quadrature value of Y_n[T'] on a solver trace.

    The sup runs over stored snapshots (a lower bound of the true sup); the
    space-time term is a trapezoid in time of the centered-difference
    gradient energy of the product theta_n * G(u).  Each call evaluates H
    and G on the stored snapshots up to T', and on the field interpolated
    at T' if T' falls between two stored instants.
    """
    _, n_stored = _snapshot_schedule(trace, T_prime)
    theta = cutoffs.theta(trace.grid, n)
    (mass, grad), = _rows(table, trace.fields[:n_stored], [theta],
                          trace.grid)
    return _Y(trace, pack, table, theta, mass, grad, T_prime)


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
            "exponents": {**asdict(self.pack), "delta": self.pack.delta,
                          "C2": C2},
        }


def de_giorgi_trace(trace: SolveTrace, cutoffs: CutoffFamily,
                    pack: ExponentPack, table: CoefficientTable,
                    n_max: int = 6) -> DeGiorgiTrace:
    """Measure Y_0..Y_{n_max} at the trace's horizon T and compare against
    the iterative inequality.

    The verdict checks Y_n <= 2 D b^(2(n-1)) Y_{n-1}^(1+kj); the factor 2 is
    quadrature slack on top of the stored bound column.  T_prime in the
    result is the certified horizon from bisection (`_bisect_T_prime`).
    H(u) and G(u) are evaluated on the stored snapshots once, on the
    support box of theta_0 only; each theta_n is built once and reduces
    them to its mass and gradient rows, and the bisection starts from
    theta_0's rows.
    """
    T = trace.T
    thetas = [cutoffs.theta(trace.grid, n) for n in range(n_max + 1)]
    rows = _rows(table, trace.fields, thetas, trace.grid)
    Y = np.array([_Y(trace, pack, table, theta, *r, T)
                  for theta, r in zip(thetas, rows)])
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
    Tp = _bisect_T_prime(trace, pack, table, thetas[0], *rows[0])
    return DeGiorgiTrace(T_prime=Tp, Y_horizon=T, Y=Y, bound=bound,
                         threshold=pack.threshold, verdict=verdict, pack=pack)


def _bisect_T_prime(trace: SolveTrace, pack: ExponentPack,
                    table: CoefficientTable, theta0: np.ndarray,
                    mass: np.ndarray, grad: np.ndarray) -> float:
    """Largest T' in (0, T] with Y_0[T'] <= theta_L, by bisection to a
    bracket of _BISECT_RTOL relative from theta_0's rows of every stored
    snapshot; 0 if even arbitrarily small horizons fail.

    Y_0[T'] is nondecreasing in T' and vanishes as T' -> 0 (the prefactor
    (T')^beta does), so the certified horizon is positive whenever the state
    has finite energy, though it can be far below T.

    A probe fails at no table evaluation when the stored rows up to T'
    alone, (T')^beta * (max mass + trapezoid of the gradient rows), exceed
    theta_L by a relative 1e-12.  That is a lower bound of Y_0[T'], whose
    endpoint row only adds a mass to the max and a nonnegative trapezoid
    segment, and its rounding is far inside the margin, so every probe
    settles as energy_Y would and T' is the same to the bit.  With T' far
    below T most probes fail this way; the others go to _Y.
    """
    theta_L = pack.threshold

    def holds(tp: float) -> bool:
        times, n = _snapshot_schedule(trace, tp)
        lower = _weighted_energy(tp, pack, times[:n], mass[:n], grad[:n])
        return (lower <= theta_L * (1.0 + 1e-12)
                and _Y(trace, pack, table, theta0, mass, grad, tp) <= theta_L)

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


def _radius(reduce, fill: float, values, grid: GridSpec, x0, threshold):
    """reduce over the grid axes of the distances to x0 of the cells above
    threshold, fill elsewhere: a float for one field, an array for a stack."""
    d = grid.distance_to(x0)
    out = reduce(np.where(values > threshold, d, fill), axis=tuple(range(-d.ndim, 0)))
    return float(out) if out.ndim == 0 else out


def front_radius(values: np.ndarray, grid: GridSpec, x0, threshold: float):
    """Sup of |x - x0| over cells above threshold; 0 when nothing is
    supported.  values is one field, giving a float, or a stack of fields
    along a leading axis, giving an array."""
    return _radius(np.max, 0.0, values, grid, x0, threshold)


def empty_radius(values: np.ndarray, grid: GridSpec, x0, threshold: float):
    """Radius of the largest supported-cell-free ball around x0 (inf of
    distances to cells above threshold); +inf when nothing is supported.
    Takes one field or a stack, as front_radius."""
    return _radius(np.min, math.inf, values, grid, x0, threshold)


def front_series(trace: SolveTrace, x0_front, x0_empty=None):
    """Per-snapshot front radius around x0_front and empty radius around
    x0_empty (defaults to x0_front), at the problem's support threshold:
    arrays (t, r_front, r_empty)."""
    thr = trace.prob.support_threshold
    x0_empty = x0_front if x0_empty is None else x0_empty
    return (trace.times.copy(),
            front_radius(trace.fields, trace.grid, x0_front, thr),
            empty_radius(trace.fields, trace.grid, x0_empty, thr))


def time_to_threshold(trace: SolveTrace, x0, radius: float) -> float:
    """First time any cell within distance radius of x0 crosses the
    problem's support threshold, linearly interpolated between snapshots;
    +inf when censored at the horizon."""
    thr = trace.prob.support_threshold
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    for c, (lo, hi) in zip(x0, trace.grid.extent):
        if not lo <= c <= hi:
            raise GeometryError("probe center outside the grid box")
    d = trace.grid.distance_to(x0)
    ball = d <= radius + 1e-12 if radius > 0 else d <= d.min() + 1e-12
    if not np.any(ball):
        raise GeometryError("no cells within the probe radius")
    maxima = trace.fields[:, ball].max(axis=1)
    above = np.flatnonzero(maxima > thr)
    if not above.size:
        return math.inf
    i = int(above[0])
    if i == 0 or maxima[i] == maxima[i - 1]:
        return float(trace.times[i])
    (t0, t1), (m0, m1) = trace.times[i - 1:i + 1], maxima[i - 1:i + 1]
    return float(t0 + (thr - m0) / (m1 - m0) * (t1 - t0))
