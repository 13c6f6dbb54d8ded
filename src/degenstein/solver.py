"""Explicit solver for the regularized degenerate diffusion problem.

The evolution is quasilinear and nondivergent: the time weight h and the
diffusion weight F from a coefficient table combine into the pointwise
diffusivity D(u) = (F(u) + eps)/h(u), and each step is forward Euler on
u_t = D(u) * lap(u) with a Dirichlet pin eps*psi on the boundary ring of
cells.  Under the CFL bound every update is a convex combination of
neighbors, so the discrete maximum principle holds exactly; a clamp event is
an error, never a silent fix.

There is one step kernel, `_Kernel`, and `solve`, `step_explicit` and
`cfl_dt` all go through it: one CFL formula, one update, and the range and
maximum-principle tripwires checked on every step, so `solve` raises
RangeError at the step that breaks them.  D comes from one joint evaluation
of the F and h columns per step (`CoefficientTable.eval` with a tuple).

The solver also accumulates the dissipation integral of the transformed time
derivative, which lets the gradient-energy identity

    2 * int_0^tau int [Ht~]^2 + grad-energy(tau) = grad-energy(0)

be checked after the fact; the factor 2 is what the identity's own
derivation produces (halving it leaves a residual equal to the dissipated
fraction, which would not vanish under refinement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .coeffs import CoefficientTable
from .errors import CflError, DomainError, RangeError

__all__ = [
    "GridSpec",
    "Field",
    "EpsProblem",
    "SolveTrace",
    "SweepResult",
    "step_explicit",
    "solve",
    "grad_energy",
    "energy_identity_residual",
    "eps_sweep",
    "bump",
]

DEFAULT_SAFETY = 0.4
DEFAULT_SUPPORT_TOL_FACTOR = 10.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on a box, dimension 1 or 2."""

    extent: tuple  # ((a, b),) or ((ax, bx), (ay, by))
    n: tuple       # cells per axis

    def __post_init__(self):
        if len(self.extent) not in (1, 2) or len(self.extent) != len(self.n):
            raise DomainError("extent and n must both have length 1 or 2")
        for (a, b), m in zip(self.extent, self.n):
            if not (b > a and m >= 8):
                raise DomainError("need b > a and at least 8 cells per axis")

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple:
        return tuple((b - a) / m for (a, b), m in zip(self.extent, self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_centers(self, k: int) -> np.ndarray:
        (a, b), m = self.extent[k], self.n[k]
        return a + (np.arange(m) + 0.5) * (b - a) / m

    def meshgrid(self):
        axes = [self.axis_centers(k) for k in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return np.meshgrid(*axes, indexing="ij")

    def distance_to(self, x0) -> np.ndarray:
        """Euclidean distance of every cell center to the point x0."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.size != self.dim:
            raise DomainError(f"x0 must have {self.dim} components")
        mesh = self.meshgrid()
        return np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, x0)))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        if self.dim == 1:
            mask[1:-1] = True
        else:
            mask[1:-1, 1:-1] = True
        return mask

    def sample(self, f: Union[Callable, np.ndarray, float]) -> np.ndarray:
        """Sample a callable of the cell coordinates (or broadcast a constant)
        onto the grid."""
        if callable(f):
            vals = np.asarray(f(*self.meshgrid()), dtype=float)
            return np.broadcast_to(vals, self.n).copy()
        arr = np.asarray(f, dtype=float)
        if arr.shape == tuple(self.n):
            return arr.copy()
        if arr.ndim == 0:
            return np.full(self.n, float(arr))
        raise DomainError(f"cannot place shape {arr.shape} on grid {self.n}")


@dataclass
class Field:
    """Grid function with its time stamp."""

    values: np.ndarray
    time: float


def bump(center, radius: float, height: float, shape: str = "tent") -> Callable:
    """Compactly supported initial hump.

    'tent' is the piecewise-linear cone; 'cos2' is the C^1 cosine-squared
    hump, useful when a kink-free gradient is wanted.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if radius <= 0 or height <= 0:
        raise DomainError("bump radius and height must be positive")
    if shape not in ("tent", "cos2"):
        raise DomainError(f"unknown bump shape '{shape}'")

    def g(*mesh):
        r = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, center)))
        if shape == "tent":
            return height * np.clip(1.0 - r / radius, 0.0, None)
        out = np.where(r < radius, np.cos(0.5 * np.pi * np.minimum(r / radius, 1.0)) ** 2, 0.0)
        return height * out

    return g


@dataclass
class EpsProblem:
    """Regularized problem data: floor eps, hump g, boundary weight psi.

    The initial state is eps + g; the boundary ring is pinned to eps*psi for
    all time.  omega_prime, when given as (center, radius), declares the ball
    that g must vacate (checked, since every localization statement is about
    that ball).
    """

    table: CoefficientTable
    eps: float
    g: Union[Callable, np.ndarray, float] = 0.0
    psi: Union[Callable, np.ndarray, float] = 1.0
    u_max: Optional[float] = None
    safety: float = DEFAULT_SAFETY
    support_tol_factor: float = DEFAULT_SUPPORT_TOL_FACTOR
    omega_prime: Optional[tuple] = None

    def __post_init__(self):
        if self.u_max is None:
            self.u_max = self.table.M
        if not (0.0 < self.eps < self.u_max):
            raise DomainError("need 0 < eps < u_max")
        if self.eps < self.table.s_min:
            raise DomainError(
                f"eps={self.eps:g} below the table's smallest node "
                f"{self.table.s_min:g}; coefficients are undefined there"
            )
        if self.u_max > self.table.M * (1 + 1e-12):
            raise DomainError("u_max exceeds the table domain")
        if not (0.0 < self.safety <= 1.0):
            raise DomainError("CFL safety factor must lie in (0, 1]")

    @property
    def support_threshold(self) -> float:
        return self.eps + self.support_tol_factor * self.eps

    def sample_on(self, grid: GridSpec):
        g_vals = grid.sample(self.g)
        psi_vals = grid.sample(self.psi)
        if np.any(g_vals < 0.0):
            raise DomainError("initial hump g must be nonnegative")
        if np.any(psi_vals < 0.0):
            raise DomainError("boundary weight psi must be nonnegative")
        top = self.eps * float(psi_vals.max()) + float(g_vals.max())
        if not (self.eps <= top <= self.u_max * (1 + 1e-12)):
            raise DomainError(
                f"initial data range [{self.eps:g}, {top:g}] violates "
                f"eps <= eps*max(psi)+max(g) <= u_max={self.u_max:g}"
            )
        if self.omega_prime is not None:
            center, radius = self.omega_prime
            inside = grid.distance_to(center) <= radius
            if float(np.abs(g_vals[inside]).max(initial=0.0)) > 1e-14:
                raise DomainError("g does not vanish on the declared empty ball")
        return g_vals, psi_vals

    def diffusivity(self, values: np.ndarray) -> np.ndarray:
        F, h = self.table.eval(("F", "h"), values)
        F += self.eps
        F /= h
        return F


def _laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Five-point (1-D: three-point) Laplacian on the interior cells only."""
    h = grid.h
    if grid.dim == 1:
        return (values[:-2] - 2.0 * values[1:-1] + values[2:]) / h[0] ** 2
    return (
        (values[:-2, 1:-1] - 2.0 * values[1:-1, 1:-1] + values[2:, 1:-1]) / h[0] ** 2
        + (values[1:-1, :-2] - 2.0 * values[1:-1, 1:-1] + values[1:-1, 2:]) / h[1] ** 2
    )


class _Kernel:
    """The explicit step, shared by solve, step_explicit and cfl_dt.

    Built once per (problem, grid, boundary weight): it holds the CFL
    constant, the interior slice, the boundary pin eps*psi and the admissible
    range, so a step is D from one joint F/h evaluation, the CFL bound, the
    forward-Euler update of the interior and the tripwires, which are min/max
    reductions on the new interior.
    """

    def __init__(self, prob: EpsProblem, grid: GridSpec,
                 psi_vals: Optional[np.ndarray] = None):
        if psi_vals is None:
            psi_vals = grid.sample(prob.psi)
        self.prob, self.grid = prob, grid
        self.cfl = prob.safety * min(h ** 2 for h in grid.h) / (2.0 * grid.dim)
        self.inner = (slice(1, -1),) * grid.dim
        self.pin = prob.eps * psi_vals
        ring = self.pin[~grid.interior_mask()]
        self.ring_lo, self.ring_hi = float(ring.min()), float(ring.max())
        self.lo = prob.eps * min(1.0, float(psi_vals.min()))
        self.hi = prob.u_max
        self.slack = 1e-12 * max(self.hi, 1.0)

    def diffusivity(self, values: np.ndarray):
        """D(values) and the largest stable step for it."""
        D = self.prob.diffusivity(values)
        return D, self.cfl / float(D.max())

    def step(self, values: np.ndarray, D: np.ndarray, dt: float,
             lo: float, hi: float, out: np.ndarray):
        """Write the forward-Euler update of the interior into out, whose
        boundary ring must already hold the pin; lo and hi are the extrema
        of values.  Returns the extrema of out, after raising RangeError if
        out leaves the admissible range or the interior update breaks the
        discrete maximum principle (neither can happen under the CFL bound;
        the checks are tripwires)."""
        inner = self.inner
        new = out[inner]
        np.add(values[inner], dt * D[inner] * _laplacian(values, self.grid), out=new)
        new_lo, new_hi = float(new.min()), float(new.max())
        out_lo, out_hi = min(new_lo, self.ring_lo), max(new_hi, self.ring_hi)
        slack = self.slack
        if out_lo < self.lo - slack or out_hi > self.hi + slack:
            raise RangeError(
                f"field left [{self.lo:g}, {self.hi:g}]: range [{out_lo:g}, {out_hi:g}]"
            )
        if new_hi > hi + slack or new_lo < lo - slack:
            raise RangeError("discrete maximum principle violated")
        return out_lo, out_hi


def cfl_dt(prob: EpsProblem, grid: GridSpec, values: np.ndarray) -> float:
    """Largest stable explicit step for the current state: the kernel's one
    CFL bound, safety * min(h)^2 / (2 * dim * max D)."""
    return _Kernel(prob, grid).diffusivity(values)[1]


def step_explicit(fld: Field, prob: EpsProblem, grid: GridSpec, dt: float,
                  psi_vals: Optional[np.ndarray] = None) -> Field:
    """One forward-Euler update with the boundary ring re-pinned, through the
    same kernel that solve marches with.

    Raises CflError when dt exceeds the stability bound and RangeError if the
    update leaves the admissible range or breaks the discrete max principle
    (neither can happen under the CFL bound; the checks are tripwires).
    """
    kern = _Kernel(prob, grid, psi_vals)
    values = fld.values
    D, bound = kern.diffusivity(values)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt:g} exceeds stability bound {bound:g}")
    new = kern.pin.copy()
    kern.step(values, D, dt, float(values.min()), float(values.max()), new)
    return Field(values=new, time=fld.time + dt)


@dataclass
class SolveTrace:
    """Snapshots plus per-step bookkeeping from one solve."""

    grid: GridSpec
    prob: EpsProblem
    times: np.ndarray            # snapshot times, first 0, last T
    fields: list                 # arrays, one per snapshot
    dissipation: np.ndarray      # cumulative transformed-derivative integral
    dt_history: np.ndarray
    max_u_history: np.ndarray
    boundary_transient: float
    n_steps: int

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def field_at(self, t: float) -> np.ndarray:
        """Field linearly interpolated between stored snapshots."""
        if not (0.0 <= t <= self.T * (1 + 1e-12)):
            raise DomainError(f"t={t:g} outside [0, {self.T:g}]")
        t = min(t, self.T)
        idx = int(np.searchsorted(self.times, t))
        if idx < len(self.times) and self.times[idx] == t:
            return self.fields[idx].copy()
        t0, t1 = self.times[idx - 1], self.times[idx]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.fields[idx - 1] + w * self.fields[idx]

    def dissipation_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.dissipation))


def _resolve_snapshots(snapshot_times, T: float) -> np.ndarray:
    if snapshot_times is None:
        snapshot_times = 33
    if isinstance(snapshot_times, (int, np.integer)):
        if snapshot_times < 2:
            raise DomainError("need at least snapshots at 0 and T")
        return np.linspace(0.0, T, int(snapshot_times))
    times = np.asarray(snapshot_times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0):
        raise DomainError("snapshot times must be strictly increasing")
    if abs(times[0]) > 1e-15 or abs(times[-1] - T) > 1e-12 * max(T, 1.0):
        raise DomainError("snapshot times must start at 0 and end at T")
    times[0], times[-1] = 0.0, T
    return times


def solve(prob: EpsProblem, grid: GridSpec, T: float,
          snapshot_times: Union[None, int, Sequence[float]] = None) -> SolveTrace:
    """March the explicit scheme to time T with adaptive CFL-bounded steps.

    Snapshots are linearly interpolated in time onto the requested instants,
    so step placement never depends on the output schedule.  Every step goes
    through the shared kernel (one joint F/h evaluation for D, the CFL
    bound, the update and the per-step tripwires), so a range or
    maximum-principle violation raises RangeError at the step where it
    happens.  The cumulative dissipation integral uses the same diffusivity
    evaluation as the step itself, which is what makes the energy identity
    check tight.
    """
    if T <= 0:
        raise DomainError("final time must be positive")
    snap_times = _resolve_snapshots(snapshot_times, T)

    g_vals, psi_vals = prob.sample_on(grid)
    kern = _Kernel(prob, grid, psi_vals)
    inner = kern.inner
    u0 = prob.eps + g_vals
    u = kern.pin.copy()
    u[inner] = u0[inner]
    boundary_transient = float(np.abs(u0 - u).max())
    # two buffers whose boundary rings hold the pin; each step writes the
    # interior of one from the other
    spare = u.copy()

    vol = grid.cell_volume
    fields = []
    snap_diss = np.zeros(len(snap_times))
    next_snap = 0
    if snap_times[0] == 0.0:
        fields.append(u.copy())
        next_snap = 1

    t = 0.0
    diss = 0.0
    u_lo, u_hi = float(u.min()), float(u.max())
    dt_hist, max_hist = [], []
    max_steps = 50_000_000
    for _ in range(max_steps):
        if t >= T - 1e-15 * T:
            break
        D, dt = kern.diffusivity(u)
        dt = min(dt, T - t)
        new = spare
        u_lo, u_hi = kern.step(u, D, dt, u_lo, u_hi, out=new)

        du = new[inner] - u[inner]
        diss_old = diss
        # integrand [sqrt(h/(F+eps)) * du/dt]^2 = (du/dt)^2 / D, per-step value
        diss += float(np.sum(du * du / D[inner])) / dt * vol

        t_new = t + dt
        while next_snap < len(snap_times) and snap_times[next_snap] <= t_new + 1e-15 * T:
            ts = snap_times[next_snap]
            w = (ts - t) / dt
            fields.append(u + w * (new - u))
            snap_diss[next_snap] = diss_old + w * (diss - diss_old)
            next_snap += 1
        dt_hist.append(dt)
        max_hist.append(u_hi)
        spare, u = u, new
        t = t_new
    else:
        raise CflError("step budget exhausted before reaching T")

    if next_snap < len(snap_times):
        fields.append(u.copy())
        snap_diss[next_snap] = diss
        next_snap += 1
    assert next_snap == len(snap_times), "snapshot schedule not exhausted"

    return SolveTrace(grid=grid, prob=prob, times=snap_times, fields=fields,
                      dissipation=snap_diss, dt_history=np.asarray(dt_hist),
                      max_u_history=np.asarray(max_hist),
                      boundary_transient=boundary_transient,
                      n_steps=len(dt_hist))


def grad_energy(values: np.ndarray, grid: GridSpec) -> float:
    """Integral of |grad u|^2, centered differences inside, one-sided at the
    edges."""
    comps = []
    h = grid.h
    if grid.dim == 1:
        gx = np.empty_like(values)
        gx[1:-1] = (values[2:] - values[:-2]) / (2.0 * h[0])
        gx[0] = (values[1] - values[0]) / h[0]
        gx[-1] = (values[-1] - values[-2]) / h[0]
        comps.append(gx)
    else:
        gx = np.empty_like(values)
        gx[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * h[0])
        gx[0, :] = (values[1, :] - values[0, :]) / h[0]
        gx[-1, :] = (values[-1, :] - values[-2, :]) / h[0]
        gy = np.empty_like(values)
        gy[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * h[1])
        gy[:, 0] = (values[:, 1] - values[:, 0]) / h[1]
        gy[:, -1] = (values[:, -1] - values[:, -2]) / h[1]
        comps.extend([gx, gy])
    return float(sum(np.sum(c * c) for c in comps)) * grid.cell_volume


def energy_identity_residual(trace: SolveTrace, tau: Optional[float] = None) -> float:
    """Relative defect of the gradient-energy identity at time tau.

    Meaningful when psi is time-independent (always true here) so the
    boundary term vanishes.  Expected O(h^2 + dt) small for smooth humps;
    kinked humps add a transient contribution decaying like sqrt(dt).
    """
    if tau is None:
        tau = trace.T
    E0 = grad_energy(trace.fields[0], trace.grid)
    Etau = grad_energy(trace.field_at(tau), trace.grid)
    lhs = 2.0 * trace.dissipation_at(tau) + Etau
    return abs(lhs - E0) / max(E0, trace.prob.eps)


@dataclass
class SweepResult:
    eps_values: np.ndarray
    finals: list
    distances: np.ndarray  # L1 gaps between consecutive final fields

    def is_cauchy(self) -> bool:
        return bool(np.all(np.diff(self.distances) < 0.0))


def eps_sweep(prob: EpsProblem, grid: GridSpec, T: float,
              eps_values: Sequence[float],
              snapshot_times: Union[None, int, Sequence[float]] = 2) -> SweepResult:
    """Re-solve the same problem over a decreasing ladder of floors and
    report L1 gaps between consecutive final-time fields."""
    eps_values = np.asarray(eps_values, dtype=float)
    if eps_values.ndim != 1 or len(eps_values) < 2:
        raise DomainError("need at least two floor values")
    finals = []
    for e in eps_values:
        p = EpsProblem(table=prob.table, eps=float(e), g=prob.g, psi=prob.psi,
                       u_max=prob.u_max, safety=prob.safety,
                       support_tol_factor=prob.support_tol_factor,
                       omega_prime=prob.omega_prime)
        finals.append(solve(p, grid, T, snapshot_times).fields[-1])
    vol = grid.cell_volume
    distances = np.array([
        float(np.sum(np.abs(a - b))) * vol for a, b in zip(finals, finals[1:])
    ])
    return SweepResult(eps_values=eps_values, finals=finals, distances=distances)
