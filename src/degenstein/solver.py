"""Solver for the regularized degenerate diffusion problem.

The evolution is quasilinear and nondivergent: the degeneracy profile P
that the coefficient table carries, raised by the floor, is the pointwise
diffusivity D(u) = P(u) + eps, and u_t = D(u) * lap(u) is marched with a
Dirichlet pin eps*psi on the boundary ring of cells.  The profile drives
the solver; the table's columns drive the checker and the localization
certificate.  Every step keeps the discrete maximum principle; a clamp
event is an error, never a silent fix.

One time loop, `solve`, advances one field of one problem by one call of
the kernel's `step` per iteration.  A step is the whole of it: D through
`EpsProblem.diffusivity` (one call of the profile), the step bound, the
update, the range and maximum-principle tripwires, which raise RangeError
at the step that breaks them, and the step's dissipation sum.  The
tripwires keep a march within [eps*min(1, psi), M] up to roundoff, so only
a field from outside has the table's domain [s_min, M] checked, once,
where it enters the kernel.  `_Kernel` owns a march: its pair of fields,
its active window of the cells that differ from eps, which changes no bit
of the result, and forward Euler over that window.  `solve`,
`step_explicit` and `cfl_dt` are thin callers of it: one CFL formula and
one update (see SAFETY).  `eps_sweep` marches the floor ladder as one
`solve` per eps.

The solver also accumulates the dissipation integral of the transformed time
derivative, which lets the gradient-energy identity

    2 * int_0^tau int [Ht~]^2 + grad-energy(tau) = grad-energy(0)

be checked after the fact; the factor 2 is what the identity's own
derivation produces (halving it leaves a residual equal to the dissipated
fraction, which would not vanish under refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .coeffs import CoefficientTable
from .errors import CflError, DomainError, RangeError

__all__ = [
    "GridSpec",
    "EpsProblem",
    "SolveTrace",
    "SweepResult",
    "cfl_dt",
    "step_explicit",
    "solve",
    "grad_energy",
    "energy_identity_residual",
    "eps_sweep",
    "bump",
]

# The explicit step is SAFETY times min(h)^2 / (2 * dim * max D), so an
# update's weight on its own cell, 1 - dt*D*sum_k 2/h_k^2, is at least
# 1 - SAFETY >= 0 in 1-D and 2-D, also when hx != hy: every step is a
# convex combination of its stencil for any SAFETY <= 1.  Below that, SAFETY
# sets only a first-order time error: the desk final (801 cells) at 0.8 is
# 5.0e-5 of the mass from a run at 0.05, while the 401-cell error against
# the exact solution of u_t = u lap u is 2.4e-2 at any SAFETY.  Not 1: the
# highest grid mode (amplification 1 - 2*SAFETY) goes undamped and the desk
# energy residual doubles to 2.1e-2 (demos/demo_step_size.py).
SAFETY = 0.8
SUPPORT_TOL_FACTOR = 10.0   # a cell is supported above eps + this * eps


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on a box, dimension 1 or 2."""

    extent: tuple  # ((a, b),) or ((ax, bx), (ay, by))
    n: tuple       # cells per axis

    def __post_init__(self):
        if len(self.extent) not in (1, 2) or len(self.extent) != len(self.n):
            raise DomainError("extent and n must both have length 1 or 2")
        for (a, b), m in zip(self.extent, self.n):
            # b - a of two finite ends can still overflow to inf
            if not (b > a and m >= 8 and (b - a) / m < math.inf):
                raise DomainError("need b > a, a finite cell width (b - a)/m "
                                  "and at least 8 cells per axis")

    @property
    def dim(self) -> int:
        return len(self.n)

    @cached_property
    def h(self) -> tuple:
        return tuple((b - a) / m for (a, b), m in zip(self.extent, self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_centers(self, k: int) -> np.ndarray:
        (a, b), m = self.extent[k], self.n[k]
        return a + (np.arange(m) + 0.5) * (b - a) / m

    def meshgrid(self):
        return tuple(np.meshgrid(*map(self.axis_centers, range(self.dim)),
                                 indexing="ij"))

    def distance_to(self, x0) -> np.ndarray:
        """Euclidean distance of every cell center to the point x0."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.size != self.dim:
            raise DomainError(f"x0 must have {self.dim} components")
        mesh = self.meshgrid()
        return np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, x0)))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = True
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


BUMP_SHAPES = ("tent", "cos2")


def bump(center, radius: float, height: float, shape: str = "tent") -> Callable:
    """Compactly supported initial hump.

    'tent' is the piecewise-linear cone; 'cos2' is the C^1 cosine-squared
    hump, useful when a kink-free gradient is wanted.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not (radius > 0 and height > 0):
        raise DomainError("bump radius and height must be positive")
    if shape not in BUMP_SHAPES:
        raise DomainError(f"unknown bump shape '{shape}'")

    def g(*mesh):
        if len(mesh) != center.size:
            raise DomainError(f"bump center has {center.size} components, "
                              f"the grid {len(mesh)} axes")
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
    that ball).  D reads the table's profile.
    """

    table: CoefficientTable
    eps: float
    g: Union[Callable, np.ndarray, float] = 0.0
    psi: Union[Callable, np.ndarray, float] = 1.0
    omega_prime: Optional[tuple] = None

    def __post_init__(self):
        if not (0.0 < self.eps < self.u_max):
            raise DomainError("need 0 < eps < u_max")
        if self.eps < self.table.s_min:
            raise DomainError(
                f"eps={self.eps:g} below the table's smallest node "
                f"{self.table.s_min:g}; coefficients are undefined there"
            )

    @property
    def u_max(self) -> float:
        """The top of the admissible range: the table's domain edge M."""
        return self.table.M

    @property
    def support_threshold(self) -> float:
        return self.eps + SUPPORT_TOL_FACTOR * self.eps

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
        """D_eps = P(u) + eps at the array values, P the table's profile,
        for values in the table's domain.

        Why P + eps: it is uniformly parabolic (D >= eps) and tends to P
        as eps -> 0 for every profile, so the regularized problem keeps
        the degeneracy that localizes.  Adding eps to F instead, (F +
        eps)/h = P + eps/h, does not tend to P where h collapses faster
        than eps (`exp_zeta_slow`, `exp_inv`): there D(eps) grows as eps
        falls, and the floor diffuses at once.
        """
        return self.table.profile(values) + self.eps


class _Kernel:
    """The explicit march of one field of one problem, shared by `solve`,
    step_explicit and cfl_dt.

    A kernel holds the CFL constant, the boundary pins eps*psi, the
    admissible ranges and a pair of fields: u, the one it steps from, and
    a buffer whose ring holds the pins and whose other cells hold u's
    values.  u is eps + g with its ring pinned, or a copy of the values
    given, ring as given, which are stepped once (`step_explicit`): the
    buffer their step swaps out keeps their ring.  The constructor checks
    u for the grid's shape and the table's domain [s_min, M], the one
    check of a field from outside.  g and psi come from
    `EpsProblem.sample_on`, which rejects a negative psi.  Under the CFL
    bound each update is a convex combination of its stencil, at a time
    error of 5e-5 of the mass (see SAFETY).

    Only the active window is stepped: the per-axis bounding box of the
    cells whose value differs from eps, grown by one cell on each side and
    clipped to the interior.  Skipping the cells outside it is exact: such
    a cell and its neighbors all hold eps, the difference eps - 2*eps + eps
    is 0.0 in IEEE arithmetic (2*eps and eps - 2*eps are exact), so forward
    Euler leaves the cell at eps bit for bit.  The window is fixed from the
    field when the kernel is made, and again from the field whenever one
    of its edge rows has left the floor.  Every step evaluates D on the
    window plus its one-cell halo, the slab, only.  A hump that fills the
    box, or a ring pin eps*psi that differs from eps, makes the window the
    whole interior and the step the full-grid one.

    The CFL maximum of D over the slab is the full-grid one without any
    constant for the cells outside: every cell that differs from eps lies
    in the slab, the cells outside it hold eps, and while the box leaves
    interior cells out, its edge on that side holds eps too, so D(eps) is
    in the slab (D need not be monotone, so it has to be).

    A step's operands are bound once per window: h^2 per axis as a
    window-shaped array, and for both fields of the pair the views of its
    slab, its window and its window shifted down and up each axis.
    """

    def __init__(self, prob: EpsProblem, grid: GridSpec,
                 values: Optional[np.ndarray] = None):
        self.g_vals, psi_vals = prob.sample_on(grid)
        self.prob, self.grid, self.eps = prob, grid, prob.eps
        self.cfl = SAFETY * min(h ** 2 for h in grid.h) / (2.0 * grid.dim)
        self.inner = (slice(1, -1),) * grid.dim
        self.pin = self.eps * psi_vals
        ring = self.pin[~grid.interior_mask()]
        self.ring_lo, self.ring_hi = float(ring.min()), float(ring.max())
        # the lower end of the admissible range
        self.floor = self.eps * min(1.0, float(psi_vals.min()))
        self.hi = prob.u_max
        self.slack = 1e-12 * max(self.hi, 1.0)
        if values is not None and np.shape(values) != tuple(grid.n):
            raise DomainError(f"values has shape {np.shape(values)}, not the "
                              f"grid's {tuple(grid.n)}")
        self.spare = self.pin.copy()
        if values is None:
            self.spare[self.inner] = self.eps + self.g_vals[self.inner]
            self.u = self.spare.copy()
        else:
            self.u = np.array(values, dtype=float)
            self.spare[self.inner] = self.u[self.inner]
        prob.table.check_domain(self.u)   # the pins eps*psi may lie below it
        self.cell_updates = 0        # cells stepped
        self._open()

    def _open(self) -> None:
        """Fix the window from the cells of u that differ from eps, and
        bind the step's operands for it."""
        off = self.u != self.eps
        n = self.grid.n
        bounds = []
        for k, m in enumerate(n):
            others = tuple(j for j in range(off.ndim) if j != k)
            hit = np.flatnonzero(off.any(axis=others))
            # nothing off the floor: one interior cell stands in for the box
            a, b = (int(hit[0]), int(hit[-1])) if hit.size else (1, 0)
            bounds.append((max(1, a - 1), min(m - 1, b + 2)))
        win = tuple(slice(a, b) for a, b in bounds)
        slab = tuple(slice(a - 1, b + 1) for a, b in bounds)
        # the update and lap_h(u) over the window, contiguous in 1-D and
        # 2-D alike, and per axis the buffer of its second difference, h^2
        # and the window shifted one cell down and up that axis
        shape = tuple(b - a for a, b in bounds)
        self.w, self.lap = np.empty(shape), np.empty(shape)
        self.stencil = stencil = [
            (self.lap if not k else np.empty(shape), np.full(shape, h ** 2),
             *(win[:k] + (slice(a + d, b + d),) + win[k + 1:] for d in (-1, 1)))
            for k, ((a, b), h) in enumerate(zip(bounds, self.grid.h))]
        # per field of the pair: its slab, its window, and per axis (buffer,
        # h^2, window shifted down, up)
        self.src, self.dst = [
            (f[slab], f[win], [(buf, h2, f[down], f[up])
                               for buf, h2, down, up in stencil])
            for f in (self.u, self.spare)]
        self.partial = any(a > 1 or b < m - 1 for (a, b), m in zip(bounds, n))
        # the edge rows with room to grow, and the flat indices of their
        # cells for the one per-step test, which compares their values, as
        # a list of floats, with the floor's (NaN differs); in 1-D, where a
        # row is one cell, the test is two scalar compares of the edge
        # cells (one twice if only it has room), which are faster
        rows = [win[:k] + (at,) + win[k + 1:]
                for k, ((a, b), m) in enumerate(zip(bounds, n))
                for at, room in ((a, a > 1), (b - 1, b < m - 1)) if room]
        edge_cells = np.zeros(n, dtype=bool)
        for row in rows:
            edge_cells[row] = True
        self.edge_take = np.flatnonzero(edge_cells)
        self.edge_floor = [self.eps] * self.edge_take.size
        self.ends = (rows[0], rows[-1]) if len(n) == 1 and rows else None

    def bound(self) -> tuple:
        """The CFL bound of max D over the whole of u, the first cell
        where max D occurs, and max D: the first step's bound (see above),
        which `cfl_dt` returns and `_check_budget` projects."""
        D = self.prob.diffusivity(self.u)
        at = np.unravel_index(int(np.argmax(D)), D.shape)
        return self.cfl / float(D[at]), at, float(D[at])

    def step(self, lo: float, hi: float, room: float):
        """One step of u into the buffer at dt = min(CFL bound, room),
        after which the two swap: D on the window plus its halo, the
        update w = dt*D*lap_h(u), with lap_h(u) written into a
        window-sized buffer in the order of (u[i-1] - 2*u[i] + u[i+1])/h^2
        per axis, and the tripwires.  Every bit is that expression's:
        2*u[i] is formed as u[i] + u[i], which is exact, and dividing by
        the window's array of h^2 is the scalar division cell by cell.  lo,
        hi are the extrema of u, after the first step the ones the last
        step returned, which the maximum-principle tripwire compares the
        new field with.

        Returns dt, the extrema of the new field and the step's sum of
        du^2/D over dt, the dissipation integrand: one dot of w and
        lap_h(u), off the rounded (new - old)^2/D at roundoff.  RangeError
        if the new field leaves the admissible range or the update breaks
        the discrete maximum principle (tripwires: neither can happen
        under the CFL bound)."""
        u, eps, ends = self.u, self.eps, self.ends
        if ends:
            moved = u[ends[0]] != eps or u[ends[1]] != eps
        else:
            moved = self.edge_floor and \
                u.take(self.edge_take).tolist() != self.edge_floor
        if moved:
            self._open()
        (slab, old, shifts), (_, new, _) = self.src, self.dst
        D = self.prob.diffusivity(slab)
        dt = min(self.cfl / float(np.maximum.reduce(D, None)), room)
        lap, w = self.lap, self.w
        for buf, h2, down, up in shifts:
            np.add(old, old, buf)
            np.subtract(down, buf, buf)
            buf += up
            buf /= h2
        for buf, *_ in self.stencil[1:]:
            lap += buf
        np.multiply(D[self.inner], dt, w)
        w *= lap
        np.add(old, w, new)
        self.cell_updates += w.size
        self.u, self.spare = self.spare, u
        self.src, self.dst = self.dst, self.src
        top, slack = self.hi, self.slack
        n_lo = float(np.minimum.reduce(new, None))
        n_hi = float(np.maximum.reduce(new, None))
        if self.partial:  # the interior cells outside the window hold eps
            n_lo, n_hi = min(n_lo, eps), max(n_hi, eps)
        o_lo, o_hi = min(n_lo, self.ring_lo), max(n_hi, self.ring_hi)
        # negated comparisons, so NaN trips them too
        if not (o_lo >= self.floor - slack and o_hi <= top + slack):
            raise RangeError(
                f"eps={eps:g}: field left [{self.floor:g}, {top:g}]: "
                f"range [{o_lo:g}, {o_hi:g}]")
        if not (n_hi <= hi + slack and n_lo >= lo - slack):
            raise RangeError(f"eps={eps:g}: discrete maximum principle "
                             f"violated")
        return dt, o_lo, o_hi, float(np.vdot(w, lap))


def cfl_dt(prob: EpsProblem, grid: GridSpec, values: np.ndarray) -> float:
    """Largest stable explicit step for the current state: the kernel's one
    CFL bound, SAFETY * min(h)^2 / (2 * dim * max D), which keeps each
    updated cell within its stencil's min and max (see SAFETY).  Raises
    DomainError for values off the grid or outside the table's domain and
    for problem data that `EpsProblem.sample_on` rejects."""
    return _Kernel(prob, grid, values).bound()[0]


def step_explicit(values: np.ndarray, prob: EpsProblem, grid: GridSpec,
                  dt: float) -> np.ndarray:
    """One forward-Euler update with the boundary ring re-pinned to
    eps*psi, through the same kernel that solve marches with; values are
    left as they are.

    Raises DomainError when values do not have the grid's shape, leave the
    table's domain or dt is not positive (NaN included in both) and for
    problem data that `EpsProblem.sample_on` rejects; CflError when dt
    exceeds the stability bound by more than 1e-12 of it (a dt within that
    slack is stepped at the bound); RangeError as the kernel's tripwires
    do (see `_Kernel.step`).
    """
    if not dt > 0.0:   # negated, so NaN, which the step's min() drops, fails
        raise DomainError(f"time step must be positive, got {dt!r}")
    kern = _Kernel(prob, grid, values)
    u = kern.u
    bound = kern.step(float(u.min()), float(u.max()), dt)[0]
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt:g} exceeds stability bound {bound:g}")
    return kern.u


@dataclass
class SolveTrace:
    """Snapshots, one field per row of one array, plus per-step bookkeeping."""

    grid: GridSpec
    prob: EpsProblem
    times: np.ndarray            # snapshot times, first 0, last T
    fields: np.ndarray           # (len(times), *grid.n), row i at times[i]
    dissipation: np.ndarray      # cumulative transformed-derivative integral
    dt_history: np.ndarray
    max_u_history: np.ndarray
    boundary_transient: float
    n_steps: int
    cell_updates: int = 0        # interior cell updates computed (active window)

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
        """Dissipation integral linearly interpolated between stored
        snapshots, on field_at's range of t."""
        if not (0.0 <= t <= self.T * (1 + 1e-12)):
            raise DomainError(f"t={t:g} outside [0, {self.T:g}]")
        return float(np.interp(t, self.times, self.dissipation))


def _resolve_snapshots(snapshot_times, T: float) -> np.ndarray:
    if snapshot_times is None:
        snapshot_times = 33
    if isinstance(snapshot_times, (int, np.integer)):
        if snapshot_times < 2:
            raise DomainError("need at least snapshots at 0 and T")
        return np.linspace(0.0, T, int(snapshot_times))
    times = np.array(snapshot_times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0):
        raise DomainError("snapshot times must be strictly increasing")
    if abs(times[0]) > 1e-15 or abs(times[-1] - T) > 1e-12 * max(T, 1.0):
        raise DomainError("snapshot times must start at 0 and end at T")
    times[0], times[-1] = 0.0, T
    return times


MAX_STEPS = 50_000_000


def _check_budget(kern: _Kernel, T: float) -> None:
    """CflError when CFL steps from the kernel's initial field project
    more than MAX_STEPS steps to T, naming max D and the first cell where
    it occurs.  The projected dt is the first step's CFL bound (see
    `_Kernel.bound`).  Where max D falls as the solution evolves (D
    peaking at the peak of u, which decays), later steps are longer, so a
    run rejected here might have finished within MAX_STEPS steps."""
    dt, at, top = kern.bound()
    if T > MAX_STEPS * dt:               # False for a NaN bound
        cell = tuple(int(i) for i in at)
        x = ", ".join(f"{kern.grid.axis_centers(k)[c]:.4g}"
                      for k, c in enumerate(cell))
        raise CflError(
            f"eps={kern.eps:g}: max D = {top:.3g} at cell "
            f"{cell}, x = ({x}): CFL steps of {dt:.3g} project "
            f"{T / dt if dt > 0 else math.inf:.3g} steps to T={T:g}, "
            f"over the budget of {MAX_STEPS}")


def solve(prob: EpsProblem, grid: GridSpec, T: float,
          snapshot_times: Union[None, int, Sequence[float]] = None) -> SolveTrace:
    """March the explicit scheme to time T with adaptive CFL-bounded steps.

    Snapshots are linearly interpolated in time onto the requested instants,
    so step placement never depends on the output schedule.  Every step is
    one call of the shared kernel's `step`, so a range or maximum-principle
    violation raises RangeError at the step where it happens, and the
    dissipation integral uses the step's own D, which is what makes the
    energy identity check tight.  T must be positive and finite; see
    `_check_budget` for the CflError before the first step.
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"final time must be positive and finite, got {T!r}")
    snap_times = _resolve_snapshots(snapshot_times, T)
    snaps, n_snap, tol = snap_times.tolist(), len(snap_times), 1e-15 * T

    kern = _Kernel(prob, grid)
    _check_budget(kern, T)
    u = kern.u
    boundary_transient = float(np.abs(prob.eps + kern.g_vals - u).max())

    vol = grid.cell_volume
    fields = np.empty((n_snap, *u.shape))
    fields[0] = u
    snap_diss = np.zeros(n_snap)
    dt_hist, max_hist = [], []
    # the time, the dissipation sum, the next snapshot and its time (inf
    # once all are taken)
    t, diss, nxt = 0.0, 0.0, 1
    snaps.append(math.inf)
    due = snaps[1]
    u_lo, u_hi = float(u.min()), float(u.max())
    t_end = T - tol
    for _ in range(MAX_STEPS):
        # integrand (du/dt)^2 / D, which balances the gradient energy for
        # any positive D: the step's sum of du^2/D over dt
        dt, u_lo, u_hi, s = kern.step(u_lo, u_hi, T - t)
        new = kern.u
        diss_old = diss
        diss = diss_old + s * vol
        t_new = t + dt
        while due <= t_new + tol:
            w = (due - t) / dt
            fields[nxt] = u + w * (new - u)
            snap_diss[nxt] = diss_old + w * (diss - diss_old)
            nxt += 1
            due = snaps[nxt]
        dt_hist.append(dt)
        max_hist.append(u_hi)
        u, t = new, t_new
        if t >= t_end:
            break
    else:
        raise CflError("step budget exhausted before reaching T")
    if nxt < n_snap:
        fields[nxt] = u
        snap_diss[nxt] = diss
        nxt += 1
    assert nxt == n_snap, "snapshot schedule not exhausted"
    return SolveTrace(
        grid=grid, prob=prob, times=snap_times, fields=fields,
        dissipation=snap_diss, dt_history=np.asarray(dt_hist),
        max_u_history=np.asarray(max_hist),
        boundary_transient=boundary_transient, n_steps=len(dt_hist),
        cell_updates=kern.cell_updates)


def grad_energy(values: np.ndarray, grid: GridSpec) -> float:
    """Integral of |grad u|^2, centered differences inside, one-sided at the
    edges."""
    return float(_grad_energies(values[None], grid)[0])


def _grad_energies(stack: np.ndarray, grid: GridSpec) -> np.ndarray:
    """grad_energy of each field of a stack along a leading axis.  The
    differences are written in place into one stack-sized array per axis,
    and each row's squares are summed over one contiguous run of its
    cells, pairwise as numpy sums a single field, so every row is bit for
    bit its field's grad_energy."""
    total = 0.0
    for k, h in enumerate(grid.h):
        g = np.empty(stack.shape)
        # grid axis k last: centered differences inside, one-sided at the
        # edges
        v, gv = stack.swapaxes(k + 1, -1), g.swapaxes(k + 1, -1)
        np.subtract(v[..., 2:], v[..., :-2], out=gv[..., 1:-1])
        gv[..., 1:-1] /= 2.0 * h
        np.subtract(v[..., 1], v[..., 0], out=gv[..., 0])
        np.subtract(v[..., -1], v[..., -2], out=gv[..., -1])
        gv[..., 0] /= h
        gv[..., -1] /= h
        g *= g
        total = total + np.add.reduce(g.reshape(len(stack), -1), axis=1)
    return total * grid.cell_volume


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
    n_steps: list          # steps each floor's solve took to T

    def is_cauchy(self) -> Optional[bool]:
        """Whether every gap is below the one before it; None with fewer
        than two gaps, which show no trend (all() of nothing is True)."""
        d = self.distances
        return bool(np.all(np.diff(d) < 0.0)) if d.size > 1 else None


def eps_sweep(prob: EpsProblem, grid: GridSpec, T: float,
              eps_values: Sequence[float]) -> SweepResult:
    """Re-solve the same problem over a decreasing ladder of floors and
    report L1 gaps between consecutive final-time fields.

    Each floor is one `solve` of `prob` with only eps replaced, with
    snapshots at 0 and T only, so each final and step count is that
    solve's own, bit for bit.  Every floor is checked before the first is
    marched, and a RangeError names the floor's eps.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if eps_values.ndim != 1 or len(eps_values) < 2:
        raise DomainError("need at least two floor values")
    probs = [replace(prob, eps=float(e)) for e in eps_values]
    traces = [solve(p, grid, T, 2) for p in probs]
    finals = [tr.fields[-1].copy() for tr in traces]
    vol = grid.cell_volume
    distances = np.array([
        float(np.sum(np.abs(a - b))) * vol for a, b in zip(finals, finals[1:])
    ])
    return SweepResult(eps_values=eps_values, finals=finals,
                       distances=distances,
                       n_steps=[tr.n_steps for tr in traces])
