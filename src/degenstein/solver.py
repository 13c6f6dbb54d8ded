"""Solver for the regularized degenerate diffusion problem.

The evolution is quasilinear and nondivergent: the time weight h and the
diffusion weight F from a coefficient table combine into the pointwise
diffusivity D(u) = (F(u) + eps)/h(u), and u_t = D(u) * lap(u) is marched
with a Dirichlet pin eps*psi on the boundary ring of cells.  Every step
keeps the discrete maximum principle; a clamp event is an error, never a
silent fix.

There are two step kernels behind one interface and one time loop,
`_march`; which one runs is fixed by the caller, not by an option.
`_Kernel` is forward Euler, and `solve`, `step_explicit` and `cfl_dt` go
through it: one CFL formula, one update, under whose bound every update is
a convex combination of neighbors.  `_ImplicitKernel` is lagged backward
Euler, and `eps_sweep` marches the floor ladder with it: each step solves
(I - dt*diag(D(u^n))*lap_h) u^{n+1} = u^n by batched parallel cyclic
reduction (`_pcr`), an M-matrix solve for any dt, with steps 32 times the
forward-Euler limit at each rung's D(max u).  Both check the range and
maximum-principle tripwires on every step, so a march raises RangeError at
the step that breaks them.  D comes from one joint evaluation of the F and
h columns per step (`CoefficientTable.eval` with a tuple): one log, one
padded gather of both columns' cubics, one Horner pass and one exp.

The kernels and the loop carry a leading batch axis of rungs: problems
that share the table, grid, g, psi, u_max and safety and differ only in
the floor eps.  `eps_sweep` marches its whole ladder in lock step, so each
numpy call serves every rung, and `solve` is the march of a stack of one.
eps is a per-rung column, so D = (F + eps)/h broadcasts; each rung keeps
its own time, step (capped at T - t), tripwires, snapshots and dissipation
sum, and leaves the stack at the step where it reaches T.  Each rung of a
lock-step march equals its own one-rung march of the same kernel bit for
bit.

The explicit kernel steps only the active window, the bounding box of the
cells that differ from their rung's floor, plus one cell, over all rungs:
the localized solution leaves most of the grid at eps, and there the
update is exactly zero, since eps - 2*eps + eps == 0.0 in IEEE arithmetic.
Skipping those cells, or stepping a cell that is inside another rung's box
but at this rung's floor, changes no bit of the result
(`SolveTrace.cell_updates` counts the cells stepped).  The implicit kernel
couples every interior cell and solves them all.

The solver also accumulates the dissipation integral of the transformed time
derivative, which lets the gradient-energy identity

    2 * int_0^tau int [Ht~]^2 + grad-energy(tau) = grad-energy(0)

be checked after the fact; the factor 2 is what the identity's own
derivation produces (halving it leaves a residual equal to the dissipated
fraction, which would not vanish under refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


BUMP_SHAPES = ("tent", "cos2")


def bump(center, radius: float, height: float, shape: str = "tent") -> Callable:
    """Compactly supported initial hump.

    'tent' is the piecewise-linear cone; 'cos2' is the C^1 cosine-squared
    hump, useful when a kink-free gradient is wanted.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if radius <= 0 or height <= 0:
        raise DomainError("bump radius and height must be positive")
    if shape not in BUMP_SHAPES:
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

    def diffusivity(self, values: np.ndarray, eps=None,
                    bounds: Optional[tuple] = None) -> np.ndarray:
        """D = (F + eps)/h at values.  eps defaults to this problem's floor;
        a stack of fields takes a column of floors, one per field.  bounds,
        when given, hold every value (see `CoefficientTable.eval`)."""
        F, h = self.table.eval(("F", "h"), values, bounds)
        F += self.eps if eps is None else eps
        F /= h
        return F


def _laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Five-point (1-D: three-point) Laplacian on the interior cells only, of
    one field or of a stack of fields along a leading axis."""
    h = grid.h
    if grid.dim == 1:
        return (values[..., :-2] - 2.0 * values[..., 1:-1] + values[..., 2:]) / h[0] ** 2
    return (
        (values[..., :-2, 1:-1] - 2.0 * values[..., 1:-1, 1:-1]
         + values[..., 2:, 1:-1]) / h[0] ** 2
        + (values[..., 1:-1, :-2] - 2.0 * values[..., 1:-1, 1:-1]
           + values[..., 1:-1, 2:]) / h[1] ** 2
    )


class _Kernel:
    """The explicit step, shared by `solve`, step_explicit and cfl_dt, and
    the base of `_ImplicitKernel`.

    A kernel steps a stack of fields, one per rung, on one grid: rungs are
    problems that differ only in the floor eps, and every array it handles
    has a leading rung axis.  It holds the CFL constant, the boundary pins
    eps*psi and the admissible ranges, so a step is D from one joint F/h
    evaluation, each rung's CFL bound, the forward-Euler update and each
    rung's tripwires, which are min/max reductions on the new values.

    Only the active window is stepped: the per-axis bounding box of the
    cells whose value differs from its rung's floor, over all rungs, grown
    by one cell on each side and clipped to the interior.  Skipping the
    cells outside it is exact: such a cell and its neighbors all hold their
    rung's eps, the difference eps - 2*eps + eps is 0.0 in IEEE arithmetic
    (2*eps and eps - 2*eps are exact), so forward Euler leaves the cell at
    eps bit for bit.  The same holds for a cell inside the window that is
    outside the box its own rung alone would have: it and its neighbors
    hold that rung's eps, so its update is 0.0 too, and each rung's fields
    are those of its own one-rung march.  The first diffusivity call
    evaluates the whole grid (which is also the domain check of the ring)
    and fixes the window; later calls grow the box by one cell on each side
    whose edge row (1-D: edge cell) has left its floor in some rung, then
    evaluate D on the window plus its one-cell halo only.  The box never
    shrinks, also when rungs leave the stack.  A hump that fills the box, or
    a ring pin eps*psi that differs from eps, makes the window the whole
    interior and the step the full-grid one.

    Each rung's CFL maximum of D over the slab is its full-grid one without
    any constant for the cells outside: every cell that differs from the
    rung's eps lies in the slab, the cells outside it hold eps, and while
    the rung's own box leaves interior cells out, its edge on that side
    holds eps too, so D(eps) is in the slab (D need not be monotone, so it
    has to be).  The cells a wider window adds hold eps and add only that
    value again.

    Per-rung scalars (floors, steps, extrema) are Python lists: at a handful
    of rungs a loop over floats costs less than a numpy call on a few
    numbers, so a stack of one pays little for the rung axis.
    """

    def __init__(self, probs: Sequence[EpsProblem], grid: GridSpec,
                 psi_vals: Optional[np.ndarray] = None):
        prob = probs[0]
        if psi_vals is None:
            psi_vals = grid.sample(prob.psi)
        self.prob, self.grid, self.psi_vals = prob, grid, psi_vals
        self.cfl = prob.safety * min(h ** 2 for h in grid.h) / (2.0 * grid.dim)
        dim = grid.dim
        self.axes = tuple(range(1, dim + 1))        # the grid axes of a stack
        self.col = (-1,) + (1,) * dim               # shape of a rung column
        self.inner = (slice(None),) + (slice(1, -1),) * dim
        self.ring = ~grid.interior_mask()
        self.hi = prob.u_max
        self.slack = 1e-12 * max(self.hi, 1.0)
        self.bounds = None           # window [a, b) per axis, from the first call
        # the update, then du^2/D, over the interior; 0.0 outside the
        # window, so the dissipation sum runs in the full-grid order
        self.work = np.zeros((len(probs),) + tuple(m - 2 for m in grid.n))
        self.w = None                # the window's view of work
        self.cell_updates = 0        # per rung: every rung steps the window
        self._set_rungs(np.array([p.eps for p in probs]))

    def _set_rungs(self, eps: np.ndarray) -> None:
        """Everything that depends on the floors of the stack's rungs."""
        self.eps, self.eps_col = eps, eps.reshape(self.col)
        self.pin = self.eps_col * self.psi_vals
        ring = self.pin[:, self.ring]
        psi_lo = min(1.0, float(self.psi_vals.min()))
        floors = eps.tolist()
        # per rung: floor, lower end of the admissible range, ring extrema
        self.rungs = list(zip(floors, [e * psi_lo for e in floors],
                              ring.min(axis=1).tolist(),
                              ring.max(axis=1).tolist()))
        self.dt = np.zeros(eps.size)             # the rungs' steps
        self.dt_col = self.dt.reshape(self.col)
        if self.bounds is not None:
            self.w = self.work[self.win_inner]
            self._index_edges()

    def keep(self, rows) -> None:
        """Drop every rung but the stack rows listed in rows."""
        self.work = self.work[rows]
        self._set_rungs(self.eps[rows])

    def _set_window(self, bounds):
        self.bounds = bounds
        win = tuple(slice(a, b) for a, b in bounds)
        every = (slice(None),)
        self.win = every + win
        self.slab = every + tuple(slice(a - 1, b + 1) for a, b in bounds)
        self.win_inner = every + tuple(slice(a - 1, b - 1) for a, b in bounds)
        self.w = self.work[self.win_inner]
        self.size = int(np.prod([b - a for a, b in bounds]))
        n = self.grid.n
        self.partial = any(a > 1 or b < m - 1 for (a, b), m in zip(bounds, n))
        # edge rows that can still grow: (axis, side, stack index of the
        # row), and the flat grid indices of all their cells for the one
        # per-step test
        self.edges = []
        edge_cells = np.zeros(n, dtype=bool)
        for k, ((a, b), m) in enumerate(zip(bounds, n)):
            for side, at, room in ((0, a, a > 1), (1, b - 1, b < m - 1)):
                if room:
                    row = win[:k] + (at,) + win[k + 1:]
                    self.edges.append((k, side, every + row))
                    edge_cells[row] = True
        self.edge_idx = np.flatnonzero(edge_cells)
        self._index_edges()

    def _index_edges(self) -> None:
        """The edge cells of every rung in a flat stack, and their floors as
        a list of floats, which the per-step test compares with == (NaN
        differs)."""
        cells = int(np.prod(self.grid.n))
        rows = np.arange(self.eps.size)[:, None] * cells
        self.edge_take = (rows + self.edge_idx).ravel()
        self.edge_floor = np.repeat(self.eps, self.edge_idx.size).tolist()

    def _open(self, values: np.ndarray) -> None:
        """Fix the window for values from the cells that differ from their
        rung's eps."""
        off = (values != self.eps_col).any(axis=0)
        bounds = []
        for k, m in enumerate(self.grid.n):
            others = tuple(j for j in range(off.ndim) if j != k)
            hit = np.flatnonzero(off.any(axis=others))
            # nothing off the floor: one interior cell stands in for the box
            a, b = (int(hit[0]), int(hit[-1])) if hit.size else (1, 0)
            bounds.append((max(1, a - 1), min(m - 1, b + 2)))
        self._set_window(bounds)

    def _grow(self, values: np.ndarray) -> None:
        floors = self.eps_col[..., 0]     # against a row of every rung
        hits = [(k, side) for k, side, edge in self.edges
                if (values[edge] != floors).any()]
        if hits:
            bounds = [list(ab) for ab in self.bounds]
            for k, side in hits:
                bounds[k][side] += 1 if side else -1
            self._set_window([tuple(ab) for ab in bounds])

    def diffusivity(self, values: np.ndarray, lo: Optional[list] = None,
                    hi: Optional[list] = None):
        """D on the window plus its halo for a stack of fields, and each
        rung's largest stable step.  After the first call, values must be
        this kernel's last step output, and lo, hi the rungs' extrema of it
        (the ones the tripwires return), which spare the table's domain
        check a scan of the slab."""
        if self.bounds is None:
            D = self.prob.diffusivity(values, self.eps_col)
            self._open(values)
            top, D = np.maximum.reduce(D, self.axes), D[self.slab]
        else:
            if self.edges and \
                    values.take(self.edge_take).tolist() != self.edge_floor:
                self._grow(values)
            D = self.prob.diffusivity(values[self.slab], self.eps_col,
                                      (min(lo), max(hi)))
            top = np.maximum.reduce(D, self.axes)
        cfl = self.cfl
        return D, [cfl / m for m in top.tolist()]

    def step(self, values: np.ndarray, D: np.ndarray, dts: list, lo: list,
             hi: list, out: np.ndarray):
        """Write the forward-Euler update of the window into out, whose
        other cells must already hold the pins on the boundary ring and the
        values elsewhere; D is the diffusivity call's, dts, lo and hi are
        the rungs' steps and extrema of values.

        Returns the rungs' extrema of out and their sums of du^2/D over the
        interior (the dissipation integrand of the step), after raising
        RangeError if a rung's out leaves its admissible range or its
        interior update breaks the discrete maximum principle (neither can
        happen under the CFL bound; the checks are tripwires).
        """
        self.dt[:] = dts
        old, new, Dw, w = values[self.win], out[self.win], D[self.inner], self.w
        np.multiply(Dw, self.dt_col, out=w)
        w *= _laplacian(values[self.slab], self.grid)
        np.add(old, w, out=new)
        self.cell_updates += self.size
        return self._finish(old, new, Dw, lo, hi)

    def _finish(self, old, new, Dw, lo, hi):
        """Each rung's tripwires on the window's new values, then its
        extrema and its sum of du^2/D; see `step`."""
        w = self.w
        new_lo = np.minimum.reduce(new, self.axes).tolist()
        new_hi = np.maximum.reduce(new, self.axes).tolist()
        out_lo, out_hi = [], []
        partial, top, slack = self.partial, self.hi, self.slack
        for (eps, floor, ring_lo, ring_hi), n_lo, n_hi, p_lo, p_hi in zip(
                self.rungs, new_lo, new_hi, lo, hi):
            if partial:  # the interior cells outside the window hold eps
                n_lo, n_hi = min(n_lo, eps), max(n_hi, eps)
            o_lo, o_hi = min(n_lo, ring_lo), max(n_hi, ring_hi)
            # negated comparisons, so NaN trips them too
            if not (o_lo >= floor - slack and o_hi <= top + slack):
                raise RangeError(
                    f"eps={eps:g}: field left [{floor:g}, {top:g}]: "
                    f"range [{o_lo:g}, {o_hi:g}]")
            if not (n_hi <= p_hi + slack and n_lo >= p_lo - slack):
                raise RangeError(f"eps={eps:g}: discrete maximum principle "
                                 f"violated")
            out_lo.append(o_lo)
            out_hi.append(o_hi)
        # du^2/D with du the rounded update, in the full-grid order
        np.subtract(new, old, out=w)
        w *= w
        w /= Dw
        return out_lo, out_hi, np.add.reduce(self.work, self.axes).tolist()


def _pcr(lo: np.ndarray, diag: np.ndarray, up: np.ndarray,
         rhs: np.ndarray) -> np.ndarray:
    """Solve diag[i] x[i] - lo[i] x[i-1] - up[i] x[i+1] = rhs[i] along the
    first axis, batched over the others, by parallel cyclic reduction;
    lo[0] and up[-1] must be 0.

    A pass with stride s adds lo[i]/diag[i-s] times row i-s and
    up[i]/diag[i+s] times row i+s to row i, which removes x[i-s] and
    x[i+s] and couples row i to rows i-2s and i+2s; after ceil(log2 n)
    passes every row is diagonal.  For an M-matrix (lo, up >= 0 and
    diag >= lo + up) every coefficient stays nonnegative.  The rows live
    in buffers padded on both sides by the largest stride (lo, up and rhs
    with 0, diag with 1), so a row beyond the ends contributes nothing and
    each pass is twelve elementwise numpy calls into the other set of
    buffers.  Nothing mixes batch members, so each one's solution does not
    depend on the others."""
    n = rhs.shape[0]
    pad = 1 << max(n - 1, 1).bit_length() >> 1     # the largest stride
    core = slice(pad, pad + n)
    # two sets of padded lo, diag, up and rhs rows
    bufs = np.zeros((2, 4, n + 2 * pad) + rhs.shape[1:])
    bufs[:, 1] = 1.0
    bufs[0, :, core] = lo, diag, up, rhs
    k_lo, k_up, tmp = (np.empty(rhs.shape) for _ in range(3))
    s = 1
    while s < n:
        (lo, diag, up, rhs), (lo_n, diag_n, up_n, rhs_n) = bufs
        prev, next_ = slice(pad - s, pad - s + n), slice(pad + s, pad + s + n)
        np.divide(lo[core], diag[prev], out=k_lo)
        np.divide(up[core], diag[next_], out=k_up)
        d = rhs_n[core]
        np.multiply(rhs[prev], k_lo, out=d)
        d += rhs[core]
        d += np.multiply(rhs[next_], k_up, out=tmp)
        g = diag_n[core]
        np.multiply(up[prev], k_lo, out=g)
        np.subtract(diag[core], g, out=g)
        g -= np.multiply(lo[next_], k_up, out=tmp)
        np.multiply(lo[prev], k_lo, out=lo_n[core])
        np.multiply(up[next_], k_up, out=up_n[core])
        bufs = bufs[::-1]
        s *= 2
    _, diag, _, rhs = bufs[0]
    return rhs[core] / diag[core]


def _solve_lines(u: np.ndarray, r: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> np.ndarray:
    """x with (1 + 2 r[i]) x[i] - r[i] (x[i-1] + x[i+1]) = u[i] along the
    first axis, where x beyond the ends is held at left and right: one
    backward-Euler sub-step of lines whose cells have r = dt*D/h^2.  Each
    row is divided by 1 + 2r first, so no coefficient exceeds 1 even where
    r is near 1e35."""
    q = 1.0 + 2.0 * r
    off = r / q
    d = u / q
    d[0] += off[0] * left
    d[-1] += off[-1] * right
    lo, up = off.copy(), off
    lo[0] = 0.0
    up[-1] = 0.0
    return _pcr(lo, np.ones_like(d), up, d)


# the implicit step is this many times the forward-Euler limit at a rung's
# bulk diffusivity
_IMPLICIT_C = 32.0


class _ImplicitKernel(_Kernel):
    """Lagged backward Euler over the whole interior, behind the explicit
    kernel's calls: `eps_sweep` marches the floor ladder with it.

    A step solves (I - dt*diag(D(u^n))*lap_h) u^{n+1} = u^n with the ring
    held at eps*psi.  In 1-D that is one tridiagonal system per rung; in
    2-D, Lie splitting solves along x on every row and then along y on
    every column, both with D lagged at u^n.  Every system of a step is
    solved in one batch by `_pcr`.  Each matrix is an M-matrix, so the
    discrete maximum principle holds for any dt, and the explicit kernel's
    range and maximum-principle tripwires, with their slack of 1e-12 of
    max(u_max, 1), stand for roundoff below the floor: nothing is clamped.

    A rung's step is _IMPLICIT_C * min(h)^2 / (2 * dim * D(max u)), capped
    at T - t by the march: a multiple of the forward-Euler limit at the
    rung's bulk diffusivity, not at its max D, which for the kinds whose h
    collapses faster than eps sits at the floor.  The error is first order
    in that step.  Every operation is elementwise within a rung or a
    reduction over one rung's cells, so each rung of a stack is bit for bit
    its own one-rung march."""

    def __init__(self, probs: Sequence[EpsProblem], grid: GridSpec,
                 psi_vals: Optional[np.ndarray] = None):
        super().__init__(probs, grid, psi_vals)
        self.cfl = _IMPLICIT_C * min(h ** 2 for h in grid.h) / (2.0 * grid.dim)
        self._set_window([(1, m - 1) for m in grid.n])
        # a line's pins, once its axis is moved last
        self.lines = (slice(None),) + (slice(1, -1),) * (grid.dim - 1)

    def diffusivity(self, values: np.ndarray, lo: list, hi: list):
        """D over the whole grid for a stack of fields, and each rung's
        step from D at its max u; lo and hi are the rungs' extrema of
        values.  The evaluation at the maxima scans them, so a NaN in a
        field, which makes its extrema NaN, raises DomainError there."""
        D = self.prob.diffusivity(values, self.eps_col, (min(lo), max(hi)))
        top = self.prob.diffusivity(np.array(hi), self.eps)
        cfl = self.cfl
        return D, [cfl / m for m in top.tolist()]

    def step(self, values: np.ndarray, D: np.ndarray, dts: list, lo: list,
             hi: list, out: np.ndarray):
        """Write the backward-Euler step of the interior into out, whose
        ring must hold the pins; otherwise as `_Kernel.step`."""
        self.dt[:] = dts
        old, new, Dw = values[self.win], out[self.win], D[self.inner]
        u = old
        for k, h in enumerate(self.grid.h):
            ax = k + 1
            pin = np.moveaxis(self.pin, ax, -1)[self.lines]
            x = _solve_lines(np.moveaxis(u, ax, 0),
                             np.moveaxis(Dw * (self.dt_col / h ** 2), ax, 0),
                             pin[..., 0], pin[..., -1])
            u = np.moveaxis(x, 0, ax)
        new[...] = u
        self.cell_updates += self.size
        return self._finish(old, new, Dw, lo, hi)


def cfl_dt(prob: EpsProblem, grid: GridSpec, values: np.ndarray) -> float:
    """Largest stable explicit step for the current state: the kernel's one
    CFL bound, safety * min(h)^2 / (2 * dim * max D)."""
    return _Kernel([prob], grid).diffusivity(values[None])[1][0]


def step_explicit(values: np.ndarray, prob: EpsProblem, grid: GridSpec,
                  dt: float, psi_vals: Optional[np.ndarray] = None) -> np.ndarray:
    """One forward-Euler update with the boundary ring re-pinned, through the
    same kernel that solve marches with.

    Raises CflError when dt exceeds the stability bound and RangeError if the
    update leaves the admissible range or breaks the discrete max principle
    (neither can happen under the CFL bound; the checks are tripwires).
    """
    kern = _Kernel([prob], grid, psi_vals)
    values = values[None]
    D, (bound,) = kern.diffusivity(values)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt:g} exceeds stability bound {bound:g}")
    new = kern.pin.copy()
    new[kern.inner] = values[kern.inner]
    kern.step(values, D, [dt], [float(values.min())], [float(values.max())],
              new)
    return new[0]


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
    cell_updates: int = 0        # interior cell updates computed (active window)
    # table columns evaluated on the stored snapshots, kept by the
    # localization layer (the snapshots are read-only once solved)
    _table_states: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

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
    times = np.array(snapshot_times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0):
        raise DomainError("snapshot times must be strictly increasing")
    if abs(times[0]) > 1e-15 or abs(times[-1] - T) > 1e-12 * max(T, 1.0):
        raise DomainError("snapshot times must start at 0 and end at T")
    times[0], times[-1] = 0.0, T
    return times


MAX_STEPS = 50_000_000


def _check_budget(kern: _Kernel, D: np.ndarray, bound: list, T: float) -> None:
    """CflError when a rung's CFL step projects more than MAX_STEPS steps to
    T, naming its max D and the cell where it occurs.

    The projection is T over the first step's CFL bound alone.  Where max
    D falls as the solution evolves (D peaking at the peak of u, which
    decays), later steps are longer, so a run rejected here might have
    finished within MAX_STEPS steps."""
    for r, b in enumerate(bound):
        if T > MAX_STEPS * b:            # False for a NaN step
            at = np.unravel_index(int(np.argmax(D[r])), D[r].shape)
            # the slab starts one cell before the window on each axis
            cell = tuple(int(i) + a - 1 for i, (a, _) in zip(at, kern.bounds))
            x = ", ".join(f"{kern.grid.axis_centers(k)[c]:.4g}"
                          for k, c in enumerate(cell))
            raise CflError(
                f"eps={kern.eps[r]:g}: max D = {float(D[r][at]):.3g} at cell "
                f"{cell}, x = ({x}): CFL steps of {b:.3g} project "
                f"{T / b if b > 0 else math.inf:.3g} steps to T={T:g}, over "
                f"the budget of {MAX_STEPS}")


def _march(probs: Sequence[EpsProblem], grid: GridSpec, T: float,
           snapshot_times: Union[None, int, Sequence[float]],
           kernel: type = _Kernel) -> list:
    """March a stack of rungs in lock step to time T with the step kernel
    `kernel` (`_Kernel`, forward Euler, or `_ImplicitKernel`, lagged
    backward Euler); one SolveTrace per rung, in the order given.

    The rungs must differ only in eps (share the table, g, psi, u_max and
    safety; `eps_sweep` builds them with `dataclasses.replace`), since the
    kernel holds the first rung's.  Each rung's trace is the one its own
    one-rung march with the same kernel gives, bit for bit; its
    cell_updates counts the cells of the shared window it stepped.  After
    the first step, a rung whose step projects more than MAX_STEPS steps
    to T raises CflError.
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"final time must be positive and finite, got {T!r}")
    snap_times = _resolve_snapshots(snapshot_times, T)
    snaps, n_snap, tol = snap_times.tolist(), len(snap_times), 1e-15 * T

    g_vals, psi_vals = probs[0].sample_on(grid)
    for p in probs[1:]:
        p.sample_on(grid)            # each rung's own range checks
    kern = kernel(probs, grid, psi_vals)
    inner, axes = kern.inner, kern.axes
    u0 = kern.eps_col + g_vals
    u = kern.pin.copy()
    u[inner] = u0[inner]
    boundary_transient = np.abs(u0 - u).max(axis=axes).tolist()
    # two stacks whose boundary rings hold the pins; each step writes the
    # interior of one from the other
    spare = u.copy()

    vol = grid.cell_volume
    n = len(probs)
    fields = [[f.copy()] for f in u]
    snap_diss = [np.zeros(n_snap) for _ in range(n)]
    dt_hist = [[] for _ in range(n)]
    max_hist = [[] for _ in range(n)]
    traces = [None] * n
    # per stack row: the rung it holds, its time, dissipation sum, next
    # snapshot and that snapshot's time (inf once all are taken); the steps
    # and maxima since the stack last changed, a row of the stack per step
    # in flat lists of floats (no per-step containers for the collector)
    live, ts, diss, nxt = list(range(n)), [0.0] * n, [0.0] * n, [1] * n
    snaps.append(math.inf)
    due = [snaps[1]] * n
    dt_rows, hi_rows = [], []
    u_lo, u_hi = u.min(axis=axes).tolist(), u.max(axis=axes).tolist()
    t_end = T - tol
    for k in range(MAX_STEPS):
        if not live:
            break
        D, bound = kern.diffusivity(u, u_lo, u_hi)
        dts = [min(b, T - t) for b, t in zip(bound, ts)]
        new = spare
        # integrand [sqrt(h/(F+eps)) * du/dt]^2 = (du/dt)^2 / D: the step's
        # sums of du^2/D, divided by dt below
        u_lo, u_hi, sums = kern.step(u, D, dts, u_lo, u_hi, out=new)
        if not k:
            _check_budget(kern, D, bound, T)
        done = []
        for r, dt in enumerate(dts):
            t, diss_old = ts[r], diss[r]
            diss[r] = diss_new = diss_old + sums[r] / dt * vol
            ts[r] = t_new = t + dt
            while due[r] <= t_new + tol:
                w = (due[r] - t) / dt
                fields[live[r]].append(u[r] + w * (new[r] - u[r]))
                snap_diss[live[r]][nxt[r]] = diss_old + w * (diss_new - diss_old)
                nxt[r] += 1
                due[r] = snaps[nxt[r]]
            if t_new >= t_end:
                done.append(r)
        dt_rows += dts
        hi_rows += u_hi
        spare, u = u, new
        if done:
            for r, i in enumerate(live):
                dt_hist[i] += dt_rows[r::len(live)]
                max_hist[i] += hi_rows[r::len(live)]
            dt_rows, hi_rows = [], []
            for r in done:
                i = live[r]
                if nxt[r] < n_snap:
                    fields[i].append(u[r].copy())
                    snap_diss[i][nxt[r]] = diss[r]
                    nxt[r] += 1
                assert nxt[r] == n_snap, "snapshot schedule not exhausted"
                traces[i] = SolveTrace(
                    grid=grid, prob=probs[i], times=snap_times.copy(),
                    fields=fields[i], dissipation=snap_diss[i],
                    dt_history=np.asarray(dt_hist[i]),
                    max_u_history=np.asarray(max_hist[i]),
                    boundary_transient=boundary_transient[i],
                    n_steps=len(dt_hist[i]), cell_updates=kern.cell_updates)
            rows = [r for r in range(len(live)) if r not in done]
            live, ts, diss, nxt, due, u_lo, u_hi = (
                [x[r] for r in rows]
                for x in (live, ts, diss, nxt, due, u_lo, u_hi))
            if live:
                kern.keep(rows)
                u, spare = u[rows], spare[rows]
    else:
        raise CflError("step budget exhausted before reaching T")
    return traces


def solve(prob: EpsProblem, grid: GridSpec, T: float,
          snapshot_times: Union[None, int, Sequence[float]] = None) -> SolveTrace:
    """March the explicit scheme to time T with adaptive CFL-bounded steps:
    the lock-step march of a stack of one.

    Snapshots are linearly interpolated in time onto the requested instants,
    so step placement never depends on the output schedule.  Every step goes
    through the shared kernel (one joint F/h evaluation for D, the CFL
    bound, the update and the per-step tripwires), so a range or
    maximum-principle violation raises RangeError at the step where it
    happens.  The cumulative dissipation integral uses the same diffusivity
    evaluation as the step itself, which is what makes the energy identity
    check tight.  T must be positive and finite.
    """
    return _march([prob], grid, T, snapshot_times)[0]


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
    n_steps: list          # implicit steps each rung took to T

    def is_cauchy(self) -> bool:
        return bool(np.all(np.diff(self.distances) < 0.0))


def eps_sweep(prob: EpsProblem, grid: GridSpec, T: float,
              eps_values: Sequence[float]) -> SweepResult:
    """Re-solve the same problem over a decreasing ladder of floors and
    report L1 gaps between consecutive final-time fields.

    The ladder is one lock-step march of `_ImplicitKernel`, lagged
    backward Euler over the whole interior: a rung per floor, each `prob`
    with only eps replaced, all stepped by the same numpy calls, with
    snapshots at 0 and T only.  A rung's step is 32 times the
    forward-Euler limit at its D(max u), so the ladder takes tens of steps
    where `solve` takes thousands, at a first-order error in dt (about
    3e-3 of the mass against explicit finals on a 401-cell halving ladder
    from 1e-3), and the kinds whose D(eps) is near 1e33 finish too.  Each
    final field is bit for bit that of its rung's own one-rung implicit
    march, and a RangeError names the rung's eps.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if eps_values.ndim != 1 or len(eps_values) < 2:
        raise DomainError("need at least two floor values")
    rungs = [replace(prob, eps=float(e)) for e in eps_values]
    traces = _march(rungs, grid, T, 2, _ImplicitKernel)
    finals = [tr.fields[-1] for tr in traces]
    vol = grid.cell_volume
    distances = np.array([
        float(np.sum(np.abs(a - b))) * vol for a, b in zip(finals, finals[1:])
    ])
    return SweepResult(eps_values=eps_values, finals=finals,
                       distances=distances,
                       n_steps=[tr.n_steps for tr in traces])
