"""Free-jump master equation with concentration-dependent waiting times.

Each cell holding density u waits tau(u) between jump events and spreads a
jumping particle by a symmetric kernel of variance var(u) = tau(u) * P(u).
The synchronous approximation moves the fraction dt/tau(u) of every cell's
mass through its own kernel each step and leaves the rest in place; an
optional absorption term (m <= 0) is applied afterwards with a clamp at
zero.  In the diffusive limit the density obeys u_t = lap(P(u) u / 2), the
divergence-form cousin of the quasilinear solver equation, which is what the
cross-validation measures.

A weight row depends only on the kernel width sigma(u) (and on the reach K
of the widest occupied cell), so a step builds one row per distinct width
among the occupied cells; with a = beta every cell shares one row, and
run_master builds it once.  The truncated tail is renormalized so each row
sums to one exactly.  tau, var and the reach are evaluated on the occupied
cells only.

The moved mass is summed in one reduction.  For the occupied span [lo, hi)
a zeroed stack of 2K+2 rows covers the unfolded destinations lo-K..hi-1+K:
row 0 holds the retained mass, and row j+1 the mass sent to offset j-K,
written through one strided view that shifts it right by j columns.  numpy
reduces axis 0 of a C-contiguous array row by row, adding each row into
the running sums (pairwise summation applies only along a contiguous
reduced axis), so every cell receives its retained mass first and then its
jumps in offset order.  Mass that crosses a wall (mirrored, or wrapped with
closure='periodic') lands only on the first and last K cells.  For those
border strips the stack's terms are gathered per offset in the order left
wall, direct, right wall, that is by source, and reduced the same way; the
rest of the domain takes the single reduction.  This is the order of one
scatter-add over (offset, source) pairs, so steps are bit-reproducible and
bit for bit those of that scatter.  The stack's zeros (empty cells inside
the span, offsets that miss a cell) add +0.0 to sums of nonnegative terms,
which changes none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, RangeError, ResolutionError, StepError
from .solver import GridSpec

__all__ = [
    "JumpKernel",
    "SinkTerm",
    "power_family_kernel",
    "kernel_moments",
    "master_step",
    "run_master",
]

_GAUSS_CUT = 4.0         # truncation radius in units of sigma
_TRI_HALF_WIDTH = math.sqrt(6.0)  # triangular half-width giving variance sigma^2
# each shape's support radius in units of its width sigma
_RADIUS_IN_SIGMAS = {"gaussian_truncated": _GAUSS_CUT,
                     "triangular": _TRI_HALF_WIDTH}
KERNEL_SHAPES = tuple(_RADIUS_IN_SIGMAS)


@dataclass(frozen=True)
class JumpKernel:
    """Waiting time tau(u), jump variance var(u), and kernel shape.

    tau and var act on arrays of nonnegative densities; cells with u = 0
    never jump (tau is infinite there), which the stepper encodes as a zero
    emission fraction.
    """

    tau: Callable
    var: Callable
    shape: str

    def __post_init__(self):
        if self.shape not in KERNEL_SHAPES:
            raise DomainError(f"kernel shape must be one of {KERNEL_SHAPES}")

    def support_radius(self, u):
        """Truncation radius of the discretized kernel at densities u: the
        shape's fixed multiple of the width sqrt(var(u))."""
        return _RADIUS_IN_SIGMAS[self.shape] * np.sqrt(self.var(u))


@dataclass(frozen=True)
class SinkTerm:
    """Absorption rate m(x, u) <= 0; positivity is rejected at application
    time (consumption must dominate production)."""

    m: Callable

    def rate(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.m(x, u), dtype=float)
        vals = np.broadcast_to(vals, u.shape)
        # negated, so a NaN rate is rejected too
        if not vals.max(initial=-math.inf) <= 1e-15:
            raise DomainError("sink rate must be <= 0 everywhere")
        return vals


def power_family_kernel(beta: float, tau0: float, a: float = 1.0,
                        shape: str = "gaussian_truncated") -> JumpKernel:
    """Kernel for the power degeneracy P(u) = u^beta with tau(u) = tau0 u^-a.

    The variance follows as var(u) = tau(u) * u^beta = tau0 * u^(beta - a);
    a = beta makes the kernel width concentration-independent.
    """
    if beta <= 0 or tau0 <= 0 or a < 0:
        raise DomainError("need beta > 0, tau0 > 0, a >= 0")

    def tau(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(u > 0.0, tau0 * u ** (-a), np.inf)

    def var(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(u > 0.0, tau0 * u ** (beta - a), 0.0)

    return JumpKernel(tau=tau, var=var, shape=shape)


def _sigma_and_reach(kernel: JumpKernel, occ: np.ndarray, h: float):
    """Kernel widths sigma of the occupied densities occ (all > 0) and the
    reach K in cells of the widest support radius among them.  The radius
    is a fixed multiple of sigma, and rounding is monotone, so the largest
    is that multiple of max(sigma), bit for bit, with var evaluated once."""
    sigma = np.sqrt(kernel.var(occ))
    if sigma.shape != occ.shape:     # a var that returns one constant
        sigma = np.broadcast_to(sigma, occ.shape)
    top = _RADIUS_IN_SIGMAS[kernel.shape] * float(sigma.max(initial=0.0))
    # negated, so a NaN width is rejected too
    if not top < math.inf:
        raise DomainError(f"kernel widths must be finite, got a support "
                          f"radius of {top!r}")
    return sigma, math.ceil(top / h)


def _rows(shape: str, sigma: np.ndarray, K: int, h: float):
    """Kernel weights at offsets -K..K (times h) for each width in sigma,
    rows renormalized to 1; a zero width gives the identity row.  A row
    depends only on (shape, sigma, K, h)."""
    offsets = np.arange(-K, K + 1)
    dx = offsets * h
    if shape == "gaussian_truncated":
        with np.errstate(divide="ignore", invalid="ignore"):
            W = np.exp(-0.5 * (dx[None, :] / sigma[:, None]) ** 2)
        W = np.where(np.abs(dx)[None, :] <= _GAUSS_CUT * sigma[:, None], W, 0.0)
    else:
        L = _TRI_HALF_WIDTH * sigma
        with np.errstate(divide="ignore", invalid="ignore"):
            W = np.clip(1.0 - np.abs(dx)[None, :] / L[:, None], 0.0, None)
    W[~np.isfinite(W)] = 0.0
    W[sigma == 0.0, :] = 0.0
    W[sigma == 0.0, K] = 1.0   # degenerate kernel: stay put
    W /= W.sum(axis=1, keepdims=True)
    return offsets, W


def _weight_rows(kernel: JumpKernel, u: np.ndarray, h: float):
    """Per-cell kernel weights at offsets k*h, rows renormalized to 1.

    Returns (offsets, W) with W[i, :] the distribution for cell i.  Cells
    whose kernel is narrower than a cell collapse to the identity row, and
    so do cells with u = 0.
    """
    u = np.asarray(u, dtype=float)
    occupied = u > 0.0
    sigma = np.zeros(u.shape)
    sigma[occupied], K = _sigma_and_reach(kernel, u[occupied], h)
    return _rows(kernel.shape, sigma, K, h)


def kernel_moments(kernel: JumpKernel, u: float, grid_h: float):
    """(mass, mean, variance) of the discretized kernel at concentration u.

    mass is exactly 1 after renormalization and mean exactly 0 by symmetry;
    variance tracks var(u) to a few tenths of a percent once sigma covers a
    few cells.  Below one cell the kernel is unresolvable and that is an
    error here (the stepper, by contrast, happily degenerates to identity).
    """
    if u <= 0:
        raise DomainError("kernel moments need u > 0")
    if grid_h <= 0:
        raise DomainError("grid spacing must be positive")
    sigma = float(np.sqrt(kernel.var(np.asarray([u]))[0]))
    if sigma < grid_h:
        raise ResolutionError(
            f"kernel sigma {sigma:g} below one cell {grid_h:g}")
    offsets, W = _weight_rows(kernel, np.asarray([u]), grid_h)
    w = W[0]
    dx = offsets * grid_h
    mass = float(w.sum())
    mean = float((w * dx).sum())
    variance = float((w * dx * dx).sum())
    return mass, mean, variance


class _LastRows:
    """The weight rows of the previous step, rebuilt only when (shape,
    widths, K, h) changes: with a = beta a whole run builds them once."""

    def __init__(self):
        self._key = self._rows = None

    def __call__(self, shape: str, widths: np.ndarray, K: int, h: float):
        key = (shape, widths.tobytes(), K, h)
        if key != self._key:
            self._key, self._rows = key, _rows(shape, widths, K, h)[1]
        return self._rows


def _fold_moved(out: np.ndarray, W: np.ndarray, emit: np.ndarray, lo: int,
                hi: int, K: int, periodic: bool) -> None:
    """Add W[k + K] * emit[lo:hi], the mass each cell s of the occupied span
    [lo, hi) sends to offset k, into out at s + k folded back into the
    domain (needs K < n).

    One reduction over a skewed stack serves every cell that no wall
    term reaches; the border strips reduce their own gathered terms (see
    the module docstring for the order and why it is the scatter's).
    """
    n = out.shape[0]
    base, width = lo - K, hi - lo + 2 * K    # stack column c is cell base + c
    stack = np.zeros((2 * K + 2, width))
    a, b = max(base, 0), min(base + width, n)
    stack[0, a - base:b - base] = out[a:b]
    # row j + 1 holds offset j - K shifted right by j columns: one view
    # whose row stride is one element longer than the stack's.  einsum
    # forms the same products as W * emit, in about two thirds of the time
    # when W is one broadcast column
    skew = as_strided(stack[1:], shape=(2 * K + 1, hi - lo),
                      strides=(stack.strides[0] + stack.itemsize,
                               stack.itemsize))
    np.einsum("ij,j->ij", W, emit[lo:hi], out=skew)
    walls = base < 0 or base + width > n
    if walls:
        # only the first and last K cells can receive mass that crossed a
        # wall; stack columns of each one's left-wall, direct and right-wall
        # terms
        d = np.arange(n)
        d = d[(d < K) | (d >= n - K)]
        t = np.stack((d - n, d, d + n) if periodic
                     else (-1 - d, d, 2 * n - 1 - d)) - base
        inside = (t >= 0) & (t < width)
        terms = np.where(inside, stack[1:, np.where(inside, t, 0)], 0.0)
        # rows: retained, then per offset left wall, direct, right wall.  d
        # holds cells 0 and n - 1, so the reduce runs row by row (numpy
        # would sum a lone column pairwise)
        border = np.add.reduce(
            np.concatenate((out[d][None], terms.reshape(-1, d.size))), axis=0)
    # width is 1 only when K = 0: two rows, where pairwise is sequential
    out[a:b] = np.add.reduce(stack, axis=0)[a - base:b - base]
    if walls:
        out[d] = border


def _positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _step(u: np.ndarray, grid: GridSpec, kernel: JumpKernel,
          sink: Optional[SinkTerm], dt: float, closure: str,
          rows_of: _LastRows) -> np.ndarray:
    if grid.dim != 1:
        raise DomainError("master equation stepping is one-dimensional here")
    if closure not in ("reflect", "periodic"):
        raise DomainError("closure must be 'reflect' or 'periodic'")
    _positive_finite("dt", dt)
    u = np.asarray(u, dtype=float)
    if not u.min(initial=0.0) >= 0.0:
        raise DomainError("density must be nonnegative (and not NaN)")
    n = u.shape[0]
    h = grid.h[0]

    # tau, var and the reach are evaluated on the occupied cells only
    src = np.flatnonzero(u > 0.0)
    p = np.zeros_like(u)
    if src.size:
        occ = u[src]
        tau = np.asarray(kernel.tau(occ), dtype=float)
        tau_min = float(tau.min())
        # negated, so a NaN waiting time is rejected here
        if not tau_min > 0.0:
            raise DomainError(f"waiting times must be positive, got {tau_min!r}")
        if dt > tau_min * (1.0 + 1e-12):
            raise StepError(
                f"dt={dt:g} exceeds the fastest waiting time {tau_min:g}")
        p[src] = dt / tau

    emit = u * p
    out = u - emit
    if np.any(emit > 0.0):
        sigma, K = _sigma_and_reach(kernel, occ, h)
        if 2 * K + 1 > 2 * n:
            raise ResolutionError("kernel support exceeds the domain")
        # one row per distinct width; the span's cells with u = 0 emit 0.0
        lo, hi = int(src[0]), int(src[-1]) + 1
        if np.all(sigma == sigma[0]):
            W = rows_of(kernel.shape, sigma[:1], K, h).T   # broadcasts
        else:
            widths, which = np.unique(sigma, return_inverse=True)
            span_row = np.zeros(hi - lo, dtype=np.intp)
            span_row[src - lo] = which
            W = rows_of(kernel.shape, widths, K, h).T[:, span_row]
        _fold_moved(out, W, emit, lo, hi, K, closure == "periodic")

    if sink is not None:
        x = grid.axis_centers(0)
        out = np.maximum(0.0, out + dt * sink.rate(x, out))

    # negated so that NaN trips it too
    if not out.min() >= -1e-12 * max(1.0, float(u.max(initial=0.0))):
        raise RangeError("redistribution produced negative or NaN density")
    return out


def master_step(u: np.ndarray, grid: GridSpec, kernel: JumpKernel,
                sink: Optional[SinkTerm], dt: float,
                closure: str = "reflect") -> np.ndarray:
    """One synchronous fractional-redistribution step of the master equation.

    Per cell, the fraction dt/tau(u) of its mass moves through the kernel
    row of the cell's width; boundary leakage folds back by mirror
    reflection (or wraps, with closure='periodic'), so mass is conserved
    exactly before the sink acts.  The rows are built once per distinct
    width and the moved mass is summed by one row-ordered reduction, plus
    one over the border strips when mass crosses a wall (see the module
    docstring).  dt must be positive and finite.  A kernel reach K with
    2K+1 > 2n raises ResolutionError before any row is built; a negative
    or NaN result raises RangeError.
    """
    return _step(u, grid, kernel, sink, dt, closure, _LastRows())


def run_master(density0: np.ndarray, grid: GridSpec, kernel: JumpKernel,
               sink: Optional[SinkTerm], T: float, dt: float,
               closure: str = "reflect"):
    """March master_step to time T (last step truncated to land exactly);
    returns (times, u_T): the end time of every step, starting at 0.0, and
    the density at T.  One density is held at a time.  T and dt must be
    positive and finite; the weight rows carry over between steps while
    (shape, widths, K, h) is unchanged."""
    _positive_finite("final time T", T)
    _positive_finite("dt", dt)
    rows_of = _LastRows()
    u = np.asarray(density0, dtype=float).copy()
    times = [0.0]
    t = 0.0
    while t < T - 1e-15 * T:
        step = min(dt, T - t)
        u = _step(u, grid, kernel, sink, step, closure, rows_of)
        t += step
        times.append(t)
    return np.asarray(times), u
