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
among the occupied cells; with a = beta every cell shares one row.  The
truncated tail is renormalized so each row sums to one exactly.  The moved
mass is added offset by offset with contiguous slices over the span of
occupied cells: offsets in increasing order, and within one offset the
sources that leave through the left wall (a reversed slice when mirrored,
a shifted one when wrapped), then the direct slice, then those that leave
through the right wall.  Every cell thus receives its retained mass first
and then its jumps ordered by offset and by source, the order of one
scatter-add over (offset, source) pairs, so steps are bit-reproducible and
bit for bit those of that scatter; empty cells inside the span add +0.0,
which changes no sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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

KERNEL_SHAPES = ("gaussian_truncated", "triangular")
_GAUSS_CUT = 4.0         # truncation radius in units of sigma
_TRI_HALF_WIDTH = math.sqrt(6.0)  # triangular half-width giving variance sigma^2


@dataclass(frozen=True)
class JumpKernel:
    """Waiting time tau(u), jump variance var(u), and kernel shape.

    tau and var act on arrays of nonnegative densities; cells with u = 0
    never jump (tau is infinite there), which the stepper encodes as a zero
    emission fraction.  support_radius(u) is the truncation radius of the
    discretized kernel.
    """

    tau: Callable
    var: Callable
    shape: str
    support_radius: Callable

    def __post_init__(self):
        if self.shape not in KERNEL_SHAPES:
            raise DomainError(f"kernel shape must be one of {KERNEL_SHAPES}")


@dataclass(frozen=True)
class SinkTerm:
    """Absorption rate m(x, u) <= 0; positivity is rejected at application
    time (consumption must dominate production)."""

    m: Callable

    def rate(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.m(x, u), dtype=float)
        vals = np.broadcast_to(vals, u.shape)
        if vals.max(initial=-math.inf) > 1e-15:
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

    factor = _GAUSS_CUT if shape == "gaussian_truncated" else _TRI_HALF_WIDTH

    def support_radius(u):
        return factor * np.sqrt(var(u))

    return JumpKernel(tau=tau, var=var, shape=shape, support_radius=support_radius)


def _sigma_and_reach(kernel: JumpKernel, u: np.ndarray, h: float):
    """Kernel widths sigma(u) (0 where u = 0) and the reach K in cells of
    the widest support radius among them."""
    u = np.asarray(u, dtype=float)
    sigma = np.sqrt(np.where(u > 0.0, kernel.var(u), 0.0))
    radius = np.where(u > 0.0, kernel.support_radius(u), 0.0)
    K = int(np.ceil(float(radius.max(initial=0.0)) / h)) if radius.size else 0
    return sigma, K


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
    whose kernel is narrower than a cell collapse to the identity row.
    """
    sigma, K = _sigma_and_reach(kernel, u, h)
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


def _add_moved(out: np.ndarray, moved: np.ndarray, lo: int, K: int,
               periodic: bool) -> None:
    """Add moved[k + K, s - lo], the mass source cell s sends to offset k,
    into out at s + k folded back into the domain (needs K < n).

    Offsets go in increasing order.  Within one offset the sources that
    leave through the left wall come first (a reversed slice when
    mirrored), then the direct slice, then those leaving through the right
    wall: every cell receives its jumps ordered by offset, then by source.
    """
    n = out.shape[0]
    hi = lo + moved.shape[1]
    for k in range(-K, K + 1):
        row = moved[k + K]
        a = min(hi, -k)                    # s + k < 0 for s < a
        if a > lo:
            if periodic:
                out[lo + k + n:a + k + n] += row[:a - lo]
            else:
                out[-a - k:-lo - k] += row[:a - lo][::-1]
        b0, b1 = max(lo, -k), min(hi, n - k)
        if b1 > b0:
            out[b0 + k:b1 + k] += row[b0 - lo:b1 - lo]
        c = max(lo, n - k)                 # s + k >= n for s >= c
        if hi > c:
            if periodic:
                out[c + k - n:hi + k - n] += row[c - lo:]
            else:
                out[2 * n - hi - k:2 * n - c - k] += row[c - lo:][::-1]


def master_step(u: np.ndarray, grid: GridSpec, kernel: JumpKernel,
                sink: Optional[SinkTerm], dt: float,
                closure: str = "reflect") -> np.ndarray:
    """One synchronous fractional-redistribution step of the master equation.

    Per cell, the fraction dt/tau(u) of its mass moves through the kernel
    row of the cell's width; boundary leakage folds back by mirror
    reflection (or wraps, with closure='periodic'), so mass is conserved
    exactly before the sink acts.  The rows are built once per distinct
    width and summed in per-offset slices (see the module docstring).  A
    kernel reach K with 2K+1 > 2n raises ResolutionError before any row is
    built.
    """
    if grid.dim != 1:
        raise DomainError("master equation stepping is one-dimensional here")
    if closure not in ("reflect", "periodic"):
        raise DomainError("closure must be 'reflect' or 'periodic'")
    if dt <= 0:
        raise DomainError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if u.min(initial=0.0) < 0.0:
        raise DomainError("density must be nonnegative")
    n = u.shape[0]
    h = grid.h[0]

    active = u > 0.0
    if np.any(active):
        tau_vals = np.asarray(kernel.tau(u), dtype=float)
        tau_min = float(tau_vals[active].min())
        if dt > tau_min * (1.0 + 1e-12):
            raise StepError(
                f"dt={dt:g} exceeds the fastest waiting time {tau_min:g}")
        with np.errstate(divide="ignore"):
            p = np.where(active, dt / tau_vals, 0.0)
    else:
        p = np.zeros_like(u)

    emit = u * p
    out = u - emit
    if np.any(emit > 0.0):
        src = np.flatnonzero(active)
        sigma, K = _sigma_and_reach(kernel, u[src], h)
        if 2 * K + 1 > 2 * n:
            raise ResolutionError("kernel support exceeds the domain")
        # one row per distinct width; the span's cells with u = 0 emit 0.0
        widths, which = np.unique(sigma, return_inverse=True)
        _, rows = _rows(kernel.shape, widths, K, h)
        lo, hi = int(src[0]), int(src[-1]) + 1
        if widths.size == 1:
            W = rows.T                     # (2K+1, 1) broadcasts over the span
        else:
            span_row = np.zeros(hi - lo, dtype=np.intp)
            span_row[src - lo] = which
            W = rows.T[:, span_row]
        _add_moved(out, W * emit[lo:hi], lo, K, closure == "periodic")

    if sink is not None:
        x = grid.axis_centers(0)
        out = np.maximum(0.0, out + dt * sink.rate(x, out))

    if out.min() < -1e-12 * max(1.0, float(u.max(initial=0.0))):
        raise RangeError("redistribution produced negative density")
    return out


def run_master(density0: np.ndarray, grid: GridSpec, kernel: JumpKernel,
               sink: Optional[SinkTerm], T: float, dt: float,
               closure: str = "reflect"):
    """March master_step to time T (last step truncated to land exactly);
    returns (times, fields) with initial and final states included."""
    if T <= 0:
        raise DomainError("final time must be positive")
    u = np.asarray(density0, dtype=float).copy()
    times = [0.0]
    fields = [u]
    t = 0.0
    while t < T - 1e-15 * T:
        step = min(dt, T - t)
        # each step returns a new array, so the stored fields stay as they are
        u = master_step(u, grid, kernel, sink, step, closure=closure)
        t += step
        times.append(t)
        fields.append(u)
    return np.asarray(times), fields
