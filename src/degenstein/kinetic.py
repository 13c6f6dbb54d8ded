"""Free-jump master equation with concentration-dependent waiting times.

Each cell holding density u waits tau(u) between jump events and spreads a
jumping particle by a symmetric kernel of variance var(u) = tau(u) * P(u).
The synchronous approximation moves the fraction dt/tau(u) of every cell's
mass through its own kernel each step and leaves the rest in place; an
optional absorption term (m <= 0) is applied afterwards with a clamp at
zero.  In the diffusive limit the density obeys u_t = lap(P(u) u / 2), the
divergence-form cousin of the quasilinear solver equation, which is what the
cross-validation measures.

Weights are built per occupied cell (the kernel width follows the local
u), the truncated tail is renormalized so each row sums to one exactly, and
the redistribution is one scatter-add that sums into every destination in a
fixed order (retained mass first, then offsets in increasing order, sources
in increasing order), so steps are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, RangeError, ResolutionError, StepError
from .solver import Field, GridSpec

__all__ = [
    "JumpKernel",
    "SinkTerm",
    "power_family_kernel",
    "kernel_moments",
    "master_step",
    "run_master",
]

_SHAPES = ("gaussian_truncated", "triangular")
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
        if self.shape not in _SHAPES:
            raise DomainError(f"kernel shape must be one of {_SHAPES}")


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


def _weight_rows(kernel: JumpKernel, u: np.ndarray, h: float):
    """Per-cell kernel weights at offsets k*h, rows renormalized to 1.

    Returns (offsets, W) with W[i, :] the distribution for cell i.  Cells
    whose kernel is narrower than a cell collapse to the identity row.
    """
    u = np.asarray(u, dtype=float)
    sigma2 = np.where(u > 0.0, kernel.var(u), 0.0)
    sigma = np.sqrt(sigma2)
    radius = np.where(u > 0.0, kernel.support_radius(u), 0.0)
    K = int(np.ceil(float(radius.max(initial=0.0)) / h)) if radius.size else 0
    offsets = np.arange(-K, K + 1)
    dx = offsets * h
    if kernel.shape == "gaussian_truncated":
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


def master_step(fld: Field, grid: GridSpec, kernel: JumpKernel,
                sink: Optional[SinkTerm], dt: float,
                closure: str = "reflect") -> Field:
    """One synchronous fractional-redistribution step of the master equation.

    Per cell, the fraction dt/tau(u) of its mass moves through the cell's
    own kernel row; boundary leakage folds back by mirror reflection (or
    wraps, with closure='periodic'), so mass is conserved exactly before the
    sink acts.
    """
    if grid.dim != 1:
        raise DomainError("master equation stepping is one-dimensional here")
    if closure not in ("reflect", "periodic"):
        raise DomainError("closure must be 'reflect' or 'periodic'")
    if dt <= 0:
        raise DomainError("dt must be positive")
    u = np.asarray(fld.values, dtype=float)
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
        offsets, W = _weight_rows(kernel, u[src], h)
        if offsets.size > 2 * n:
            raise ResolutionError("kernel support exceeds the domain")
        # offset-major (offset, source) destinations and weights; bincount
        # sums in array order, so each destination receives its retained
        # mass first and then the jumps in the fixed offset/source order
        dest = offsets[:, None] + src
        if closure == "periodic":
            dest = np.mod(dest, n)
        else:
            dest = np.where(dest < 0, -1 - dest, dest)
            dest = np.where(dest >= n, 2 * n - 1 - dest, dest)
        moved = W.T * emit[src]
        out = np.bincount(np.concatenate([np.arange(n), dest.ravel()]),
                          weights=np.concatenate([out, moved.ravel()]),
                          minlength=n)

    if sink is not None:
        x = grid.axis_centers(0)
        out = np.maximum(0.0, out + dt * sink.rate(x, out))

    if out.min() < -1e-12 * max(1.0, float(u.max(initial=0.0))):
        raise RangeError("redistribution produced negative density")
    return Field(values=out, time=fld.time + dt)


def run_master(density0: np.ndarray, grid: GridSpec, kernel: JumpKernel,
               sink: Optional[SinkTerm], T: float, dt: float,
               closure: str = "reflect"):
    """March master_step to time T (last step truncated to land exactly);
    returns (times, fields) with initial and final states included."""
    if T <= 0:
        raise DomainError("final time must be positive")
    fld = Field(values=np.asarray(density0, dtype=float).copy(), time=0.0)
    times = [0.0]
    fields = [fld.values.copy()]
    t = 0.0
    while t < T - 1e-15 * T:
        step = min(dt, T - t)
        fld = master_step(fld, grid, kernel, sink, step, closure=closure)
        t = fld.time
        times.append(t)
        fields.append(fld.values.copy())
    return np.asarray(times), fields
