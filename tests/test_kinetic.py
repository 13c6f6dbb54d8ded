"""Jump-kernel moments, master-equation stepping, and the diffusive limit.

The moments oracle below rebuilds the discretized kernel row with plain
Python loops and sums; the module must match it to 1e-12.  The PDE
cross-validation tolerance (5%) sits well above the measured ~1.3% gap,
which is the non-divergence-form flux term, not noise.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import degenstein.kinetic as kinetic_mod
from degenstein.errors import DomainError, ResolutionError, StepError
from degenstein.kinetic import (KERNEL_SHAPES, JumpKernel, SinkTerm,
                                _weight_rows, kernel_moments, master_step,
                                power_family_kernel, run_master)
from degenstein.solver import (EpsProblem, GridSpec, bump, solve)

H = 0.005   # desk spacing: 401 cells on [-1, 1]


def width_kernel(sigma):
    """Power kernel with concentration-independent width sigma (a = beta)."""
    return power_family_kernel(beta=1.0, tau0=sigma * sigma, a=1.0)


def hand_moments(shape, sigma, h):
    """Independent explicit-loop discretization of the jump kernel."""
    cut = 4.0 if shape == "gaussian_truncated" else math.sqrt(6.0)
    K = math.ceil(cut * sigma / h)
    ws, dxs = [], []
    for k in range(-K, K + 1):
        dx = k * h
        if shape == "gaussian_truncated":
            w = math.exp(-0.5 * (dx / sigma) ** 2) \
                if abs(dx) <= 4.0 * sigma else 0.0
        else:
            L = math.sqrt(6.0) * sigma
            w = max(0.0, 1.0 - abs(dx) / L)
        ws.append(w)
        dxs.append(dx)
    tot = sum(ws)
    ws = [w / tot for w in ws]
    mass = sum(ws)
    mean = sum(w * dx for w, dx in zip(ws, dxs))
    var = sum(w * dx * dx for w, dx in zip(ws, dxs))
    return mass, mean, var


class TestKernelMoments:
    @pytest.mark.parametrize("shape", ["gaussian_truncated", "triangular"])
    @pytest.mark.parametrize("mult", [3.0, 5.0, 10.0, 2.4691357])
    def test_matches_hand_loop(self, shape, mult):
        sigma = mult * H
        kern = power_family_kernel(beta=1.0, tau0=sigma * sigma, a=1.0,
                                   shape=shape)
        got = kernel_moments(kern, 0.7, H)
        want = hand_moments(shape, sigma, H)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("shape", ["gaussian_truncated", "triangular"])
    @pytest.mark.parametrize("mult", [3.0, 5.0, 10.0])
    def test_invariants(self, shape, mult):
        sigma = mult * H
        kern = power_family_kernel(beta=1.0, tau0=sigma * sigma, a=1.0,
                                   shape=shape)
        mass, mean, var = kernel_moments(kern, 0.7, H)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert abs(mean) <= 1e-12 * sigma
        assert var == pytest.approx(sigma * sigma, rel=0.02)

    def test_gaussian_tight_at_ten_cells(self):
        sigma = 10.0 * H
        _, _, var = kernel_moments(width_kernel(sigma), 0.7, H)
        assert var == pytest.approx(sigma * sigma, rel=5e-3)

    def test_width_follows_concentration(self):
        # beta=2, a=1: var(u) = tau0 * u, so doubling u doubles the variance
        kern = power_family_kernel(beta=2.0, tau0=(6 * H) ** 2, a=1.0)
        _, _, v1 = kernel_moments(kern, 1.0, H)
        _, _, v2 = kernel_moments(kern, 2.0, H)
        assert v2 == pytest.approx(2.0 * v1, rel=0.02)

    def test_unresolvable_width_rejected(self):
        with pytest.raises(ResolutionError):
            kernel_moments(width_kernel(0.5 * H), 0.7, H)

    def test_bad_arguments(self):
        kern = width_kernel(5 * H)
        with pytest.raises(DomainError):
            kernel_moments(kern, 0.0, H)
        with pytest.raises(DomainError):
            kernel_moments(kern, -0.3, H)
        with pytest.raises(DomainError):
            kernel_moments(kern, 0.7, 0.0)

    def test_kernel_factory_validation(self):
        with pytest.raises(DomainError):
            power_family_kernel(beta=0.0, tau0=1e-4)
        with pytest.raises(DomainError):
            power_family_kernel(beta=1.0, tau0=0.0)
        with pytest.raises(DomainError):
            power_family_kernel(beta=1.0, tau0=1e-4, a=-1.0)
        with pytest.raises(DomainError):
            JumpKernel(tau=lambda u: u, var=lambda u: u, shape="boxcar")


@pytest.fixture(scope="module")
def kin_grid():
    return GridSpec(extent=((-1.0, 1.0),), n=(401,))


@pytest.fixture(scope="module")
def kin_density(kin_grid):
    shape = bump((0.0,), 0.3, 0.05, shape="cos2")
    return kin_grid.sample(shape)


class TestMasterStep:
    def test_mass_conserved_both_closures(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        for closure in ("reflect", "periodic"):
            fld = kin_density.copy()
            m0 = kin_density.sum() * kin_grid.cell_volume
            worst = 0.0
            for _ in range(20):
                fld = master_step(fld, kin_grid, kern, None, 1.5e-4,
                                  closure=closure)
                m = fld.sum() * kin_grid.cell_volume
                worst = max(worst, abs(m - m0) / m0)
            assert worst <= 1e-12

    def test_even_data_stays_even(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        fld = kin_density.copy()
        for _ in range(20):
            fld = master_step(fld, kin_grid, kern, None, 1.5e-4)
        assert np.abs(fld - fld[::-1]).max() <= 1e-12

    def test_zero_cells_never_emit_and_support_dilates_by_K(self, kin_grid):
        u = np.zeros(401)
        j = 200
        u[j] = 0.04
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        K = math.ceil(float(kern.support_radius(np.asarray([0.04]))[0]) / H)
        fld = master_step(u, kin_grid, kern, None, 1.5e-4)
        support = np.nonzero(fld)[0]
        assert support.min() >= j - K and support.max() <= j + K
        outside = np.ones(401, dtype=bool)
        outside[j - K:j + K + 1] = False
        assert np.all(fld[outside] == 0.0)

    def test_degenerate_width_is_identity(self, kin_grid, kin_density):
        zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        kern = JumpKernel(tau=lambda u: np.full_like(
            np.asarray(u, dtype=float), 0.01),
            var=zero, shape="gaussian_truncated")
        fld = master_step(kin_density.copy(), kin_grid, kern, None, 5e-3)
        # every row collapses to stay-put, so emit returns to its own cell
        assert np.abs(fld - kin_density).max() <= \
            1e-15 * kin_density.max()

    def test_step_larger_than_fastest_clock_rejected(self, kin_grid,
                                                     kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        tau_min = 1.5e-4 / kin_density.max()      # tau = tau0 / u
        with pytest.raises(StepError):
            master_step(kin_density.copy(), kin_grid, kern, None,
                        2.0 * tau_min)

    def test_sink_absorbs_and_clamps(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        m0 = kin_density.sum() * kin_grid.cell_volume
        gentle = SinkTerm(m=lambda x, u: -5.0 * np.ones_like(u))
        fld = master_step(kin_density.copy(), kin_grid, kern, gentle, 1.5e-4)
        assert fld.sum() * kin_grid.cell_volume < m0
        assert fld.min() >= 0.0
        brutal = SinkTerm(m=lambda x, u: -1e9 * np.ones_like(u))
        fld = master_step(kin_density.copy(), kin_grid, kern, brutal, 1.5e-4)
        assert np.all(fld == 0.0)

    def test_source_disguised_as_sink_rejected(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        source = SinkTerm(m=lambda x, u: 5.0 * np.ones_like(u))
        with pytest.raises(DomainError):
            master_step(kin_density.copy(), kin_grid, kern, source, 1.5e-4)

    def test_guards(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        fld = kin_density.copy()
        with pytest.raises(DomainError):
            master_step(fld, kin_grid, kern, None, 1.5e-4, closure="absorb")
        with pytest.raises(DomainError):
            master_step(fld, kin_grid, kern, None, 0.0)
        with pytest.raises(DomainError):
            master_step(-kin_density, kin_grid, kern, None, 1.5e-4)
        grid2 = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(16, 16))
        with pytest.raises(DomainError):
            master_step(np.zeros((16, 16)), grid2, kern, None, 1.5e-4)


def reference_master_step(u, grid, kernel, sink, dt, closure):
    """The per-offset np.add.at redistribution loop over every cell, kept as
    the bit-for-bit reference for master_step's row-ordered reduction and
    border strips."""
    n, h = u.shape[0], grid.h[0]
    active = u > 0.0
    with np.errstate(divide="ignore"):
        p = np.where(active, dt / np.asarray(kernel.tau(u), dtype=float), 0.0)
    emit = u * p
    out = u - emit
    if np.any(emit > 0.0):
        offsets, W = _weight_rows(kernel, u, h)
        idx = np.arange(n)
        for col, k in enumerate(offsets):
            dest = idx + int(k)
            if closure == "periodic":
                dest = np.mod(dest, n)
            else:
                dest = np.where(dest < 0, -1 - dest, dest)
                dest = np.where(dest >= n, 2 * n - 1 - dest, dest)
            np.add.at(out, dest, emit * W[:, col])
    if sink is not None:
        out = np.maximum(0.0, out + dt * sink.rate(grid.axis_centers(0), out))
    return out


class TestScatterMatchesReference:
    @pytest.mark.parametrize("closure", ["reflect", "periodic"])
    @pytest.mark.parametrize("shape", ["gaussian_truncated", "triangular"])
    @pytest.mark.parametrize("beta,a,tau0", [(1.0, 1.0, 1.5e-4),
                                             (2.0, 1.0, 2e-3),
                                             (1.0, 0.5, 1e-4)])
    @pytest.mark.parametrize("with_sink", [False, True])
    def test_bit_identical_to_add_at_loop(self, kin_grid, closure, shape,
                                          beta, a, tau0, with_sink):
        # humps touching both walls, so reflection and wrap both act
        u = kin_grid.sample(bump((-0.9,), 0.3, 0.05, shape="cos2")) \
            + kin_grid.sample(bump((0.95,), 0.2, 0.03, shape="tent"))
        kern = power_family_kernel(beta=beta, tau0=tau0, a=a, shape=shape)
        sink = SinkTerm(m=lambda x, v: -3.0 * v) if with_sink else None
        dt = 0.5 * float(np.asarray(kern.tau(np.asarray([u.max()])))[0])
        fld = u.copy()
        for _ in range(4):
            ref = reference_master_step(fld, kin_grid, kern, sink, dt, closure)
            fld = master_step(fld, kin_grid, kern, sink, dt, closure=closure)
            assert np.array_equal(fld, ref)
        # the occupied wall cells really spread (not identity rows)
        offsets, _ = _weight_rows(kern, u[:2], kin_grid.h[0])
        assert offsets.size >= 3


def reach_kernel(n, K, shape, varying, u_max):
    """Kernel on n cells of [0, 1] whose widest occupied cell (u = u_max)
    reaches exactly K cells: fixed width (a = beta = 1) or width growing
    with u (beta = 2, a = 1, sigma^2 = tau0 * u)."""
    cut = 4.0 if shape == "gaussian_truncated" else math.sqrt(6.0)
    sigma = (K - 0.5) / n / cut
    if varying:
        return power_family_kernel(beta=2.0, tau0=sigma * sigma / u_max,
                                   a=1.0, shape=shape)
    return power_family_kernel(beta=1.0, tau0=sigma * sigma, a=1.0,
                               shape=shape)


def gapped_densities(n, rng):
    """Occupied sets with gaps: both walls, one wall, the interior, and a
    single cell; values drawn from a few levels so widths repeat."""
    levels = np.array([0.2, 0.5, 1.0])
    full = rng.choice(levels, n) * (rng.uniform(size=n) < 0.6)
    full[0] = full[-1] = 1.0
    left = full.copy()
    left[n // 2:] = 0.0
    inner = full.copy()
    inner[:2] = inner[-2:] = 0.0
    inner[n // 2] = 1.0
    single = np.zeros(n)
    single[n // 3] = 1.0
    return [full, left, inner, single]


class TestFoldsMatchReference:
    """Kernels reaching most of the domain, where the left fold, the direct
    slice and the right fold of one offset overlap."""

    @pytest.mark.parametrize("closure", ["reflect", "periodic"])
    @pytest.mark.parametrize("shape", ["gaussian_truncated", "triangular"])
    @pytest.mark.parametrize("varying", [False, True],
                             ids=["fixed", "varying"])
    @pytest.mark.parametrize("n,frac", [(8, 0.3), (8, 0.99), (13, 0.6),
                                        (20, 0.45), (31, 0.3), (31, 0.99)])
    def test_bit_identical_on_small_grids(self, closure, shape, varying, n,
                                          frac):
        grid = GridSpec(extent=((0.0, 1.0),), n=(n,))
        K = max(1, round(frac * (n - 1)))
        kern = reach_kernel(n, K, shape, varying, u_max=1.0)
        dt = 0.5 * float(np.asarray(kern.tau(np.asarray([1.0])))[0])
        rng = np.random.default_rng(1000 * n + K)
        for u in gapped_densities(n, rng):
            offsets, _ = _weight_rows(kern, u, grid.h[0])
            assert offsets.size == 2 * K + 1
            fld = u
            for _ in range(3):
                ref = reference_master_step(fld, grid, kern, None, dt, closure)
                fld = master_step(fld, grid, kern, None, dt, closure=closure)
                assert np.array_equal(fld, ref)

    @pytest.mark.parametrize("case", ["reach-n", "lab-tau0-4"])
    def test_too_wide_rejected_before_any_row(self, monkeypatch, case):
        # K = n on 8 cells is the first reach past 2K+1 <= 2n; tau0 = 4 on
        # the lab's 1601 cells gives 2K+1 = 12809 offsets for 481 occupied
        # cells, about 49 MB per weight temporary had the rows come first
        def no_rows(*args):
            raise AssertionError("weight rows built before the width check")

        if case == "reach-n":
            grid = GridSpec(extent=((0.0, 1.0),), n=(8,))
            u = np.ones(8)
            kern = reach_kernel(8, 8, "gaussian_truncated", False, 1.0)
            dt = 1e-6
        else:
            grid = GridSpec(extent=((-1.0, 1.0),), n=(1601,))
            u = grid.sample(bump((0.0,), 0.3, 0.05, shape="cos2"))
            kern = power_family_kernel(beta=1.0, tau0=4.0, a=1.0)
            dt = 1.5e-4
        monkeypatch.setattr(kinetic_mod, "_rows", no_rows)
        with pytest.raises(ResolutionError):
            master_step(u, grid, kern, None, dt)


def reference_march(u, grid, kernel, T, dt, closure):
    """run_master's time loop over reference_master_step: (times, u_T)."""
    t, times = 0.0, [0.0]
    while t < T - 1e-15 * T:
        step = min(dt, T - t)
        u = reference_master_step(u, grid, kernel, None, step, closure)
        t = t + step
        times.append(t)
    return times, u


class TestRunMaster:
    """run_master returns every step's end time and the density at T; the
    per-step densities are covered by the master_step reference tests."""

    def test_matches_reference_loop(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        times, u_T = run_master(kin_density, kin_grid, kern, None,
                                T=0.01, dt=1.5e-4)
        ref_times, ref_u = reference_march(kin_density.copy(), kin_grid,
                                           kern, 0.01, 1.5e-4, "reflect")
        assert len(times) == 68
        assert np.array_equal(times, ref_times)
        assert np.array_equal(u_T, ref_u)

    @pytest.mark.parametrize("closure", ["reflect", "periodic"])
    @pytest.mark.parametrize("shape", ["gaussian_truncated", "triangular"])
    def test_matches_reference_loop_across_the_walls(self, kin_grid, closure,
                                                     shape):
        # humps within K of both walls and widths that vary with u
        # (a != beta), so the border strips take mass across both walls on
        # every step
        u0 = kin_grid.sample(bump((-0.9,), 0.3, 0.3, shape="cos2")) \
            + kin_grid.sample(bump((0.95,), 0.2, 0.2, shape="tent"))
        kern = power_family_kernel(beta=2.0, tau0=2e-3, a=1.0, shape=shape)
        offsets, W = _weight_rows(kern, u0, kin_grid.h[0])
        K, occupied = int(offsets[-1]), np.flatnonzero(u0)
        assert K >= 10 and np.unique(W, axis=0).shape[0] > 10
        assert occupied[0] < K and occupied[-1] >= u0.size - K
        dt = 0.5 * float(np.asarray(kern.tau(np.asarray([u0.max()])))[0])
        times, u_T = run_master(u0, kin_grid, kern, None, T=24 * dt,
                                dt=dt, closure=closure)
        ref_times, ref_u = reference_march(u0, kin_grid, kern, 24 * dt,
                                           dt, closure)
        assert len(times) >= 25
        assert np.array_equal(times, ref_times)
        assert np.array_equal(u_T, ref_u)

    def test_lands_exactly_on_horizon(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        times, u_T = run_master(kin_density, kin_grid, kern, None,
                                T=1.03e-3, dt=2.5e-4)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.03e-3, rel=1e-12)
        assert len(times) == 6      # 4 full steps + truncated
        assert np.all(np.diff(times) > 0)
        assert u_T.shape == kin_density.shape

    def test_input_density_not_mutated(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        before = kin_density.copy()
        run_master(kin_density, kin_grid, kern, None, T=5e-4, dt=2.5e-4)
        assert np.array_equal(kin_density, before)

    def test_memory_does_not_grow_with_the_steps(self, kin_grid):
        # a density that fills the domain keeps every step's temporaries
        # the same size, so four times the steps may add only the longer
        # times array, not a density per step
        u0 = 0.05 + kin_grid.sample(bump((0.0,), 0.3, 0.05, shape="cos2"))
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)

        def peak(steps):
            tracemalloc.start()
            try:
                run_master(u0, kin_grid, kern, None, T=steps * 1e-4, dt=1e-4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)                       # first-call allocations out of the way
        short, long = peak(10), peak(40)
        assert long - short <= 2 * u0.nbytes, (short, long, u0.nbytes)


_NOT_POSITIVE_FINITE = pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 0.0],
    ids=["nan", "inf", "-inf", "zero"])


class TestNonFiniteInputs:
    """T and dt must be positive and finite: a NaN or infinite T once
    returned the initial state alone, and a NaN dt an all-NaN field."""

    @_NOT_POSITIVE_FINITE
    def test_master_step_dt(self, kin_grid, kin_density, bad):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        with pytest.raises(DomainError, match="dt must be positive and finite"):
            master_step(kin_density, kin_grid, kern, None, bad)

    @_NOT_POSITIVE_FINITE
    @pytest.mark.parametrize("which", ["T", "dt"])
    def test_run_master_times(self, kin_grid, kin_density, which, bad):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        times = {"T": 1e-3, "dt": 1.5e-4, which: bad}
        with pytest.raises(DomainError, match="must be positive and finite"):
            run_master(kin_density, kin_grid, kern, None, **times)

    def test_nan_density_rejected(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        u = kin_density.copy()
        u[7] = math.nan
        with pytest.raises(DomainError, match="nonnegative"):
            master_step(u, kin_grid, kern, None, 1.5e-4)

    def test_nan_waiting_time_rejected(self, kin_grid, kin_density):
        # dt > NaN is False; the negated check rejects a NaN waiting time
        # before it becomes NaN emission fractions
        kern = replace(power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0),
                       tau=lambda u: np.full_like(u, math.nan))
        with pytest.raises(DomainError, match="waiting times"):
            master_step(kin_density, kin_grid, kern, None, 1.5e-4)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_variance_rejected_at_the_reach(self, kin_grid,
                                                      kin_density, shape,
                                                      bad):
        # finite waiting times, but a NaN or infinite variance on the hump's
        # top: the reach is a multiple of the widest width, so it is not
        # finite either, and the step refuses it before building a row
        kern = JumpKernel(
            tau=lambda u: np.full_like(u, 1.5e-4),
            var=lambda u: np.where(u > 0.03, bad, 1e-3), shape=shape)
        with pytest.raises(DomainError, match="kernel widths must be finite"):
            master_step(kin_density, kin_grid, kern, None, 1.5e-4)

    def test_nan_sink_rate_rejected(self, kin_grid, kin_density):
        # NaN > 1e-15 is False; the negated check rejects it where the sink
        # is applied, not later as a NaN density
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        nan_sink = SinkTerm(m=lambda x, u: np.full_like(u, math.nan))
        with pytest.raises(DomainError, match="sink rate"):
            master_step(kin_density, kin_grid, kern, nan_sink, 1.5e-4)


class TestReach:
    """A step's reach comes from the widths it has already evaluated, and
    it is the kernel's support_radius of its widest occupied cell."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("beta,a", [(1.0, 1.0), (2.0, 1.0), (1.0, 0.5)])
    def test_reach_is_the_widest_support_radius(self, kin_grid, kin_density,
                                                shape, beta, a):
        kern = power_family_kernel(beta=beta, tau0=2e-4, a=a, shape=shape)
        u = kin_density
        for _ in range(3):
            occ = u[u > 0.0]
            K = math.ceil(float(np.max(kern.support_radius(occ))) / H)
            assert K > 0
            assert kinetic_mod._sigma_and_reach(kern, occ, H)[1] == K
            u = master_step(u, kin_grid, kern, None, 1e-4)

    def test_var_evaluated_once_per_step(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=2.0, tau0=2e-4, a=1.0)
        calls = []

        def var(u):
            calls.append(1)
            return kern.var(u)

        counted = replace(kern, var=var)
        out = master_step(kin_density, kin_grid, counted, None, 1e-4)
        assert len(calls) == 1
        assert np.array_equal(
            out, master_step(kin_density, kin_grid, kern, None, 1e-4))

    def test_constant_var_broadcasts(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        sigma2 = float(kern.var(np.asarray([0.5]))[0])     # a = beta: constant
        const = replace(kern, var=lambda u: sigma2)
        assert np.array_equal(
            master_step(kin_density, kin_grid, const, None, 1e-4),
            master_step(kin_density, kin_grid, kern, None, 1e-4))


class TestDiffusiveLimit:
    def test_master_tracks_pde_within_five_percent(self, kin_grid,
                                                   kin_density, beta1_table):
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((0.0,), 0.3, 0.05, shape="cos2"), psi=1.0)
        trace = solve(prob, kin_grid, 0.01, 2)
        pde = trace.fields[-1] - prob.eps
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        _, master = run_master(kin_density, kin_grid, kern, None, 0.01,
                               1.5e-4)
        vol = kin_grid.cell_volume
        mass = kin_density.sum() * vol
        gap = np.abs(master - pde).sum() * vol / mass
        assert gap <= 0.05            # measured ~1.33%: the flux-term gap
