"""Jump-kernel moments, master-equation stepping, and the diffusive limit.

The moments oracle below rebuilds the discretized kernel row with plain
Python loops and sums; the module must match it to 1e-12.  The PDE
cross-validation tolerance (5%) sits well above the measured ~1.3% gap,
which is the non-divergence-form flux term, not noise.
"""

import math

import numpy as np
import pytest

import degenstein.kinetic as kinetic_mod
from degenstein.errors import (DomainError, ResolutionError, StepError)
from degenstein.kinetic import (JumpKernel, SinkTerm, _weight_rows,
                                kernel_moments, master_step,
                                power_family_kernel, run_master)
from degenstein.solver import (EpsProblem, Field, GridSpec, bump, solve)

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
            JumpKernel(tau=lambda u: u, var=lambda u: u, shape="boxcar",
                       support_radius=lambda u: u)


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
            fld = Field(values=kin_density.copy(), time=0.0)
            m0 = kin_density.sum() * kin_grid.cell_volume
            worst = 0.0
            for _ in range(20):
                fld = master_step(fld, kin_grid, kern, None, 1.5e-4,
                                  closure=closure)
                m = fld.values.sum() * kin_grid.cell_volume
                worst = max(worst, abs(m - m0) / m0)
            assert worst <= 1e-12

    def test_even_data_stays_even(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        fld = Field(values=kin_density.copy(), time=0.0)
        for _ in range(20):
            fld = master_step(fld, kin_grid, kern, None, 1.5e-4)
        assert np.abs(fld.values - fld.values[::-1]).max() <= 1e-12

    def test_zero_cells_never_emit_and_support_dilates_by_K(self, kin_grid):
        u = np.zeros(401)
        j = 200
        u[j] = 0.04
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        K = math.ceil(float(kern.support_radius(np.asarray([0.04]))[0]) / H)
        fld = master_step(Field(values=u, time=0.0), kin_grid, kern, None,
                          1.5e-4)
        support = np.nonzero(fld.values)[0]
        assert support.min() >= j - K and support.max() <= j + K
        outside = np.ones(401, dtype=bool)
        outside[j - K:j + K + 1] = False
        assert np.all(fld.values[outside] == 0.0)

    def test_degenerate_width_is_identity(self, kin_grid, kin_density):
        zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        kern = JumpKernel(tau=lambda u: np.full_like(
            np.asarray(u, dtype=float), 0.01),
            var=zero, shape="gaussian_truncated", support_radius=zero)
        fld = master_step(Field(values=kin_density.copy(), time=0.0),
                          kin_grid, kern, None, 5e-3)
        # every row collapses to stay-put, so emit returns to its own cell
        assert np.abs(fld.values - kin_density).max() <= \
            1e-15 * kin_density.max()

    def test_step_larger_than_fastest_clock_rejected(self, kin_grid,
                                                     kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        tau_min = 1.5e-4 / kin_density.max()      # tau = tau0 / u
        with pytest.raises(StepError):
            master_step(Field(values=kin_density.copy(), time=0.0), kin_grid,
                        kern, None, 2.0 * tau_min)

    def test_sink_absorbs_and_clamps(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        m0 = kin_density.sum() * kin_grid.cell_volume
        gentle = SinkTerm(m=lambda x, u: -5.0 * np.ones_like(u))
        fld = master_step(Field(values=kin_density.copy(), time=0.0),
                          kin_grid, kern, gentle, 1.5e-4)
        assert fld.values.sum() * kin_grid.cell_volume < m0
        assert fld.values.min() >= 0.0
        brutal = SinkTerm(m=lambda x, u: -1e9 * np.ones_like(u))
        fld = master_step(Field(values=kin_density.copy(), time=0.0),
                          kin_grid, kern, brutal, 1.5e-4)
        assert np.all(fld.values == 0.0)

    def test_source_disguised_as_sink_rejected(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        source = SinkTerm(m=lambda x, u: 5.0 * np.ones_like(u))
        with pytest.raises(DomainError):
            master_step(Field(values=kin_density.copy(), time=0.0), kin_grid,
                        kern, source, 1.5e-4)

    def test_guards(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        fld = Field(values=kin_density.copy(), time=0.0)
        with pytest.raises(DomainError):
            master_step(fld, kin_grid, kern, None, 1.5e-4, closure="absorb")
        with pytest.raises(DomainError):
            master_step(fld, kin_grid, kern, None, 0.0)
        with pytest.raises(DomainError):
            master_step(Field(values=-kin_density, time=0.0), kin_grid, kern,
                        None, 1.5e-4)
        grid2 = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(16, 16))
        with pytest.raises(DomainError):
            master_step(Field(values=np.zeros((16, 16)), time=0.0), grid2,
                        kern, None, 1.5e-4)


def reference_master_step(u, grid, kernel, sink, dt, closure):
    """The per-offset np.add.at redistribution loop over every cell, kept as
    the bit-for-bit reference for master_step's per-offset slice folds."""
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
        fld = Field(values=u.copy(), time=0.0)
        for _ in range(4):
            ref = reference_master_step(fld.values, kin_grid, kern, sink, dt,
                                        closure)
            fld = master_step(fld, kin_grid, kern, sink, dt, closure=closure)
            assert np.array_equal(fld.values, ref)
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
            fld = Field(values=u, time=0.0)
            for _ in range(3):
                ref = reference_master_step(fld.values, grid, kern, None, dt,
                                            closure)
                fld = master_step(fld, grid, kern, None, dt, closure=closure)
                assert np.array_equal(fld.values, ref)

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
            master_step(Field(values=u, time=0.0), grid, kern, None, dt)


class TestRunMaster:
    def test_matches_reference_loop(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        times, fields = run_master(kin_density, kin_grid, kern, None,
                                   T=0.01, dt=1.5e-4)
        u, t = kin_density.copy(), 0.0
        ref_times, ref_fields = [t], [u]
        while t < 0.01 - 1e-15 * 0.01:
            step = min(1.5e-4, 0.01 - t)
            u = reference_master_step(u, kin_grid, kern, None, step,
                                      "reflect")
            t = t + step
            ref_times.append(t)
            ref_fields.append(u)
        assert np.array_equal(times, ref_times)
        assert len(fields) == len(ref_fields) == 68
        for got, want in zip(fields, ref_fields):
            assert np.array_equal(got, want)

    def test_lands_exactly_on_horizon(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        times, fields = run_master(kin_density, kin_grid, kern, None,
                                   T=1.03e-3, dt=2.5e-4)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.03e-3, rel=1e-12)
        assert len(times) == len(fields) == 6      # 4 full steps + truncated
        assert np.all(np.diff(times) > 0)

    def test_input_density_not_mutated(self, kin_grid, kin_density):
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        before = kin_density.copy()
        run_master(kin_density, kin_grid, kern, None, T=5e-4, dt=2.5e-4)
        assert np.array_equal(kin_density, before)


class TestDiffusiveLimit:
    def test_master_tracks_pde_within_five_percent(self, kin_grid,
                                                   kin_density, beta1_table):
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((0.0,), 0.3, 0.05, shape="cos2"), psi=1.0)
        trace = solve(prob, kin_grid, 0.01, 2)
        pde = trace.fields[-1] - prob.eps
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        _, fields = run_master(kin_density, kin_grid, kern, None, 0.01,
                               1.5e-4)
        vol = kin_grid.cell_volume
        mass = kin_density.sum() * vol
        gap = np.abs(fields[-1] - pde).sum() * vol / mass
        assert gap <= 0.05            # measured ~1.33%: the flux-term gap
