"""Explicit solver: fixed points, stability guards, convergence, energy.

The reference quantities (self-convergence gap, energy residuals) were
measured once on the desk configuration and frozen here with generous
margins; they are deterministic, so drift means a real behavior change.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstein import solver as solver_mod
from degenstein.checker import PROFILES
from degenstein.coeffs import (CoefficientTable, DegeneracyProfile,
                               LambdaChoice, build_table, constant_table)
from degenstein.errors import CflError, DomainError, RangeError
from degenstein.solver import (EpsProblem, GridSpec, bump, cfl_dt,
                               energy_identity_residual, eps_sweep,
                               grad_energy, solve, step_explicit)


class TestGridSpec:
    def test_geometry(self):
        grid = GridSpec(extent=((-1.0, 1.0),), n=(401,))
        assert grid.dim == 1
        assert grid.h[0] == pytest.approx(2.0 / 401)
        x = grid.axis_centers(0)
        assert x[0] == pytest.approx(-1.0 + grid.h[0] / 2)
        assert x[-1] == pytest.approx(1.0 - grid.h[0] / 2)
        assert grid.interior_mask().sum() == 399

    def test_2d_geometry(self):
        grid = GridSpec(extent=((-1.0, 1.0), (0.0, 1.0)), n=(32, 16))
        assert grid.dim == 2
        assert grid.cell_volume == pytest.approx((2.0 / 32) * (1.0 / 16))
        assert grid.interior_mask().sum() == 30 * 14

    @pytest.mark.parametrize("n", [(12,), (12, 9)])
    def test_mesh_and_interior_mask(self, n):
        # per axis k, the center of each cell's index along k; the mask
        # holds the cells with no index at an end of its axis
        grid = GridSpec(extent=((-1.0, 1.0), (0.0, 3.0))[:len(n)], n=n)
        idx = np.indices(n)
        mesh = grid.meshgrid()
        assert isinstance(mesh, tuple) and len(mesh) == len(n)
        for k, m in enumerate(mesh):
            assert np.array_equal(m, grid.axis_centers(k)[idx[k]])
        inner = [(i > 0) & (i < m - 1) for i, m in zip(idx, n)]
        assert np.array_equal(grid.interior_mask(),
                              np.logical_and.reduce(inner))

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(extent=((1.0, -1.0),), n=(64,))
        with pytest.raises(DomainError):
            GridSpec(extent=((-1.0, 1.0),), n=(4,))
        # b - a overflows to inf, or an end is infinite: no finite cell width
        for extent in (((-1e308, 1e308),), ((-1.0, 1.0), (-1e308, 1e308)),
                       ((-math.inf, 1.0),)):
            with pytest.raises(DomainError, match="cell width"):
                GridSpec(extent=extent, n=(64,) * len(extent))

    def test_distance_field(self):
        grid = GridSpec(extent=((-1.0, 1.0),), n=(101,))
        d = grid.distance_to((0.5,))
        x = grid.axis_centers(0)
        assert np.allclose(d, np.abs(x - 0.5))


class TestBump:
    def test_tent_profile(self):
        g = bump((0.0,), 0.5, 2.0)
        x = np.linspace(-1, 1, 201)
        vals = g(x)
        assert vals.max() == pytest.approx(2.0)
        assert vals[np.abs(x) >= 0.5].max() == 0.0

    def test_cos2_is_smooth_at_edge(self):
        g = bump((0.0,), 0.5, 1.0, shape="cos2")
        # value and first difference vanish at the support edge
        eps = 1e-4
        assert g(np.array([0.5 - eps]))[0] < 1e-6
        assert g(np.array([0.5 + eps]))[0] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(r=st.floats(min_value=0.05, max_value=0.8),
           hgt=st.floats(min_value=0.01, max_value=0.9))
    def test_support_and_height(self, r, hgt):
        g = bump((0.0,), r, hgt)
        x = np.linspace(-1, 1, 401)
        vals = g(x)
        assert vals.max() <= hgt * (1 + 1e-12)
        assert np.all(vals[np.abs(x) > r] == 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            bump((0.0,), 0.1, 0.1, shape="box")

    @pytest.mark.parametrize("center,n", [((0.0,), (32, 32)),
                                          ((0.0, 0.3), (32,))],
                             ids=["1-d-center-on-2-d", "2-d-center-on-1-d"])
    def test_rejects_center_of_the_wrong_dimension(self, center, n):
        # a 1-D center on a 2-D grid would be a ridge across the box, and a
        # 2-D center on a 1-D grid would lose its second coordinate
        grid = GridSpec(extent=((-1.0, 1.0),) * len(n), n=n)
        with pytest.raises(DomainError, match="components"):
            grid.sample(bump(center, 0.2, 0.1))


class TestFixedPointAndGuards:
    def test_constant_state_is_bitwise_fixed(self, beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        trace = solve(prob, desk_grid, T=0.01, snapshot_times=3)
        for f in trace.fields:
            assert np.all(f == 1e-6)

    def test_cfl_violation_raises(self, beta1_table, desk_grid, desk_bump):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        u0 = 1e-6 + prob.sample_on(desk_grid)[0]
        dt = 10.0 * cfl_dt(prob, desk_grid, u0)
        with pytest.raises(CflError):
            step_explicit(u0, prob, desk_grid, dt)

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -1e-9])
    def test_step_that_is_not_positive_rejected(self, beta1_table, desk_grid,
                                                desk_bump, dt):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        u0 = prob.eps + desk_grid.sample(desk_bump)
        with pytest.raises(DomainError, match="time step"):
            step_explicit(u0, prob, desk_grid, dt)

    @pytest.mark.parametrize("shape", [(102,), (50,), (1, 101)])
    def test_field_of_the_wrong_shape_rejected(self, beta1_table, shape):
        grid = GridSpec(extent=((-1.0, 1.0),), n=(101,))
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        values = np.full(shape, 1e-3)
        with pytest.raises(DomainError, match=r"\(101,\)"):
            cfl_dt(prob, grid, values)
        with pytest.raises(DomainError, match=r"\(101,\)"):
            step_explicit(values, prob, grid, 1e-9)

    def test_max_principle_monotone(self, desk_trace_beta1):
        peaks = desk_trace_beta1.max_u_history
        assert np.all(np.diff(peaks) <= 1e-15)

    def test_range_stays_admissible(self, desk_trace_beta1):
        prob = desk_trace_beta1.prob
        for f in desk_trace_beta1.fields:
            assert f.min() >= prob.eps * (1 - 1e-12)
            assert f.max() <= prob.u_max * (1 + 1e-12)

    def test_eps_below_table_floor_rejected(self, beta1_table):
        with pytest.raises(DomainError):
            EpsProblem(table=beta1_table, eps=1e-9, g=0.0)

    def test_omega_prime_violation_rejected(self, beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((0.5,), 0.1, 0.1), psi=1.0,
                          omega_prime=((0.5,), 0.4))
        with pytest.raises(DomainError):
            prob.sample_on(desk_grid)

    def test_overfull_initial_data_rejected(self, beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((0.0,), 0.2, 2.0), psi=1.0)  # above M = 1
        with pytest.raises(DomainError):
            prob.sample_on(desk_grid)


class TestSnapshots:
    def test_schedule_endpoints(self, desk_trace_beta1):
        t = desk_trace_beta1.times
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(0.05)
        assert len(t) == 33

    def test_field_at_is_linear_between_snapshots(self, desk_trace_beta1):
        tr = desk_trace_beta1
        t0, t1 = tr.times[3], tr.times[4]
        mid = 0.5 * (t0 + t1)
        expected = 0.5 * (tr.fields[3] + tr.fields[4])
        assert np.allclose(tr.field_at(mid), expected, rtol=0, atol=1e-18)
        assert np.array_equal(tr.field_at(float(t1)), tr.fields[4])

    def test_explicit_schedule(self, beta1_table, desk_grid, desk_bump):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        trace = solve(prob, desk_grid, T=0.01,
                      snapshot_times=[0.0, 0.0033, 0.01])
        assert len(trace.fields) == 3
        with pytest.raises(DomainError):
            solve(prob, desk_grid, T=0.01, snapshot_times=[0.001, 0.01])

    def test_schedule_array_is_not_aliased(self, beta1_table, desk_grid,
                                           desk_bump):
        # endpoints within roundoff of 0 and T are snapped on a copy: the
        # caller's array keeps its values and the trace owns its times
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        sched = np.array([1e-16, 0.005, 0.01 * (1 + 1e-13)])
        before = sched.copy()
        trace = solve(prob, desk_grid, T=0.01, snapshot_times=sched)
        assert np.array_equal(sched, before)
        assert trace.times is not sched
        assert trace.times[0] == 0.0 and trace.times[-1] == 0.01
        sched[1] = 0.007
        assert trace.times[1] == 0.005

    def test_out_of_range_query(self, desk_trace_beta1):
        with pytest.raises(DomainError):
            desk_trace_beta1.field_at(1.0)

    @pytest.mark.parametrize("t", [math.nan, -1.0, 0.1],
                             ids=["nan", "negative", "twice-T"])
    def test_dissipation_query_out_of_range(self, desk_trace_beta1, t):
        # the range of field_at: np.interp alone would give nan, the
        # value at 0 and the value at T
        tr = desk_trace_beta1
        for read in (tr.field_at, tr.dissipation_at):
            with pytest.raises(DomainError, match="outside"):
                read(t)

    def test_dissipation_query_in_range(self, desk_trace_beta1):
        tr = desk_trace_beta1
        assert tr.dissipation_at(0.0) == 0.0
        assert tr.dissipation_at(tr.T) == tr.dissipation[-1]
        mid = 0.5 * (tr.times[3] + tr.times[4])
        assert tr.dissipation_at(mid) == pytest.approx(
            0.5 * (tr.dissipation[3] + tr.dissipation[4]), rel=1e-15)


class TestConvergenceAndEnergy:
    def test_self_convergence_under_refinement(self, beta1_table, desk_bump):
        finals = {}
        for n in (401, 801):
            grid = GridSpec(extent=((-1.0, 1.0),), n=(n,))
            prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
            finals[n] = (grid, solve(prob, grid, T=0.05, snapshot_times=2).fields[-1])
        g4, f4 = finals[401]
        g8, f8 = finals[801]
        f4_on_8 = np.interp(g8.axis_centers(0), g4.axis_centers(0), f4)
        gap = np.abs(f4_on_8 - f8).sum() * g8.h[0]
        # measured 3.2e-5 on the desk configuration
        assert gap <= 2e-4

    def test_energy_residual_smooth_hump(self, beta1_table):
        grid = GridSpec(extent=((-1.0, 1.0),), n=(401,))
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((-0.6,), 0.2, 0.2, shape="cos2"), psi=1.0)
        trace = solve(prob, grid, T=0.02, snapshot_times=9)
        res = energy_identity_residual(trace)
        assert res <= 2e-3  # measured 7.2e-4

    def test_energy_residual_partial_time(self, desk_trace_beta1):
        # the identity holds at interior times too, with kink-transient slack
        res = energy_identity_residual(desk_trace_beta1, tau=0.025)
        assert res <= 5e-2

    def test_dissipation_monotone(self, desk_trace_beta1):
        assert np.all(np.diff(desk_trace_beta1.dissipation) >= 0)

    def test_grad_energy_hand_value(self):
        grid = GridSpec(extent=((0.0, 1.0),), n=(64,))
        x = grid.axis_centers(0)
        E = grad_energy(2.0 * x, grid)  # |grad| = 2 everywhere
        assert E == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("n", [(64,), (801,), (40, 56), (96, 100)])
    def test_stacked_grad_energies_match_the_field_formula(self, rng, n):
        # each row of a stack, summed pairwise over its cells, against the
        # per-field differences and sums written out; (96, 100) exceeds
        # numpy's 8192-element buffer
        grid = GridSpec(extent=((0.0, 1.0),) * len(n), n=n)
        stack = rng.uniform(0.0, 1.0, (5,) + n)
        got = solver_mod._grad_energies(stack, grid)
        for row, u in zip(got, stack):
            assert row == _field_grad_energy(u, grid) == grad_energy(u, grid)


def _field_grad_energy(values, grid):
    """grad_energy of one field as it was written before the stacked pass:
    centered differences inside, one-sided at the edges, per axis."""
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


class TestDomainContract:
    """A field from outside is checked against the table's [s_min, M]
    where it enters (a march's initial field, ring included, step_explicit
    and cfl_dt); inside a march the tripwires keep it there."""

    GRID = GridSpec(extent=((-1.0, 1.0),), n=(101,))
    BAD = {"above-M": 1.5, "below-s_min": 1e-9, "nan": math.nan}

    @pytest.mark.parametrize("cell", [0, 50], ids=["ring", "interior"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("entry", ["cfl_dt", "step_explicit"])
    def test_entry_rejects_a_field_outside(self, beta1_table, entry, bad,
                                           cell):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        values = np.full(101, 1e-3)
        values[cell] = self.BAD[bad]
        with pytest.raises(DomainError, match="first offender"):
            if entry == "cfl_dt":
                cfl_dt(prob, self.GRID, values)
            else:
                step_explicit(values, prob, self.GRID, 1e-9)

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_solve_rejects_a_field_outside(self, beta1_table, bad):
        g, psi = bump((0.0,), 0.2, 0.2)(self.GRID.axis_centers(0)), 1.0
        if bad == "below-s_min":
            psi = 1e-4     # the ring's pin eps*psi = 1e-10 < s_min = 1e-8
        else:
            g[50] = self.BAD[bad]
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=g, psi=psi)
        with pytest.raises(DomainError):
            solve(prob, self.GRID, 0.001, 2)

    def test_sweep_rejects_a_pin_below_the_floor(self, beta1_table):
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((0.0,), 0.2, 0.2), psi=1e-4)
        with pytest.raises(DomainError, match="first offender 1e-10"):
            eps_sweep(prob, self.GRID, 0.001, [1e-6, 5e-7])


class TestBoundaryWeight:
    def test_nonconstant_psi_transient_reported(self, beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((-0.6,), 0.2, 0.2), psi=lambda x: 2.0 + x)
        trace = solve(prob, desk_grid, T=0.001, snapshot_times=2)
        # at the right wall psi ~ 3: pin 3e-6 vs initial 1e-6 -> ~2e-6 gap
        assert trace.boundary_transient == pytest.approx(2e-6, rel=1e-2)

    def test_negative_psi_rejected(self, beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=-1.0)
        with pytest.raises(DomainError):
            prob.sample_on(desk_grid)

    @pytest.mark.parametrize("call", ["cfl_dt", "step_explicit"])
    def test_negative_psi_rejected_by_the_single_steps(self, beta1_table,
                                                       call):
        # the pin eps*psi would hold the ring at -eps, below the floor and
        # out of the table's domain, as solve already refuses
        grid = GridSpec(extent=((-1.0, 1.0),), n=(51,))
        prob = EpsProblem(table=beta1_table, eps=1e-3,
                          g=bump((0.0,), 0.3, 0.5), psi=-1.0)
        u = prob.eps + grid.sample(prob.g)
        with pytest.raises(DomainError,
                           match="boundary weight psi must be nonnegative"):
            if call == "cfl_dt":
                cfl_dt(prob, grid, u)
            else:
                step_explicit(u, prob, grid, 1e-6)

    @pytest.mark.parametrize("call", ["cfl_dt", "step_explicit"])
    @pytest.mark.parametrize("data, message", [
        ({"g": -0.01}, "initial hump g must be nonnegative"),
        ({"g": 2.0}, "initial data range"),
        ({"g": bump((0.0,), 0.3, 0.5), "omega_prime": ((0.0,), 0.2)},
         "g does not vanish on the declared empty ball"),
    ], ids=["negative-g", "above-u_max", "g-on-empty-ball"])
    def test_problem_data_checked_by_the_single_steps(self, beta1_table,
                                                      call, data, message):
        # the single steps sample the problem as solve does, so they reject
        # the same data, even for a state that is itself in range
        grid = GridSpec(extent=((-1.0, 1.0),), n=(51,))
        prob = EpsProblem(table=beta1_table, eps=1e-3, **data)
        u = prob.eps + grid.sample(bump((0.0,), 0.3, 0.5))
        with pytest.raises(DomainError, match=message):
            if call == "cfl_dt":
                cfl_dt(prob, grid, u)
            else:
                step_explicit(u, prob, grid, 1e-6)


class TestSweep:
    def test_identical_floors_give_zero_gap(self, beta1_table, desk_grid,
                                            desk_bump):
        prob = EpsProblem(table=beta1_table, eps=1e-3, g=desk_bump, psi=1.0)
        result = eps_sweep(prob, desk_grid, T=0.001, eps_values=[1e-3, 1e-3])
        assert result.distances[0] == 0.0

    def test_single_value_rejected(self, beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-3, g=0.0, psi=1.0)
        with pytest.raises(DomainError):
            eps_sweep(prob, desk_grid, T=0.001, eps_values=[1e-3])


class TestTwoDimensions:
    def test_smoke_run(self, beta1_table):
        grid = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(48, 48))
        prob = EpsProblem(table=beta1_table, eps=1e-5,
                          g=bump((0.0, 0.0), 0.4, 0.2, shape="cos2"), psi=1.0)
        trace = solve(prob, grid, T=0.01, snapshot_times=3)
        assert trace.fields[-1].shape == (48, 48)
        assert np.all(np.diff(trace.max_u_history) <= 1e-15)
        res = energy_identity_residual(trace)
        assert np.isfinite(res) and res < 0.1

    def test_2d_constant_fixed_point(self, beta1_table):
        grid = GridSpec(extent=((0.0, 1.0), (0.0, 1.0)), n=(16, 16))
        prob = EpsProblem(table=beta1_table, eps=1e-5, g=0.0, psi=1.0)
        trace = solve(prob, grid, T=0.005, snapshot_times=2)
        assert np.all(trace.fields[-1] == 1e-5)


def _reference_solve(prob, grid, T):
    """The loop solve() ran before the shared kernel: two column
    evaluations for D, boolean-mask pinning, a full-grid Laplacian.
    Returns (n_steps, final field)."""
    interior = grid.interior_mask()
    h = grid.h[0]
    pin = prob.eps * grid.sample(prob.psi)
    u = prob.eps + grid.sample(prob.g)
    u[~interior] = pin[~interior]
    t, n_steps = 0.0, 0
    while t < T - 1e-15 * T:
        D = prob.table.eval("F", u) / prob.table.eval("h", u) + prob.eps
        dt = min(solver_mod.SAFETY * h ** 2 / (2.0 * float(D.max())), T - t)
        lap = np.zeros_like(u)
        lap[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h ** 2
        u = u + dt * D * lap
        u[~interior] = pin[~interior]
        t += dt
        n_steps += 1
    return n_steps, u


class TestSharedKernel:
    @pytest.mark.parametrize("kind", [*sorted(PROFILES), "constant"])
    def test_diffusivity_is_the_profile_plus_eps(self, kind):
        # D reads the table's profile, not an interpolant of it: bit for
        # bit, on a 2-D field as on the nodes
        if kind == "constant":
            table = constant_table(F0=2.0, h0=0.5)
        else:
            table = build_table(PROFILES[kind].make_profile(),
                                LambdaChoice(1.0))
        prof = table.profile
        s = np.geomspace(table.s_min, table.M, 20000).reshape(4, -1)
        for eps in sorted({table.s_min, max(table.s_min, 1e-3)}):
            prob = EpsProblem(table=table, eps=eps)
            assert np.array_equal(prob.diffusivity(s), prof(s) + eps)
            assert np.array_equal(prob.diffusivity(table.s),
                                  prof(table.s) + eps)
            if kind == "constant":
                assert np.all(prob.diffusivity(s) == 4.0 + eps)

    def test_solve_matches_reference_loop(self, beta1_table, desk_bump):
        grid = GridSpec(extent=((-1.0, 1.0),), n=(201,))
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        n_ref, u_ref = _reference_solve(prob, grid, 0.05)
        trace = solve(prob, grid, 0.05, snapshot_times=2)
        assert trace.n_steps == n_ref
        assert np.max(np.abs(trace.fields[-1] - u_ref)) <= 1e-12

    def test_step_explicit_is_one_solve_step(self, beta1_table, desk_grid,
                                            desk_bump):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        u0 = prob.eps + desk_grid.sample(desk_bump)
        dt = cfl_dt(prob, desk_grid, u0)
        one = step_explicit(u0, prob, desk_grid, dt)
        trace = solve(prob, desk_grid, dt, snapshot_times=2)
        assert trace.n_steps == 1
        assert np.array_equal(one, trace.fields[-1])

    def test_overshoot_raises_at_the_failing_step(self, beta1_table,
                                                  desk_grid, desk_bump,
                                                  monkeypatch):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        n_full = solve(prob, desk_grid, 0.01, snapshot_times=2).n_steps
        calls = []
        honest = solver_mod._Kernel.step

        def counted(*args, **kwargs):
            calls.append(1)
            return honest(*args, **kwargs)

        monkeypatch.setattr(solver_mod._Kernel, "step", counted)
        # steps ten times the stable one: the first update from the smooth
        # bump stays in range, the second overshoots
        monkeypatch.setattr(solver_mod, "SAFETY", 10.0 * solver_mod.SAFETY)
        with pytest.raises(RangeError):
            solve(prob, desk_grid, 0.01, snapshot_times=2)
        # caught by the per-step tripwire at that step, long before the
        # field reaches T (n_full // 10 steps of this size)
        assert 0 < len(calls) <= 2 < n_full // 10, (len(calls), n_full)


class TestStepBudget:
    """The step budget is checked once, before the first step, from max D
    over the whole initial field: its projected dt is the first step's CFL
    bound dt0, bit for bit, so with a budget of one step a run to T = dt0
    passes and one to the next float above fails.  The window is partial
    (psi = 1) or the whole interior (the ring pinned off the floor,
    psi = 2)."""

    @pytest.mark.parametrize("psi", [1.0, 2.0])
    @pytest.mark.parametrize("kind", sorted(PROFILES) + ["constant"])
    def test_projected_dt_is_the_first_step(self, kind, psi, monkeypatch):
        if kind == "constant":
            tab, eps = constant_table(), 1e-3
        else:
            # exp_inv's table starts at its floor s_min = 1e-2
            eps = 1e-2 if kind == "exp_inv" else 1e-3
            tab = build_table(PROFILES[kind].make_profile(), LambdaChoice(1.0))
        for grid, center in [
                (GridSpec(extent=((-1.0, 1.0),), n=(101,)), (-0.3,)),
                (GridSpec(extent=((-1.0, 1.0),) * 2, n=(24, 20)),
                 (-0.3, 0.2))]:
            prob = EpsProblem(table=tab, eps=eps, g=bump(center, 0.3, 0.5),
                              psi=psi)
            dt0 = solve(prob, grid, 0.05, snapshot_times=2).dt_history[0]
            assert dt0 < 0.05
            with monkeypatch.context() as m:
                m.setattr(solver_mod, "MAX_STEPS", 1)
                assert solve(prob, grid, dt0, snapshot_times=2).n_steps == 1
                with pytest.raises(CflError, match="budget of 1$"):
                    solve(prob, grid, np.nextafter(dt0, np.inf),
                          snapshot_times=2)

    def test_rejected_before_the_first_step(self, beta1_table, desk_grid,
                                            desk_bump, monkeypatch):
        steps = []
        honest = solver_mod._Kernel.step
        monkeypatch.setattr(solver_mod._Kernel, "step",
                            lambda *args: steps.append(1) or honest(*args))
        monkeypatch.setattr(solver_mod, "MAX_STEPS", 10)
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        peak = int(np.argmax(desk_grid.sample(desk_bump)))
        with pytest.raises(CflError, match=rf"at cell \({peak},\)"):
            solve(prob, desk_grid, 1.0)
        assert not steps


class TestMaxPrincipleAtTheBound:
    """One step_explicit at cfl_dt keeps every new interior value between
    the min and max of its stencil's old values, for every registry kind,
    on fields built to break it: a checkerboard between the floor and
    u_max, a tent whose kinks sit a few cells apart, and a 2-D checkerboard
    with hx != hy.  Under SAFETY <= 1 each update is a convex combination
    of its stencil; the slack is the tripwires' own, 1e-12 of u_max."""

    GRID_1D = GridSpec(extent=((-1.0, 1.0),), n=(64,))
    GRID_2D = GridSpec(extent=((-1.0, 1.0), (0.0, 0.5)), n=(16, 24))

    @pytest.fixture(scope="class", params=sorted(PROFILES))
    def kind_problem(self, request):
        s_min = 1e-2 if request.param == "exp_inv" else 1e-8
        tab = build_table(PROFILES[request.param].make_profile(),
                          LambdaChoice(1.0), s_min=s_min, K=256)
        return EpsProblem(table=tab, eps=max(s_min, 1e-6))

    @classmethod
    def _field(cls, name, eps, top):
        if name == "checkerboard":
            grid = cls.GRID_1D
            u = np.where(np.arange(grid.n[0]) % 2, top, eps)
        elif name == "kinked-tent":
            grid = cls.GRID_1D
            u = eps + grid.sample(bump((0.0,), 3.5 * grid.h[0], top - eps))
        else:
            grid = cls.GRID_2D
            i, j = np.indices(grid.n)
            u = np.where((i + j) % 2, top, eps)
        return grid, u

    def test_safety_is_a_convex_fraction(self):
        assert 0.0 < solver_mod.SAFETY <= 1.0

    @pytest.mark.parametrize("name", ["checkerboard", "kinked-tent",
                                      "checkerboard-2d-hx-ne-hy"])
    def test_each_cell_within_its_stencil(self, kind_problem, name):
        prob = kind_problem
        grid, u = self._field(name, prob.eps, prob.u_max)
        new = step_explicit(u, prob, grid, cfl_dt(prob, grid, u))
        if grid.dim == 1:
            stencil = [u[:-2], u[1:-1], u[2:]]
        else:
            stencil = [u[1:-1, 1:-1], u[:-2, 1:-1], u[2:, 1:-1],
                       u[1:-1, :-2], u[1:-1, 2:]]
        lo, hi = np.minimum.reduce(stencil), np.maximum.reduce(stencil)
        inner = new[(slice(1, -1),) * grid.dim]
        slack = 1e-12 * prob.u_max
        assert np.all(inner >= lo - slack) and np.all(inner <= hi + slack)
        # the step moved the field: the check is not of a no-op
        assert np.any(inner != u[(slice(1, -1),) * grid.dim])


def _full_grid_solve(prob, grid, T, n_snap):
    """The solve loop before the active window: every step evaluates D and
    updates every interior cell.  Returns (fields, dissipation, dt_history,
    max_u_history)."""
    g_vals, psi_vals = prob.sample_on(grid)
    cfl = solver_mod.SAFETY * min(h ** 2 for h in grid.h) / (2.0 * grid.dim)
    inner = (slice(1, -1),) * grid.dim
    h2 = [h ** 2 for h in grid.h]
    pin = prob.eps * psi_vals
    u = pin.copy()
    u[inner] = (prob.eps + g_vals)[inner]
    times = np.linspace(0.0, T, n_snap)
    fields, diss_at = [u.copy()], [0.0]
    t, diss, dts, maxes = 0.0, 0.0, [], []
    while t < T - 1e-15 * T:
        D = prob.diffusivity(u)
        dt = min(cfl / float(D.max()), T - t)
        if grid.dim == 1:
            lap = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h2[0]
        else:
            lap = ((u[:-2, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[2:, 1:-1]) / h2[0]
                   + (u[1:-1, :-2] - 2.0 * u[1:-1, 1:-1] + u[1:-1, 2:]) / h2[1])
        new = pin.copy()
        new[inner] = u[inner] + dt * D[inner] * lap
        du = new[inner] - u[inner]
        diss_new = diss + float(np.sum(du * du / D[inner])) / dt * grid.cell_volume
        t_new = t + dt
        while len(fields) < n_snap and times[len(fields)] <= t_new + 1e-15 * T:
            w = (times[len(fields)] - t) / dt
            fields.append(u + w * (new - u))
            diss_at.append(diss + w * (diss_new - diss))
        dts.append(dt)
        maxes.append(float(new.max()))
        u, t, diss = new, t_new, diss_new
    if len(fields) < n_snap:
        fields.append(u.copy())
        diss_at.append(diss)
    return fields, np.array(diss_at), np.array(dts), np.array(maxes)


def _oracle_hump(x, y):
    return 0.5 * np.maximum(0.25 - (x - 0.1) ** 2 - (y + 0.2) ** 2, 0.0)


def _falling_D_table():
    """D = P + eps largest at the floor: F = 1, h = 1 + 10 s, so
    P = 1/(1 + 10 s), the profile the table carries."""
    s = np.geomspace(1e-8, 1.0, 64)
    ones = np.ones_like(s)
    profile = DegeneracyProfile(func=lambda v: 1.0 / (1.0 + 10.0 * v),
                                M=1.0, c3=1.0)
    return CoefficientTable(s=s, I=ones, H=s, h=1.0 + 10.0 * s, F=ones,
                            Fprime=0.0 * s, G=0.0 * s, profile=profile)


class TestDeskStepPlacement:
    def test_desk_seed_zero_counts(self, beta1_table):
        # the benchmark desk's seed-0 inputs: counts that depend on no
        # machine and pin where every step lands and how wide its window is
        grid = GridSpec(extent=((-1.0, 1.0),), n=(801,))
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((-0.6,), 0.2, 0.2), psi=1.0,
                          omega_prime=((0.5,), 0.4))
        trace = solve(prob, grid, 0.05, 33)
        assert trace.n_steps == 2739
        assert trace.cell_updates == 476_820


class TestActiveWindow:
    """The windowed step against the full-grid loop: skipping cells that hold
    eps with eps neighbors is exact, so fields, steps and maxima must agree
    bit for bit."""

    GRID_1D = GridSpec(extent=((-1.0, 1.0),), n=(201,))
    GRID_2D = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(32, 32))
    # hx != hy, so the 2-D Laplacian's two scalings differ
    GRID_RECT = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(48, 40))
    CASES = {
        "tent": (GRID_1D, dict(g=bump((-0.6,), 0.2, 0.2)), 0.05),
        "cos2": (GRID_1D, dict(g=bump((0.1,), 0.3, 0.05, shape="cos2")), 0.02),
        "oracle-2d": (GRID_2D, dict(g=_oracle_hump), 0.02),
        "rect-2d": (GRID_RECT, dict(g=_oracle_hump), 0.02),
        "psi": (GRID_1D, dict(g=bump((-0.6,), 0.2, 0.2),
                              psi=lambda x: 1.0 + 0.5 * np.cos(x)), 0.01),
        "ring": (GRID_1D, dict(g=bump((-0.9,), 0.2, 0.2)), 0.02),
        "g-positive": (GRID_1D, dict(g=lambda x: 0.1 + 0.05 * np.cos(3 * x)),
                       0.005),
        "falling-D": (GRID_1D, dict(g=bump((0.2,), 0.2, 0.2)), 0.01),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_grid_loop(self, beta1_table, case):
        grid, data, T = self.CASES[case]
        table = _falling_D_table() if case == "falling-D" else beta1_table
        prob = EpsProblem(table=table, eps=1e-6, **data)
        fields, diss, dts, maxes = _full_grid_solve(prob, grid, T, 5)
        trace = solve(prob, grid, T, snapshot_times=5)
        assert trace.n_steps == len(dts)
        assert all(np.array_equal(a, b) for a, b in zip(trace.fields, fields))
        assert np.array_equal(trace.dt_history, dts)
        assert np.array_equal(trace.max_u_history, maxes)
        assert np.max(np.abs(trace.dissipation - diss)
                      / np.maximum(np.abs(diss), 1e-300)) <= 1e-13
        full = trace.n_steps * int(grid.interior_mask().sum())
        if case in ("tent", "cos2", "oracle-2d", "rect-2d", "ring",
                    "falling-D"):
            assert trace.cell_updates < full
        else:
            assert trace.cell_updates == full

    @pytest.mark.parametrize("ring", [1e-6, 2e-6], ids=["pins", "off-pins"])
    @pytest.mark.parametrize("case", ["tent", "rect-2d"])
    def test_single_steps_leave_their_input_alone(self, beta1_table, case,
                                                  ring):
        # the kernel steps a pair of fields it owns: the caller's array is
        # read, ring as given, and never written, also where its ring
        # differs from the pins eps*psi = 1e-6
        grid, data, _ = self.CASES[case]
        prob = EpsProblem(table=beta1_table, eps=1e-6, **data)
        u = prob.eps + grid.sample(prob.g)
        u[~grid.interior_mask()] = ring
        before = u.tobytes()
        new = step_explicit(u, prob, grid, cfl_dt(prob, grid, u))
        assert u.tobytes() == before
        assert not np.shares_memory(new, u)
        assert np.all(new[~grid.interior_mask()] == prob.eps)
        assert not np.array_equal(new, u)

    def test_desk_work_count(self, desk_trace_beta1, desk_grid):
        interior = int(desk_grid.interior_mask().sum())
        assert 0 < desk_trace_beta1.cell_updates \
            < desk_trace_beta1.n_steps * interior / 2


class TestNonFiniteFinalTime:
    """0 < T < inf, or the march would never reach T (NaN compares false
    with every time, and min(dt, T - t) ignores it)."""

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf, 0.0],
                             ids=["nan", "inf", "-inf", "zero"])
    def test_solve_rejects(self, beta1_table, desk_grid, desk_bump, T):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        with pytest.raises(DomainError):
            solve(prob, desk_grid, T, snapshot_times=2)

    @pytest.mark.parametrize("T", [np.nan, np.inf], ids=["nan", "inf"])
    def test_eps_sweep_rejects(self, beta1_table, desk_grid, desk_bump, T):
        prob = EpsProblem(table=beta1_table, eps=1e-3, g=desk_bump, psi=1.0)
        with pytest.raises(DomainError):
            eps_sweep(prob, desk_grid, T, eps_values=[1e-3, 5e-4])


def _assert_same_trace(got, ref):
    assert got.n_steps == ref.n_steps
    assert len(got.fields) == len(ref.fields)
    assert all(np.array_equal(a, b) for a, b in zip(got.fields, ref.fields))
    assert np.array_equal(got.times, ref.times)
    assert np.array_equal(got.dt_history, ref.dt_history)
    assert np.array_equal(got.max_u_history, ref.max_u_history)
    assert np.array_equal(got.dissipation, ref.dissipation)
    assert got.boundary_transient == ref.boundary_transient


def _check_ladder(prob, grid, T, ladder, snapshot_times=2):
    """Each floor's `solve`, against eps_sweep's finals bit for bit (the
    finals do not depend on the snapshot schedule) and its step counts;
    every final lies within [eps*min(psi, 1), max of its initial field],
    to 1e-12.  Returns the sweep and the traces."""
    traces = [solve(replace(prob, eps=e), grid, T, snapshot_times)
              for e in ladder]
    sweep = eps_sweep(prob, grid, T, ladder)
    assert all(np.array_equal(a, tr.fields[-1])
               for a, tr in zip(sweep.finals, traces))
    assert sweep.n_steps == [tr.n_steps for tr in traces]
    psi_lo = min(1.0, float(grid.sample(prob.psi).min()))
    for e, tr in zip(ladder, traces):
        assert tr.fields[-1].min() >= e * psi_lo - 1e-12
        assert tr.fields[-1].max() <= tr.fields[0].max() + 1e-12
    return sweep, traces


class TestFloorLadder:
    """The floor ladder, one `solve` per eps: the step counts and L1 gaps
    it gives, and the range each final must keep."""

    LAB_LADDER = [1e-3 * 2.0 ** (-k) for k in range(5)]
    LAB_GRID = GridSpec(extent=((-1.0, 1.0),), n=(401,))

    def lab_problem(self, table):
        return EpsProblem(table=table, eps=1e-6, g=bump((-0.6,), 0.2, 0.2),
                          psi=1.0, omega_prime=((0.5,), 0.4))

    @staticmethod
    def assert_recorded(sweep, n_steps, gaps):
        assert sweep.n_steps == n_steps
        np.testing.assert_allclose(sweep.distances, gaps, rtol=1e-12, atol=0)

    def test_lab_ladder(self, beta1_table):
        sweep, _ = _check_ladder(self.lab_problem(beta1_table), self.LAB_GRID,
                                 0.05, self.LAB_LADDER)
        self.assert_recorded(sweep, [695, 691, 689, 688, 687], [
            0.0011745948210748103, 0.0006255284219003448,
            0.00034280110373936036, 0.0001956261686941019])
        assert sweep.is_cauchy()

    def test_floors_take_different_step_counts(self, beta1_table):
        sweep, _ = _check_ladder(self.lab_problem(beta1_table),
                                 self.LAB_GRID, 0.05, [1e-3, 0.1, 1e-4, 0.3])
        self.assert_recorded(sweep, [695, 1562, 688, 3450], [
            0.20274685169027168, 0.2049644972157024, 0.602998191659939])

    def test_2d_with_repeated_floor(self, beta1_table):
        grid = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(48, 48))
        prob = EpsProblem(table=beta1_table, eps=1e-5,
                          g=bump((0.1, -0.2), 0.4, 0.2, shape="cos2"), psi=1.0)
        sweep, traces = _check_ladder(prob, grid, 0.01,
                                      [5e-4, 1e-3, 5e-4, 1e-4])
        self.assert_recorded(sweep, [6, 6, 6, 6], [
            0.0020010804675340177, 0.0020010804675340177,
            0.0016008693746390826])
        _assert_same_trace(traces[2], traces[0])

    def test_hump_fills_the_box(self, beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=lambda x: 0.1 + 0.05 * np.cos(3 * x), psi=1.0)
        sweep, traces = _check_ladder(prob, desk_grid, 0.005,
                                      [1e-3, 1e-4, 1e-5])
        self.assert_recorded(sweep, [77, 76, 76], [
            0.0017607371605143937, 0.00017601270758587061])
        interior = int(desk_grid.interior_mask().sum())
        assert all(tr.cell_updates == tr.n_steps * interior for tr in traces)

    def test_nonconstant_psi(self, beta1_table, desk_grid):
        # the ring pin eps*psi differs from eps, and differently per floor
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=bump((-0.6,), 0.2, 0.2),
                          psi=lambda x: 1.0 + 0.5 * np.cos(x))
        sweep, _ = _check_ladder(prob, desk_grid, 0.01, [1e-3, 1e-4, 1e-5])
        self.assert_recorded(sweep, [172, 170, 170], [
            0.0018394668865209319, 0.00018728253812173872])

    def test_explicit_snapshot_list(self, beta1_table, desk_grid, desk_bump):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        times = [0.0, 0.0011, 0.004, 0.0095, 0.01]
        sweep, traces = _check_ladder(prob, desk_grid, 0.01,
                                      [4e-5, 2e-4, 1e-3], snapshot_times=times)
        self.assert_recorded(sweep, [170, 171, 172], [
            0.00033055193459345715, 0.0016293199552325733])
        assert all(np.array_equal(tr.times, times) for tr in traces)

    @pytest.mark.parametrize("kind", sorted(PROFILES) + ["constant"])
    def test_every_kind_is_solve(self, kind):
        # exp_inv's table, and so its ladder, starts at s_min = 1e-2
        if kind == "constant":
            tab, ladder = constant_table(), [1e-3, 5e-4, 2.5e-4]
        else:
            s_min = 1e-2 if kind == "exp_inv" else 1e-8
            tab = build_table(PROFILES[kind].make_profile(), LambdaChoice(1.0),
                              s_min=s_min, K=256)
            ladder = ([4e-2, 2e-2, 1e-2] if kind == "exp_inv"
                      else [1e-3, 5e-4, 2.5e-4])
        grid = GridSpec(extent=((-1.0, 1.0),), n=(101,))
        prob = EpsProblem(table=tab, eps=ladder[0],
                          g=bump((-0.3,), 0.3, 0.5), psi=1.0)
        sweep, traces = _check_ladder(prob, grid, 0.01, ladder)
        assert all(tr.n_steps > 1 for tr in traces)

    @settings(max_examples=12, deadline=None)
    @given(ladder=st.lists(st.floats(min_value=1e-6, max_value=1e-2),
                           min_size=2, max_size=6),
           center=st.floats(min_value=-0.8, max_value=0.8),
           height=st.floats(min_value=0.05, max_value=0.5),
           T=st.floats(min_value=1e-4, max_value=0.02))
    def test_random_ladders(self, beta1_table, ladder, center, height, T):
        grid = GridSpec(extent=((-1.0, 1.0),), n=(64,))
        prob = EpsProblem(table=beta1_table, eps=1e-6,
                          g=bump((center,), 0.3, height), psi=1.0)
        _check_ladder(prob, grid, T, ladder)

    def test_overshoot_raises_in_the_first_rung(
            self, beta1_table, desk_grid, desk_bump, monkeypatch):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        floors = []
        honest = solver_mod._Kernel.step

        def counted(kern, *args):
            floors.append(kern.eps)
            return honest(kern, *args)

        monkeypatch.setattr(solver_mod._Kernel, "step", counted)
        # steps ten times the stable one overshoot within two steps
        monkeypatch.setattr(solver_mod, "SAFETY", 10.0 * solver_mod.SAFETY)
        with pytest.raises(RangeError) as info:
            eps_sweep(prob, desk_grid, 0.01, [1e-3, 1e-4, 1e-5])
        assert "eps=0.001:" in str(info.value)
        # no later floor is marched
        assert 0 < len(floors) <= 2 and set(floors) == {1e-3}, floors

    def test_overshoot_in_a_later_rung_names_its_floor(
            self, beta1_table, desk_grid, desk_bump, monkeypatch):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        n_first = solve(replace(prob, eps=1e-3), desk_grid, 0.01, 2).n_steps
        floors = []
        honest_init, honest_step = solver_mod._Kernel.__init__, \
            solver_mod._Kernel.step

        def stiff_second_rung(kern, *args):
            honest_init(kern, *args)
            if kern.eps == 1e-4:
                kern.cfl *= 10.0     # overshoots within two steps

        def counted(kern, *args):
            floors.append(kern.eps)
            return honest_step(kern, *args)

        monkeypatch.setattr(solver_mod._Kernel, "__init__", stiff_second_rung)
        monkeypatch.setattr(solver_mod._Kernel, "step", counted)
        with pytest.raises(RangeError) as info:
            eps_sweep(prob, desk_grid, 0.01, [1e-3, 1e-4, 1e-5])
        assert "eps=0.0001:" in str(info.value)
        # the first floor is marched to T, the third never
        assert floors[:n_first] == [1e-3] * n_first
        assert 0 < len(floors) - n_first <= 2
        assert set(floors[n_first:]) == {1e-4}, floors

    def test_every_floor_is_checked_before_the_first_is_marched(
            self, beta1_table, desk_grid, desk_bump, monkeypatch):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        steps = []
        honest = solver_mod._Kernel.step

        def counted(kern, *args):
            steps.append(kern.eps)
            return honest(kern, *args)

        monkeypatch.setattr(solver_mod._Kernel, "step", counted)
        # the last floor lies below the table's s_min = 1e-8
        with pytest.raises(DomainError, match="eps=1e-09 below"):
            eps_sweep(prob, desk_grid, 0.01, [1e-3, 1e-4, 1e-9])
        assert steps == []


class TestExactSolution:
    """Power profile beta = 1 with Lambda = 1: the eps -> 0 limit is
    u_t = u * lap(u), solved exactly by the separable hump
    u = A0 (R^2 - |x|^2)_+ / (1 + 2 N A0 t) in N dimensions, whose support
    does not move.  The solve carries the floor eps = 1e-6 and is compared
    after subtracting it, at A0 = R = T = 0.5.

    Known 1-D stall: the L1 error hardly falls with h.  It measures 2.89%,
    2.55%, 2.38% and 2.30% of the mass at 101, 201, 401 and 801 cells, and
    in 2-D 4.50% and 5.20% at 48 and 64 cells a side, with the explicit
    step at SAFETY = 0.8 (at 0.4: 2.92%, 2.56%, 2.39%, 2.31%, 4.64% and
    5.29%, which set the bounds).  The candidate cause is the discrete
    front: the first cell outside the support grows like
    eps * exp(2 A0 R t / h), so the front creeps where the exact one stands
    still.  The bounds are those measurements with 25% headroom: the run is
    deterministic, so only a change of the scheme moves them, and a broken
    stencil, CFL bound or floor moves them by far more.
    """

    A0 = R = T = 0.5

    def _l1_over_mass(self, table, dim, n):
        grid = GridSpec(extent=((-1.0, 1.0),) * dim, n=(n,) * dim)
        A0, R, T = self.A0, self.R, self.T

        def hump(*x):
            return A0 * np.maximum(R * R - sum(xi ** 2 for xi in x), 0.0)

        prob = EpsProblem(table=table, eps=1e-6, g=hump, psi=1.0)
        num = solve(prob, grid, T, snapshot_times=2).fields[-1] - prob.eps
        exact = grid.sample(hump) / (1.0 + 2.0 * dim * A0 * T)
        return float(np.abs(num - exact).sum() / exact.sum())

    def test_1d(self, beta1_table):
        # measured 0.02383 on 401 cells
        assert self._l1_over_mass(beta1_table, 1, 401) <= 0.03

    def test_2d(self, beta1_table):
        # measured 0.05201 on 64 x 64 cells
        assert self._l1_over_mass(beta1_table, 2, 64) <= 0.066


class TestTimeStepConvergence:
    """The explicit solve converges in dt: on the 401-cell desk config, the
    finals at SAFETY S, S/2 and S/4 approach a run at S/16 by at least 1.6
    times per halving (first order gives 15/7 and 7/3), and the gap at S
    is under 1% of TestExactSolution's 1-D error, so the step size is
    chosen for accuracy, not only for stability."""

    def test_first_order_and_small(self, beta1_table, desk_grid, desk_bump,
                                   monkeypatch):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=desk_bump, psi=1.0)
        S = solver_mod.SAFETY
        finals = []
        for s in (S, S / 2, S / 4, S / 16):
            monkeypatch.setattr(solver_mod, "SAFETY", s)
            finals.append(solve(prob, desk_grid, 0.05, 2).fields[-1])
        monkeypatch.setattr(solver_mod, "SAFETY", S)    # for the oracle
        ref = finals.pop()
        mass = float((ref - prob.eps).sum())
        gaps = [float(np.abs(f - ref).sum()) / mass for f in finals]
        assert all(a >= 1.6 * b for a, b in zip(gaps, gaps[1:])), gaps
        oracle = TestExactSolution()._l1_over_mass(beta1_table, 1, 401)
        assert gaps[0] < 0.01 * oracle, (gaps, oracle)
