"""Cutoffs, exponents, the closed-form iteration bound, measured energies.

Oracles here: a plain-Python hand quadrature of the localized energy for
constant states, and a direct recursion for the closed-form bound.  The
frozen desk constants (D = 1518.75, threshold ~1.21e-14) follow from
b = 3, R = 0.4, unit constants, and the exponent pack at lam = 1, j = 2.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstein import localization
from degenstein.cli import write_snapshots_csv
from degenstein.coeffs import COLUMNS, CoefficientTable
from degenstein.errors import DomainError, GeometryError
from degenstein.kinetic import kernel_moments, power_family_kernel
from degenstein.localization import (CutoffFamily, ExponentPack,
                                     de_giorgi_trace, default_j, empty_radius,
                                     energy_Y, front_radius, front_series,
                                     lady_bound, lady_threshold,
                                     table_state_eval, time_to_threshold)
from degenstein.solver import EpsProblem, GridSpec, SolveTrace, bump, solve

X0 = (0.5,)
R, RP = 0.4, 0.2
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@pytest.fixture(scope="module")
def cutoffs():
    return CutoffFamily(x0=X0, R=R, Rp=RP)


@pytest.fixture(scope="module")
def desk_pack(cutoffs, beta1_table):
    return ExponentPack.build(cutoffs, N_dim=1, table=beta1_table)


def make_constant_trace(grid, prob, value, T=0.05, m=5):
    """Synthetic trace holding a constant field; enough structure for the
    energy quadrature."""
    times = np.linspace(0.0, T, m)
    fields = np.full((m, *grid.n), value)
    return SolveTrace(grid=grid, prob=prob, times=times, fields=fields,
                      dissipation=np.zeros(m), dt_history=np.array([T / m]),
                      max_u_history=np.array([value]), boundary_transient=0.0,
                      n_steps=1)


class TestCutoffFamily:
    def test_radii_interpolate_R_to_Rp(self, cutoffs):
        assert cutoffs.b == pytest.approx(3.0)
        assert cutoffs.R_n(0) == pytest.approx(R)
        assert cutoffs.R_n(60) == pytest.approx(RP, rel=1e-12)
        radii = [cutoffs.R_n(n) for n in range(10)]
        assert np.all(np.diff(radii) < 0)

    def test_theta_plateaus(self, cutoffs, desk_grid):
        for n in (0, 2, 5):
            theta = cutoffs.theta(desk_grid, n)
            d = desk_grid.distance_to(X0)
            assert np.all((theta >= 0) & (theta <= 1))
            assert np.all(theta[d <= cutoffs.R_n(n + 1) - 1e-12] == 1.0)
            assert np.all(theta[d >= cutoffs.R_n(n) + 1e-12] == 0.0)

    def test_lipschitz_bound(self, cutoffs, desk_grid):
        h = desk_grid.h[0]
        for n in (0, 1, 4):
            theta = cutoffs.theta(desk_grid, n)
            slope = np.abs(np.diff(theta)) / h
            limit = cutoffs.b ** (n + 1) / R * (1 + h / R)
            assert slope.max() <= limit

    def test_geometry_error_outside_box(self, desk_grid):
        bad = CutoffFamily(x0=np.array([0.9]), R=0.4, Rp=0.2)
        with pytest.raises(GeometryError, match=r"at \(0\.9,\) leaves"):
            bad.theta(desk_grid, 0)

    def test_bad_radii(self):
        with pytest.raises(GeometryError):
            CutoffFamily(x0=(0.0,), R=0.2, Rp=0.4)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_nonfinite_center_rejected(self, c):
        with pytest.raises(GeometryError, match="not finite"):
            CutoffFamily(x0=(c,), R=R, Rp=RP)
        with pytest.raises(GeometryError, match="not finite"):
            CutoffFamily(x0=(0.5, c), R=R, Rp=RP)


class TestExponentPack:
    def test_desk_constants_frozen(self, desk_pack):
        assert desk_pack.k == pytest.approx(0.2, rel=1e-14)
        assert desk_pack.beta_exp == pytest.approx(1.0, rel=1e-12)
        assert desk_pack.delta == pytest.approx(0.4, rel=1e-12)
        assert desk_pack.D == pytest.approx(1518.75, rel=1e-12)
        assert desk_pack.threshold == pytest.approx(1.2085610364491632e-14,
                                                    rel=1e-9)

    def test_default_j(self):
        assert default_j(1) == 2.0
        assert default_j(2) == 2.0
        assert default_j(3) == 2.0
        assert default_j(4) == pytest.approx(1.0)
        assert default_j(6) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(lam=st.floats(min_value=0.05, max_value=1.95),
           j=st.floats(min_value=0.05, max_value=4.0))
    def test_algebraic_identities(self, lam, j):
        pack = ExponentPack(lam=lam, j=j, b=3.0, R=0.4)
        assert 0.0 < pack.k < 1.0
        assert (1.0 + j) * pack.k < 1.0
        assert pack.beta_exp > 0.0
        lhs = pack.beta_exp + 1.0 - (1.0 + j) * pack.k
        rhs = pack.beta_exp * (1.0 + pack.k * j)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_build_reads_the_table_lam(self, cutoffs, beta1_table):
        pack = ExponentPack.build(cutoffs, N_dim=1, table=beta1_table)
        assert pack.lam == beta1_table.lam
        no_Lambda = CoefficientTable(**{c: getattr(beta1_table, c)
                                        for c in COLUMNS},
                                     profile=beta1_table.profile)
        for table in (None, no_Lambda):
            with pytest.raises(DomainError, match="need lam directly"):
                ExponentPack.build(cutoffs, N_dim=1, table=table)

    def test_validation(self):
        with pytest.raises(DomainError):
            ExponentPack(lam=2.5, j=2.0, b=3.0, R=0.4)
        with pytest.raises(DomainError):
            ExponentPack(lam=1.0, j=2.0, b=1.5, R=0.4)


class TestLadyBound:
    def test_zero_start_is_absorbing(self):
        for n in (0, 1, 7, 20):
            assert lady_bound(2.0, 3.0, 0.4, 0.0, n) == 0.0

    def test_unit_parameters_frozen_squares(self):
        # c = b = 1, delta = 1: y_{n+1} = y_n^2, so y_n = 0.5^(2^n)
        for n in range(11):
            got = lady_bound(1.0, 1.0, 1.0, 0.5, n)
            assert got == pytest.approx(0.5 ** (2 ** n), rel=1e-12)

    def test_matches_log_space_recursion(self, rng):
        # Saturated recursion run in log space; iterates dive far into the
        # denormal range, where the plain float recursion loses digits.
        for _ in range(200):
            c = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(1.0, 5.0))
            delta = float(rng.uniform(0.1, 2.0))
            y0 = float(rng.uniform(0.05, 1.0)) * lady_threshold(c, b, delta)
            log_y = math.log(y0)
            for n in range(1, 16):
                log_y = math.log(c) + (n - 1) * math.log(b) \
                    + (1.0 + delta) * log_y
                bound = lady_bound(c, b, delta, y0, n)
                log_bound = math.log(bound) if bound > 0 else -math.inf
                if log_y < -708.0:
                    # denormal territory: log spacing is ~ulp/value
                    assert bound == 0.0 or abs(log_bound - log_y) \
                        <= 1e-5 + 4.0 * (5e-324 / bound)
                else:
                    # exponents ~ (1+delta)^n ~ 1e7 round differently on the
                    # two paths; agreement to 1e-6 in log space
                    assert log_bound == pytest.approx(log_y, abs=1e-6)

    def test_threshold_decay(self, rng):
        for _ in range(50):
            c = float(rng.uniform(0.2, 5.0))
            b = float(rng.uniform(1.1, 4.0))
            delta = float(rng.uniform(0.15, 1.5))
            th = lady_threshold(c, b, delta)
            for n in range(21):
                assert lady_bound(c, b, delta, th, n) <= \
                    th * b ** (-n / delta) * (1 + 1e-6)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            lady_bound(-1.0, 2.0, 0.5, 0.1, 3)
        with pytest.raises(DomainError):
            lady_bound(1.0, 2.0, 0.0, 0.1, 3)
        with pytest.raises(DomainError):
            lady_bound(1.0, 0.5, 0.5, 0.1, 3)
        with pytest.raises(DomainError):
            lady_bound(1.0, 2.0, 0.5, -0.1, 3)


NAN = math.nan
_KERNEL = power_family_kernel(beta=1.0, tau0=1e-3, a=1.0)


class TestNaNArguments:
    """The positivity guards of the bound, the pack, the kinetic kernel and
    the hump are negated comparisons, so a NaN argument fails them as an
    out-of-range one does."""

    CALLS = {
        "lady_bound-c": lambda: lady_bound(NAN, 2.0, 0.5, 0.1, 3),
        "lady_bound-b": lambda: lady_bound(1.0, NAN, 0.5, 0.1, 3),
        "lady_bound-delta": lambda: lady_bound(1.0, 2.0, NAN, 0.1, 3),
        "lady_bound-y0": lambda: lady_bound(1.0, 2.0, 0.5, NAN, 3),
        "lady_threshold-c": lambda: lady_threshold(NAN, 2.0, 0.5),
        "lady_threshold-b": lambda: lady_threshold(1.0, NAN, 0.5),
        "lady_threshold-delta": lambda: lady_threshold(1.0, 2.0, NAN),
        "pack-S": lambda: ExponentPack(lam=1.0, j=2.0, b=3.0, R=0.4, S=NAN),
        "pack-C1": lambda: ExponentPack(lam=1.0, j=2.0, b=3.0, R=0.4,
                                        C1=NAN),
        "pack-b": lambda: ExponentPack(lam=1.0, j=2.0, b=NAN, R=0.4),
        "pack-R": lambda: ExponentPack(lam=1.0, j=2.0, b=3.0, R=NAN),
        "kernel_moments-u": lambda: kernel_moments(_KERNEL, NAN, 1e-3),
        "kernel_moments-h": lambda: kernel_moments(_KERNEL, 0.5, NAN),
        "kernel-beta": lambda: power_family_kernel(NAN, 1e-3),
        "kernel-tau0": lambda: power_family_kernel(1.0, NAN),
        "kernel-a": lambda: power_family_kernel(1.0, 1e-3, NAN),
        "bump-radius": lambda: bump((0.0,), NAN, 0.2),
        "bump-height": lambda: bump((0.0,), 0.2, NAN),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call):
        with pytest.raises(DomainError):
            self.CALLS[call]()


class TestStateEval:
    def test_zero_maps_to_zero(self, beta1_table):
        u = np.array([0.0, -1.0, 0.5])
        out = table_state_eval(beta1_table, "H", u)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(0.5, rel=1e-10)

    def test_clamp_below_first_node(self, beta1_table):
        tiny = beta1_table.s_min / 10.0
        out = table_state_eval(beta1_table, "G", np.array([tiny]))
        ref = beta1_table.eval("G", beta1_table.s_min)
        assert out[0] == pytest.approx(ref)

    def test_clamp_above_M(self, beta1_table):
        out = table_state_eval(beta1_table, "H", np.array([2.0]))
        assert out[0] == pytest.approx(beta1_table.eval("H", beta1_table.M))

    @pytest.mark.parametrize("u,at", [
        ([0.5, np.nan], "(1,)"),
        ([[0.5, 0.0], [-1.0, np.nan], [np.nan, 1.0]], "(1, 1)"),
        ([np.nan, 0.5, 0.5], "(0,)"),
    ])
    def test_nan_state_is_rejected(self, beta1_table, u, at):
        # a NaN is no vacuum: energy_Y would read a 0 there as one
        with pytest.raises(DomainError, match="NaN at index " + re.escape(at)):
            table_state_eval(beta1_table, "H", np.array(u))

    @pytest.mark.parametrize("u", [0.5, 0.0, [[0.5, 0.0], [1e-12, 2.0]],
                                   [[[3e-4]], [[-1.0]]]])
    def test_any_shape_evaluates_cell_by_cell(self, beta1_table, u):
        u = np.asarray(u, dtype=float)
        out = table_state_eval(beta1_table, "H", u)
        assert isinstance(out, np.ndarray) and out.shape == u.shape
        alone = [table_state_eval(beta1_table, "H", np.array([x]))[0]
                 for x in u.ravel()]
        assert out.ravel().tolist() == alone

    def test_each_cell_evaluates_on_its_own(self, beta1_table):
        # all-positive states and states with vacuum cells give every
        # positive cell the value of its own clamped evaluation
        u = np.array([1e-12, 3e-4, 0.5, 2.0])
        alone = [beta1_table.eval("G", np.array([min(max(x, 1e-8), 1.0)]))[0]
                 for x in u]
        whole = table_state_eval(beta1_table, "G", u)
        mixed = table_state_eval(beta1_table, "G", np.append(u, [0.0, -1.0]))
        assert whole.tolist() == alone
        assert mixed.tolist() == alone + [0.0, 0.0]


class TestEnergyY:
    def _hand_quadrature(self, grid, theta, table, value, T_prime, beta_exp,
                         clamp_floor):
        h = grid.h[0]
        s = min(max(value, clamp_floor), table.M) if value > 0 else None
        H = float(table.eval("H", s)) if s else 0.0
        G = float(table.eval("G", s)) if s else 0.0
        sup_term = sum(t * t * H for t in theta) * h
        w = theta * G
        gx = np.empty_like(w)
        gx[1:-1] = (w[2:] - w[:-2]) / (2 * h)
        gx[0] = (w[1] - w[0]) / h
        gx[-1] = (w[-1] - w[-2]) / h
        grad_term = float(np.sum(gx * gx)) * h * T_prime
        return T_prime ** beta_exp * (sup_term + grad_term)

    def test_constant_state_matches_hand_quadrature(self, cutoffs, desk_pack,
                                                    beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        for value in (1e-6, 3e-4):
            trace = make_constant_trace(desk_grid, prob, value)
            for n in (0, 2):
                got = energy_Y(trace, cutoffs, desk_pack, beta1_table, n,
                               T_prime=0.05)
                theta = cutoffs.theta(desk_grid, n)
                want = self._hand_quadrature(desk_grid, theta, beta1_table,
                                             value, 0.05, desk_pack.beta_exp,
                                             beta1_table.s_min)
                assert got == pytest.approx(want, rel=1e-12)

    def test_subfloor_state_uses_clamp(self, cutoffs, desk_pack, beta1_table,
                                       desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        value = beta1_table.s_min / 100.0     # positive but below the table
        trace = make_constant_trace(desk_grid, prob, value)
        got = energy_Y(trace, cutoffs, desk_pack, beta1_table, 0, 0.05)
        theta = cutoffs.theta(desk_grid, 0)
        want = self._hand_quadrature(desk_grid, theta, beta1_table,
                                     beta1_table.s_min, 0.05,
                                     desk_pack.beta_exp, beta1_table.s_min)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_state_gives_zero(self, cutoffs, desk_pack, beta1_table,
                                   desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        trace = make_constant_trace(desk_grid, prob, 0.0)
        for n in range(4):
            assert energy_Y(trace, cutoffs, desk_pack, beta1_table, n,
                            0.05) == 0.0

    def test_zero_horizon_gives_zero(self, cutoffs, desk_pack, beta1_table,
                                     desk_trace_beta1):
        assert energy_Y(desk_trace_beta1, cutoffs, desk_pack, beta1_table, 0,
                        0.0) == 0.0


class TestDeGiorgiTrace:
    def test_desk_run_verdicts(self, desk_trace_beta1, cutoffs, desk_pack,
                               beta1_table):
        dg = de_giorgi_trace(desk_trace_beta1, cutoffs, desk_pack, beta1_table)
        assert dg.verdict["all_hold"]
        assert dg.verdict["nonincreasing_after_1"]
        assert dg.T_prime > 0.0
        assert 1e-9 < dg.Y[0] < 1e-6          # floor-dominated magnitude
        assert len(dg.Y) == 7
        assert math.isnan(dg.bound[0]) and np.all(np.isfinite(dg.bound[1:]))

    @pytest.mark.parametrize("n_max", [-1, 2.5])
    def test_n_max_must_be_a_nonnegative_integer(
            self, desk_trace_beta1, cutoffs, desk_pack, beta1_table, n_max):
        with pytest.raises(DomainError, match="n_max"):
            de_giorgi_trace(desk_trace_beta1, cutoffs, desk_pack, beta1_table,
                            n_max=n_max)

    def test_to_dict_is_json_ready(self, desk_trace_beta1, cutoffs, desk_pack,
                                   beta1_table):
        import json
        dg = de_giorgi_trace(desk_trace_beta1, cutoffs, desk_pack, beta1_table)
        text = json.dumps(dg.to_dict(), sort_keys=True)
        assert "threshold" in text and "exponents" in text


def _field_grad_energy(w, grid):
    """Gradient energy of one field, written out per axis: centered
    differences inside, one-sided at the edges."""
    total = 0.0
    for k, h in enumerate(grid.h):
        g = np.empty_like(w)
        v, gv = np.moveaxis(w, k, -1), np.moveaxis(g, k, -1)
        gv[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
        gv[..., 0] = (v[..., 1] - v[..., 0]) / h
        gv[..., -1] = (v[..., -1] - v[..., -2]) / h
        total += float(np.sum(g * g))
    return total * grid.cell_volume


def _per_snapshot_energy_Y(trace, cutoffs, pack, table, n, T_prime):
    """energy_Y as one Python pass per snapshot of the schedule, each
    field's H and G evaluated on its own and on every cell: the bit-for-bit
    reference of the stacked pass."""
    grid = trace.grid
    theta = cutoffs.theta(grid, n)
    times, fields = [], []
    for t, f in zip(trace.times, trace.fields):
        if t <= T_prime * (1 + 1e-12):
            times.append(min(float(t), T_prime))
            fields.append(f)
    if times[-1] < T_prime * (1 - 1e-12):
        times.append(T_prime)
        fields.append(trace.field_at(T_prime))
    sup_mass, grads = 0.0, []
    for u in fields:
        H = table_state_eval(table, "H", u)
        G = table_state_eval(table, "G", u)
        sup_mass = max(sup_mass,
                       float(np.sum(theta * theta * H)) * grid.cell_volume)
        grads.append(_field_grad_energy(theta * G, grid))
    time_term = float(_trapezoid(grads, times)) if len(times) > 1 else 0.0
    return T_prime ** pack.beta_exp * (sup_mass + time_term)


class TestStackedEnergies:
    """The certificate evaluates the snapshots' H and G as one stack, a few
    snapshots per call and on theta_0's support box only, and reduces it
    row by row; every value is that of the loop over snapshots, which
    evaluates every cell, bit for bit."""

    @pytest.fixture(scope="class", params=["edge", "2-D", "2-D-edge"])
    def ball(self, request, beta1_table):
        """(trace, cutoffs, pack) of a ball that touches the domain edge,
        so theta_0's box is clipped there, with the hump inside it; of a
        2-D ball inside the domain; and of a 2-D ball at the edge."""
        if request.param == "edge":
            trace = request.getfixturevalue("desk_trace_beta1")
            cut = CutoffFamily(x0=(-0.6,), R=0.4, Rp=0.2)
        else:
            grid = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(40, 32))
            prob = EpsProblem(table=beta1_table, eps=1e-6,
                              g=bump((-0.4, 0.1), 0.3, 0.2), psi=1.0)
            trace = solve(prob, grid, 0.01, 9)
            x0 = (0.1, 0.0) if request.param == "2-D" else (-0.4, 0.1)
            cut = CutoffFamily(x0=x0, R=0.6, Rp=0.3)
        pack = ExponentPack.build(cut, N_dim=trace.grid.dim,
                                  table=beta1_table)
        return trace, cut, pack

    def test_balls_match_the_snapshot_loop(self, ball, beta1_table):
        trace, cut, pack = ball
        theta0 = cut.theta(trace.grid, 0)
        box = tuple(slice(c.min(), c.max() + 1)
                    for c in np.nonzero(theta0 > 0.0))
        # the support box leaves cells out, and for a ball at the domain
        # edge it reaches the first row of cells
        assert 0 < theta0[box].size < theta0.size
        assert (theta0[0] > 0.0).any() == (cut.x0[0] - cut.R <= -1.0)
        T = trace.T
        for T_prime in (1e-9, 0.3 * T / 8, 0.51 * T, T):
            for n in (0, 3, 6):
                got = energy_Y(trace, cut, pack, beta1_table, n, T_prime)
                assert got == _per_snapshot_energy_Y(
                    trace, cut, pack, beta1_table, n, T_prime), (T_prime, n)
        dg = de_giorgi_trace(trace, cut, pack, beta1_table)
        want = [_per_snapshot_energy_Y(trace, cut, pack, beta1_table, n, T)
                for n in range(7)]
        assert np.array_equal(dg.Y, want) and dg.Y[0] > 0.0
        T_prime = _every_probe_T_prime(trace, cut, pack, beta1_table)
        assert dg.T_prime == T_prime

    @pytest.mark.parametrize("snap", [3, 10])
    def test_a_nan_outside_the_ball_is_named(self, desk_trace_beta1,
                                             cutoffs, desk_pack, beta1_table,
                                             snap):
        # H and G are evaluated on theta_0's box, yet every cell is checked,
        # and the first NaN is named by its index in the snapshot stack
        trace = replace(desk_trace_beta1,
                        fields=desk_trace_beta1.fields.copy())
        cell = 20
        assert cutoffs.theta(trace.grid, 0)[cell] == 0.0
        trace.fields[snap, cell] = trace.fields[20, 5] = np.nan
        at = re.escape(f"NaN at index ({snap}, {cell})")
        with pytest.raises(DomainError, match=at):
            de_giorgi_trace(trace, cutoffs, desk_pack, beta1_table)

    def test_probes_match_the_snapshot_loop(self, desk_trace_beta1, cutoffs,
                                            desk_pack, beta1_table):
        T = desk_trace_beta1.T
        # stored instants, between them, tiny horizons and T itself
        for T_prime in (0.0, 1e-9, 0.3 * T / 32, T / 32, 0.51 * T, T):
            for n in (0, 3, 6):
                got = energy_Y(desk_trace_beta1, cutoffs, desk_pack,
                               beta1_table, n, T_prime)
                want = _per_snapshot_energy_Y(desk_trace_beta1, cutoffs,
                                              desk_pack, beta1_table, n,
                                              T_prime)
                assert got == want, (T_prime, n)

    def test_de_giorgi_trace_matches_the_snapshot_loop(
            self, desk_trace_beta1, cutoffs, desk_pack, beta1_table):
        trace = desk_trace_beta1
        dg = de_giorgi_trace(trace, cutoffs, desk_pack, beta1_table)
        want = [_per_snapshot_energy_Y(trace, cutoffs, desk_pack, beta1_table,
                                       n, trace.T) for n in range(7)]
        assert np.array_equal(dg.Y, want)
        assert dg.T_prime == _every_probe_T_prime(
            trace, cutoffs, desk_pack, beta1_table) > 0.0

    def test_theta_built_once_per_n(self, desk_trace_beta1, desk_pack,
                                    beta1_table, monkeypatch):
        # Y_0..Y_6 and the T' bisection's many n = 0 probes
        family = CutoffFamily(x0=X0, R=R, Rp=RP)
        Y_fresh = [energy_Y(desk_trace_beta1, CutoffFamily(x0=X0, R=R, Rp=RP),
                            desk_pack, beta1_table, n, desk_trace_beta1.T)
                   for n in range(7)]
        builds = []
        distance_to = GridSpec.distance_to

        def counted_build(grid, x0):
            builds.append(1)
            return distance_to(grid, x0)

        monkeypatch.setattr(GridSpec, "distance_to", counted_build)
        dg = de_giorgi_trace(desk_trace_beta1, family, desk_pack, beta1_table)
        assert len(builds) == 7
        assert np.array_equal(dg.Y, Y_fresh)


def _every_probe_T_prime(trace, cutoffs, pack, table):
    """de_giorgi_trace's T' bisection with every probe sent through energy_Y,
    none settled from the stored rows: the bit-for-bit reference."""
    theta_L = pack.threshold

    def y0(tp):
        return energy_Y(trace, cutoffs, pack, table, 0, tp)

    T = trace.T
    if y0(T) <= theta_L:
        return T
    lo, hi = 0.0, T
    for _ in range(200):
        if hi - lo <= localization._BISECT_RTOL * max(hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        if y0(mid) <= theta_L:
            lo = mid
        else:
            hi = mid
    return lo


class TestBisectionSettle:
    """The T' bisection settles a probe as failing from the stored rows
    alone when they already exceed theta_L; every probe, and so T', is the
    one of the loop that evaluates each through energy_Y."""

    @pytest.fixture(params=["desk-beta1", "desk-beta2", "control",
                            "clean-state"])
    def case(self, request, cutoffs, desk_pack, desk_grid, beta1_table,
             beta2_table, control_tab):
        if request.param == "desk-beta1":
            trace = request.getfixturevalue("desk_trace_beta1")
            return trace, desk_pack, beta1_table
        if request.param == "desk-beta2":
            trace = request.getfixturevalue("desk_trace_beta2")
            return trace, ExponentPack.build(cutoffs, N_dim=1,
                                             table=beta2_table), beta2_table
        if request.param == "control":
            trace = request.getfixturevalue("control_trace")
            return trace, ExponentPack.build(cutoffs, N_dim=1,
                                             lam=1.0), control_tab
        # Y_0[T] is 0, so T' = T
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        return make_constant_trace(desk_grid, prob, 0.0), desk_pack, beta1_table

    def test_matches_the_every_probe_loop(self, case, cutoffs):
        trace, pack, table = case
        want = _every_probe_T_prime(trace, cutoffs, pack, table)
        got = de_giorgi_trace(trace, cutoffs, pack, table).T_prime
        assert got == want
        assert (got == trace.T) == (trace.fields[0].max() == 0.0)

    def test_desk_body_probes_few_energies(self, desk_trace_beta1, cutoffs,
                                           desk_pack, beta1_table,
                                           monkeypatch):
        # H and G of the 33 snapshots, 8 to a call, are 10 calls; of the
        # 33 probes of T', 29 settle from the stored rows and 4 evaluate
        # their endpoint's H and G
        calls = []
        evaluate = localization.table_state_eval

        def counted(table, column, values):
            calls.append(len(values))
            return evaluate(table, column, values)

        monkeypatch.setattr(localization, "table_state_eval", counted)
        dg = de_giorgi_trace(desk_trace_beta1, cutoffs, desk_pack,
                             beta1_table)
        assert len(calls) <= 18, calls
        assert dg.T_prime < 1e-6 * desk_trace_beta1.T


class TestStateless:
    """Every call reads the snapshots as they are now."""

    def test_a_snapshot_written_in_place_changes_energy_Y(
            self, desk_trace_beta1, cutoffs, desk_pack, beta1_table):
        trace = replace(desk_trace_beta1,
                        fields=desk_trace_beta1.fields.copy())
        before = energy_Y(trace, cutoffs, desk_pack, beta1_table, 0, trace.T)
        trace.fields[2] += 0.1
        after = energy_Y(trace, cutoffs, desk_pack, beta1_table, 0, trace.T)
        fresh = energy_Y(replace(trace), cutoffs, desk_pack, beta1_table, 0,
                         trace.T)
        assert after == fresh > before

    def test_a_snapshot_written_in_place_changes_the_certificate(
            self, desk_trace_beta1, cutoffs, desk_pack, beta1_table):
        trace = replace(desk_trace_beta1,
                        fields=desk_trace_beta1.fields.copy())
        before = de_giorgi_trace(trace, cutoffs, desk_pack, beta1_table)
        trace.fields[2] += 0.1
        after = de_giorgi_trace(trace, cutoffs, desk_pack, beta1_table)
        assert after.Y[0] > before.Y[0]
        assert after.T_prime == _every_probe_T_prime(trace, cutoffs,
                                                     desk_pack, beta1_table)


class TestTPrime:
    def test_clean_state_certifies_full_horizon(self, cutoffs, desk_pack,
                                                beta1_table, desk_grid):
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        trace = make_constant_trace(desk_grid, prob, 0.0)
        assert de_giorgi_trace(trace, cutoffs, desk_pack,
                               beta1_table).T_prime == trace.T

    def test_degenerate_run_positive(self, desk_trace_beta1, cutoffs,
                                     desk_pack, beta1_table):
        tp = de_giorgi_trace(desk_trace_beta1, cutoffs, desk_pack,
                             beta1_table).T_prime
        assert tp > 0.0

    def test_control_is_negligible_fraction(self, control_trace, cutoffs,
                                            control_tab):
        pack = ExponentPack.build(cutoffs, N_dim=1, lam=1.0)
        tp = de_giorgi_trace(control_trace, cutoffs, pack,
                             control_tab).T_prime
        assert tp < 1e-3 * control_trace.T

    def test_stronger_degeneracy_holds_longer(self, desk_trace_beta1,
                                              desk_trace_beta2, cutoffs,
                                              desk_pack, beta1_table,
                                              beta2_table):
        tp1 = de_giorgi_trace(desk_trace_beta1, cutoffs, desk_pack,
                              beta1_table).T_prime
        pack2 = ExponentPack.build(cutoffs, N_dim=1, table=beta2_table)
        tp2 = de_giorgi_trace(desk_trace_beta2, cutoffs, pack2,
                              beta2_table).T_prime
        assert tp2 >= tp1


class TestFronts:
    def test_single_cell_support(self, desk_grid):
        x = desk_grid.axis_centers(0)
        vals = np.full(desk_grid.n, 1e-6)
        j = int(np.argmin(np.abs(x + 0.3)))
        vals[j] = 1e-3
        d = abs(x[j] - 0.5)
        assert front_radius(vals, desk_grid, (0.5,), 1.1e-5) == \
            pytest.approx(d)
        assert empty_radius(vals, desk_grid, (0.5,), 1.1e-5) == \
            pytest.approx(d)

    def test_flat_state_has_no_front(self, desk_grid):
        vals = np.full(desk_grid.n, 1e-6)
        assert front_radius(vals, desk_grid, (0.5,), 1.1e-5) == 0.0
        assert empty_radius(vals, desk_grid, (0.5,), 1.1e-5) == math.inf

    def test_desk_series_shapes_and_growth(self, desk_trace_beta1):
        t, r_front, r_empty = front_series(desk_trace_beta1,
                                           x0_front=(-0.6,), x0_empty=X0)
        h = desk_trace_beta1.grid.h[0]
        assert len(t) == len(r_front) == len(r_empty) == 33
        assert r_front[0] == pytest.approx(0.2, abs=2 * h)
        assert np.all(np.diff(r_front) >= -1e-12)       # front never retreats
        # sublinear creep: later half grows no faster than the first half
        mid = len(t) // 2
        first = r_front[mid] - r_front[0]
        second = r_front[-1] - r_front[mid]
        assert second <= first + h
        # the watched ball stays clean throughout
        assert np.all(r_empty >= RP)

    def test_series_matches_per_snapshot_radii(self, desk_trace_beta1):
        trace = desk_trace_beta1
        thr = trace.prob.support_threshold
        for x0_empty in (X0, None):
            _, r_front, r_empty = front_series(trace, x0_front=(-0.6,),
                                               x0_empty=x0_empty)
            centre = (-0.6,) if x0_empty is None else x0_empty
            assert r_front.tolist() == [
                front_radius(f, trace.grid, (-0.6,), thr) for f in trace.fields]
            assert r_empty.tolist() == [
                empty_radius(f, trace.grid, centre, thr) for f in trace.fields]

    @pytest.mark.parametrize("x0", [(math.nan,), (math.inf,)],
                             ids=["nan", "inf"])
    def test_series_rejects_a_nonfinite_centre(self, desk_trace_beta1, x0):
        with pytest.raises(DomainError, match="finite"):
            front_series(desk_trace_beta1, x0)

    def test_arrival_censored_on_degenerate_run(self, desk_trace_beta1):
        assert time_to_threshold(desk_trace_beta1, X0, RP) == math.inf

    def test_arrival_finite_on_control_run(self, control_trace):
        t_arr = time_to_threshold(control_trace, X0, RP)
        assert 0.005 < t_arr < 0.03       # measured ~0.012 on the desk grid

    @pytest.mark.parametrize("radius", [math.nan, -1.0, -1e-300])
    def test_arrival_rejects_a_negative_or_nan_radius(self, control_trace,
                                                      radius):
        # a radius of 0 probes the nearest cell; below 0 nothing is meant
        with pytest.raises(DomainError, match="radius"):
            time_to_threshold(control_trace, X0, radius)

    def test_probe_without_cells_rejected(self, desk_trace_beta1):
        with pytest.raises(GeometryError):
            time_to_threshold(desk_trace_beta1, (25.0,), 0.0)

    def test_arrival_takes_a_scalar_centre_in_1d(self, control_trace):
        # as front_radius and GridSpec.distance_to do
        assert time_to_threshold(control_trace, X0[0], RP) == \
            time_to_threshold(control_trace, X0, RP)

    def test_arrival_rejects_a_centre_of_two_components_in_1d(
            self, control_trace):
        with pytest.raises(DomainError, match="1 components"):
            time_to_threshold(control_trace, (0.5, 0.0), RP)


# The per-snapshot readers as they were written for a list of fields: the
# bit-for-bit references of the readers of the snapshot stack.

def _list_front_series(trace, x0_front, x0_empty=None):
    def farthest(d):
        return float(d.max()) if d.size else 0.0

    def nearest(d):
        return float(d.min()) if d.size else math.inf

    thr = trace.prob.support_threshold
    d_front = trace.grid.distance_to(x0_front)
    d_empty = d_front if x0_empty is None else trace.grid.distance_to(x0_empty)
    r_front = np.array([farthest(d_front[f > thr]) for f in trace.fields])
    r_empty = np.array([nearest(d_empty[f > thr]) for f in trace.fields])
    return trace.times.copy(), r_front, r_empty


def _list_time_to_threshold(trace, x0, radius):
    thr = trace.prob.support_threshold
    d = trace.grid.distance_to(x0)
    ball = d <= radius + 1e-12 if radius > 0 else d <= d.min() + 1e-12
    prev_t, prev_m = None, None
    for t, f in zip(trace.times, trace.fields):
        m = float(f[ball].max())
        if m > thr:
            if prev_t is None or prev_m is None or m == prev_m:
                return float(t)
            w = (thr - prev_m) / (m - prev_m)
            return float(prev_t + w * (t - prev_t))
        prev_t, prev_m = float(t), m
    return math.inf


def _list_write_snapshots_csv(path, trace):
    grid = trace.grid
    mesh = grid.meshgrid()
    rows_t, rows_x, rows_u = [], [], []
    for t, f in zip(trace.times, trace.fields):
        rows_t.append(np.full(f.size, t))
        rows_x.append(np.stack([m.ravel() for m in mesh], axis=1))
        rows_u.append(f.ravel())
    t_col = np.concatenate(rows_t)
    xy = np.concatenate(rows_x, axis=0)
    u_col = np.concatenate(rows_u)
    header = "t,x,u" if grid.dim == 1 else "t,x,y,u"
    data = np.column_stack([t_col] + [xy[:, k] for k in range(grid.dim)]
                           + [u_col])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
               comments="")


class TestSnapshotStack:
    """A trace's snapshots are one array, and each reader is one pass over
    it: every value is that of the loop over snapshots, bit for bit."""

    @pytest.fixture(scope="class", params=["desk", "control", "2-D",
                                           "flat"])
    def case(self, request, beta1_table, control_tab, desk_grid):
        """(trace, bump centre, watched centre, watched radius)."""
        if request.param == "desk":
            return (request.getfixturevalue("desk_trace_beta1"), (-0.6,),
                    X0, RP)
        if request.param == "control":
            # the arrival interpolates between two snapshots
            return request.getfixturevalue("control_trace"), (-0.6,), X0, RP
        if request.param == "2-D":
            grid = GridSpec(extent=((-1.0, 1.0), (-1.0, 1.0)), n=(48, 48))
            prob = EpsProblem(table=control_tab, eps=1e-8,
                              g=bump((-0.4, 0.0), 0.3, 0.2), psi=1.0)
            return solve(prob, grid, 0.01, 9), (-0.4, 0.0), (0.3, 0.0), 0.2
        # nothing above the support threshold
        prob = EpsProblem(table=beta1_table, eps=1e-6, g=0.0, psi=1.0)
        return (make_constant_trace(desk_grid, prob, 1e-6), (-0.6,), X0,
                RP)

    def test_fields_are_one_array(self, case):
        trace = case[0]
        assert type(trace.fields) is np.ndarray
        assert trace.fields.dtype == np.float64
        assert trace.fields.flags.c_contiguous
        assert trace.fields.shape == (len(trace.times), *trace.grid.n)

    def test_front_series_matches_the_snapshot_loop(self, case):
        trace, centre, x0, _ = case
        for x0_empty in (x0, None):
            got = front_series(trace, centre, x0_empty)
            want = _list_front_series(trace, centre, x0_empty)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_arrival_matches_the_snapshot_loop(self, case):
        trace, centre, x0, radius = case
        # the watched ball, and the cell at the bump's centre, supported at 0
        for where, r in ((x0, radius), (centre, 0.0)):
            got = time_to_threshold(trace, where, r)
            assert type(got) is float
            assert got == _list_time_to_threshold(trace, where, r)

    def test_snapshot_csv_matches_the_snapshot_loop(self, case, tmp_path):
        trace = case[0]
        write_snapshots_csv(tmp_path / "stack.csv", trace)
        _list_write_snapshots_csv(tmp_path / "list.csv", trace)
        assert (tmp_path / "stack.csv").read_bytes() == \
            (tmp_path / "list.csv").read_bytes()

    def test_the_readers_see_each_case(self, case):
        # the cases reach the branches of the readers they are meant to
        trace, centre, x0, radius = case
        arrival = time_to_threshold(trace, x0, radius)
        _, r_front, r_empty = front_series(trace, centre, x0)
        if trace.fields.max() <= trace.prob.support_threshold:
            assert np.all(r_front == 0.0) and np.all(r_empty == math.inf)
            assert arrival == math.inf
        elif trace.prob.table.Lambda is None:
            # a control run: the arrival falls between two stored instants
            assert 0.0 < arrival < trace.T
            assert arrival not in trace.times.tolist()
        else:
            assert arrival == math.inf
