"""Acceptance battery: the seven headline behaviors, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to watch the lines appear live;
under plain pytest they land in the captured-output section.  Each criterion
rebuilds every input inside its own timed body (no shared fixtures), so the
reported seconds are the honest cost of the demonstration.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from degenstein.checker import (PROFILES, check_profile, estimate_A_B,
                                example_catalog)
from degenstein.coeffs import (LambdaChoice, build_table, constant_table,
                               power_profile)
from degenstein.kinetic import kernel_moments, power_family_kernel, run_master
from degenstein.localization import (CutoffFamily, ExponentPack,
                                     de_giorgi_trace, lady_bound,
                                     lady_threshold, time_to_threshold)
from degenstein.solver import (EpsProblem, GridSpec, bump, cfl_dt,
                               energy_identity_residual, eps_sweep, solve,
                               step_explicit)

EXTENT = ((-1.0, 1.0),)
BUMP = dict(center=(-0.6,), radius=0.2, height=0.2)
WATCH = dict(x0=(0.5,), R=0.4, Rp=0.2)


@contextmanager
def criterion(idx, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {idx} {name}: FAIL "
              f"({time.perf_counter() - t0:.2f} s)", flush=True)
        raise
    print(f"ACCEPTANCE {idx} {name}: PASS "
          f"({time.perf_counter() - t0:.2f} s)", flush=True)


def beta_table(beta):
    return build_table(power_profile(beta), LambdaChoice(1.0),
                       s_min=1e-8, K=256)


def desk_problem(tab, eps=1e-6, shape="tent", watch=True):
    omega = (WATCH["x0"], WATCH["R"]) if watch else None
    return EpsProblem(table=tab, eps=eps,
                      g=bump(BUMP["center"], BUMP["radius"], BUMP["height"],
                             shape=shape),
                      psi=1.0, omega_prime=omega)


def test_criterion_1_closed_forms():
    with criterion(1, "power-family closed forms"):
        for beta in (1.0, 2.0):
            tab = beta_table(beta)
            s = tab.s
            want = {
                "I": s ** (-beta) / beta,
                "H": beta * s ** beta,
                "h": beta ** 2 * s ** (beta - 1.0),
                "F": beta ** 2 * s ** (2.0 * beta - 1.0),
                "Fprime": beta ** 2 * (2.0 * beta - 1.0)
                          * s ** (2.0 * beta - 2.0),
                "G": math.sqrt(2.0 * beta - 1.0) * s ** beta,
            }
            for col, ref in want.items():
                err = np.abs(tab.column(col) / ref - 1.0).max()
                assert err <= 1e-6, (beta, col, err)
            for key, res in tab.identity_residuals().items():
                assert res <= 1e-6, (beta, key, res)
            slack = np.sqrt(s * tab.column("F")) * (1.0 + 1e-12)
            assert np.all(tab.column("G") <= slack)


def test_criterion_2_assumption_checker():
    with criterion(2, "assumption checker on the catalog"):
        for entry in example_catalog():
            report = entry.run()
            ok, drift = entry.matches(report)
            assert ok, (entry.name, drift)
            assert report.all_pass(), entry.name
        for beta in (1.0, 2.0):
            prof = power_profile(beta)
            tab = beta_table(beta)
            A, B, _ = estimate_A_B(prof, tab)
            assert A == np.float64(A) and abs(A - 1.0 / beta) <= 0.1 / beta
            assert abs(B - 1.0 / beta) <= 0.1 / beta
            assert check_profile(prof, LambdaChoice(1.0),
                                 table=tab).all_pass()


def test_criterion_3_energy_identity_refinement():
    with criterion(3, "energy identity under refinement"):
        tab = beta_table(1.0)
        residuals = {}
        for n in (401, 801):
            grid = GridSpec(extent=EXTENT, n=(n,))
            prob = desk_problem(tab, shape="cos2", watch=False)
            trace = solve(prob, grid, 0.02, 2)
            residuals[n] = energy_identity_residual(trace)
        assert residuals[401] <= 5e-2
        assert residuals[801] <= 5e-2
        assert residuals[401] / residuals[801] >= 2.0, residuals


def test_criterion_4_confinement_versus_control():
    with criterion(4, "degenerate confinement vs heat-flow control"):
        tab = beta_table(1.0)
        clean_times = {}
        for n in (401, 801):
            grid = GridSpec(extent=EXTENT, n=(n,))
            trace = solve(desk_problem(tab), grid, 0.05, 11)
            d = grid.distance_to(WATCH["x0"])
            ball = d <= WATCH["Rp"] + 1e-12
            ball_max = max(float(f[ball].max()) for f in trace.fields)
            assert ball_max <= trace.prob.support_threshold, (n, ball_max)
            arrival = time_to_threshold(trace, WATCH["x0"], WATCH["Rp"])
            clean_times[n] = trace.T if math.isinf(arrival) else arrival
        change = abs(clean_times[401] - clean_times[801]) \
            / max(clean_times.values())
        assert change <= 0.2, clean_times

        # control: same hump, non-degenerate medium, deeper floor
        control = EpsProblem(table=constant_table(M=1.0), eps=1e-8,
                             g=bump(**BUMP), psi=1.0)
        grid = GridSpec(extent=EXTENT, n=(401,))
        g_vals, psi_vals = control.sample_on(grid)
        u0 = control.eps + g_vals
        interior = grid.interior_mask()
        u0[~interior] = control.eps * psi_vals[~interior]
        thr = control.support_threshold
        supported0 = int(np.count_nonzero(u0 > thr))
        one = step_explicit(u0, control, grid, cfl_dt(control, grid, u0))
        supported1 = int(np.count_nonzero(one > thr))
        assert 0 < supported1 - supported0 <= 2, (supported0, supported1)

        trace = solve(control, grid, 0.3, 61)
        clean = np.array([float(f[interior].min()) > thr
                          for f in trace.fields])
        first = int(np.argmax(clean))
        assert clean[first], "control never fills the interior"
        t0 = float(trace.times[first])
        assert t0 <= 0.1, t0                    # measured 0.055
        assert np.all(clean[first:]), "control support retreats"
        arrival = time_to_threshold(trace, WATCH["x0"], WATCH["Rp"])
        assert arrival < 0.03, arrival          # measured ~0.011


def test_criterion_5_iteration_certificate():
    with criterion(5, "iteration certificate and closed-form bound"):
        tab = beta_table(1.0)
        grid = GridSpec(extent=EXTENT, n=(401,))
        trace = solve(desk_problem(tab), grid, 0.05, 33)
        cut = CutoffFamily(**WATCH)
        pack = ExponentPack.build(cut, N_dim=1, table=tab)
        dg = de_giorgi_trace(trace, cut, pack, tab, n_max=6)
        assert dg.T_prime > 0.0
        assert dg.verdict["iteration_holds"]    # within the factor-2 slack
        assert dg.verdict["all_hold"]
        assert dg.verdict["nonincreasing_after_1"]

        rng = np.random.default_rng(20260823)
        for _ in range(1000):
            c = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(1.0, 5.0))
            delta = float(rng.uniform(0.1, 2.0))
            y0 = float(rng.uniform(0.05, 1.0)) * lady_threshold(c, b, delta)
            log_y = math.log(y0)
            for n in range(1, 16):
                log_y = math.log(c) + (n - 1) * math.log(b) \
                    + (1.0 + delta) * log_y
                got = lady_bound(c, b, delta, y0, n)
                if log_y < -708.0:
                    # denormal territory: log spacing is ~ulp/value
                    assert got == 0.0 or abs(math.log(got) - log_y) \
                        <= 1e-5 + 4.0 * (5e-324 / got)
                else:
                    assert abs(math.log(got) - log_y) <= 1e-6
        for n in (0, 3, 12):
            assert lady_bound(2.0, 3.0, 0.4, 0.0, n) == 0.0


def test_criterion_6_kinetic_diffusive_limit():
    with criterion(6, "master equation meets the PDE"):
        tab = beta_table(1.0)
        shape = bump((0.0,), 0.3, 0.05, shape="cos2")
        kern = power_family_kernel(beta=1.0, tau0=1.5e-4, a=1.0)
        gaps = {}
        for n, dt in ((401, 1.5e-4), (801, 7.5e-5)):
            grid = GridSpec(extent=EXTENT, n=(n,))
            prob = EpsProblem(table=tab, eps=1e-6, g=shape, psi=1.0)
            trace = solve(prob, grid, 0.01, 2)
            pde = trace.fields[-1] - prob.eps
            d0 = grid.sample(shape)
            _, master = run_master(d0, grid, kern, None, 0.01, dt)
            vol = grid.cell_volume
            mass = float(d0.sum()) * vol
            gaps[n] = float(np.abs(master - pde).sum()) * vol / mass
        assert gaps[401] <= 0.05 and gaps[801] <= 0.05, gaps
        assert gaps[801] < gaps[401], gaps

        h = 0.005
        for shape_name in ("gaussian_truncated", "triangular"):
            for mult in (3.0, 5.0, 10.0):
                sigma = mult * h
                k = power_family_kernel(beta=1.0, tau0=sigma * sigma, a=1.0,
                                        shape=shape_name)
                mass, mean, var = kernel_moments(k, 0.7, h)
                assert abs(mass - 1.0) <= 1e-12
                assert abs(mean) <= 1e-12 * sigma
                assert abs(var / sigma ** 2 - 1.0) <= 0.02


def test_criterion_7_floor_ladder_cauchy():
    with criterion(7, "vanishing-floor ladder is Cauchy"):
        tab = beta_table(1.0)
        grid = GridSpec(extent=EXTENT, n=(401,))
        prob = EpsProblem(table=tab, eps=1e-3, g=bump(**BUMP), psi=1.0)
        ladder = [1e-3 * 2.0 ** (-k) for k in range(5)]
        sweep = eps_sweep(prob, grid, 0.05, ladder)
        gaps = list(sweep.distances)
        assert len(gaps) == 4
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert sweep.is_cauchy()


# Whether the watched ball stays at or below the support threshold
# 11*eps in every final of the kind's ladder.  For exp_zeta_slow it does
# not: its D_eps(eps) = P(eps) + eps/h(eps) is 3.8e5 at eps = 1e-3 and
# grows as eps falls, so the floor diffuses almost at once, and u in the
# ball rises from about 17*eps to about 160*eps down the ladder.  That is
# the regularized problem's behaviour, recorded here as the finding it is;
# the threshold stays.
LADDER_BALL_CLEAN = {"power": True, "exp_inv": True,
                     "exp_zeta_bounded": True, "exp_zeta_slow": False}


def test_criterion_7_every_registry_kind():
    with criterion(7, "floor ladder is Cauchy for every registry kind"):
        grid = GridSpec(extent=EXTENT, n=(401,))
        ball = grid.distance_to(WATCH["x0"]) <= WATCH["Rp"] + 1e-12
        clean = {}
        for kind, entry in PROFILES.items():
            if kind == "exp_inv":    # its table starts at s_min = 1e-2
                s_min, ladder = 1e-2, [8e-2, 4e-2, 2e-2, 1e-2]
            else:
                s_min, ladder = 1e-8, [1e-3 * 2.0 ** (-k) for k in range(5)]
            tab = build_table(entry.make_profile(), LambdaChoice(1.0),
                              s_min=s_min, K=256)
            prob = desk_problem(tab, eps=ladder[0])
            sweep = eps_sweep(prob, grid, 0.05, ladder)
            gaps = list(sweep.distances)
            assert all(b < a for a, b in zip(gaps, gaps[1:])), (kind, gaps)
            ratios = [float(f[ball].max()) / e
                      for f, e in zip(sweep.finals, ladder)]
            clean[kind] = max(ratios) <= 1.0 + prob.support_tol_factor
            print(f"  {kind}: steps {sweep.n_steps}, gaps "
                  f"{', '.join(f'{g:.3e}' for g in gaps)}, ball max/eps "
                  f"{', '.join(f'{q:.3g}' for q in ratios)}")
        assert clean == LADDER_BALL_CLEAN, clean
