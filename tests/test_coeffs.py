"""Coefficient calculus: quadrature oracle, closed forms, identities, I/O.

The quadrature oracle is a self-contained adaptive Simpson integrator
written here, independent of the library's integration path; its value for
the essential-singularity integrand was frozen after cross-checking three
ways at high precision.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

trapezoid = getattr(np, "trapezoid", None) or np.trapz
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstein.coeffs import (COLUMNS, CoefficientTable, DegeneracyProfile,
                               LambdaChoice, build_table, constant_table,
                               custom_profile, exp_inv_profile,
                               exp_zeta_profile, integral_I, power_profile)
from degenstein.checker import PROFILES, _zeta_slow, _zeta_slow_integral
from degenstein.errors import AssumptionError, DomainError

# int_{0.5}^{1} exp(1/t)/t dt, frozen from three independent
# high-precision evaluations (adaptive quadrature, series, substitution).
EXP_INV_INNER = 3.0591165396459534


def adaptive_simpson(f, a, b, tol=1e-10):
    """Classic recursive Simpson with Richardson correction; written as an
    independent oracle, deliberately not reusing any library quadrature."""
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 48 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * tol, depth + 1))

    return rec(a, b, fa, fm, fb, whole, tol, 0)


class TestIntegralOracle:
    def test_oracle_reproduces_frozen_value(self):
        val = adaptive_simpson(lambda t: np.exp(1.0 / t) / t, 0.5, 1.0)
        assert abs(val - EXP_INV_INNER) < 1e-9

    def test_integral_I_matches_oracle_on_essential_singularity(self):
        prof = exp_inv_profile(1.0)
        val = integral_I(prof, 0.5, tail=0.0, quad_tol=1e-10)
        assert abs(val - EXP_INV_INNER) < 1e-9

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_integral_I_power_closed_form(self, beta):
        prof = power_profile(beta)
        tail = 1.0 / beta  # the natural continuation at M = 1
        for s in (0.01, 0.1, 0.5, 0.9):
            val = integral_I(prof, s, tail=tail, quad_tol=1e-10)
            exact = s ** (-beta) / beta
            assert abs(val - exact) <= 1e-10 * exact

    @settings(max_examples=15, deadline=None)
    @given(extra=st.floats(min_value=0.0, max_value=10.0))
    def test_integral_I_is_affine_in_tail(self, extra):
        prof = power_profile(1.0)
        base = integral_I(prof, 0.5, tail=0.0, quad_tol=1e-10)
        shifted = integral_I(prof, 0.5, tail=extra, quad_tol=1e-10)
        assert abs(shifted - base - extra) < 1e-9 * max(1.0, base)


class TestPowerClosedForms:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_all_columns_match(self, beta, beta1_table, beta2_table):
        tab = beta1_table if beta == 1.0 else beta2_table
        s = tab.s
        exact = {
            "I": s ** (-beta) / beta,
            "H": beta * s ** beta,
            "F": beta ** 2 * s ** (2 * beta - 1),
            "h": beta ** 2 * s ** (beta - 1),
            "Fprime": beta ** 2 * (2 * beta - 1) * s ** (2 * beta - 2),
            "G": np.sqrt(2 * beta - 1) * s ** beta,
        }
        for name, ref in exact.items():
            got = tab.column(name)
            rel = np.max(np.abs(got - ref) / np.abs(ref))
            assert rel <= 1e-12, f"{name}: rel error {rel:.2e}"

    def test_point_values_beta1(self, beta1_table):
        assert abs(beta1_table.eval("I", 0.5) - 2.0) < 1e-12
        assert abs(beta1_table.eval("H", 0.5) - 0.5) < 1e-12
        assert abs(beta1_table.eval("F", 0.5) - 0.5) < 1e-12
        assert abs(beta1_table.eval("h", 0.5) - 1.0) < 1e-12

    def test_point_values_beta2(self, beta2_table):
        # G = sqrt(3) s^2 for beta = 2
        assert abs(beta2_table.eval("G", 0.5) - np.sqrt(3.0) / 4.0) < 1e-12


class TestIdentities:
    def test_residuals_small(self, beta1_table, beta2_table):
        for tab in (beta1_table, beta2_table):
            res = tab.identity_residuals()
            assert res["sF_vs_H"] <= 1e-10
            assert res["sF_pow_vs_H"] <= 1e-10
            assert res["hsP_vs_H"] <= 1e-10
            assert res["G_le_sqrt_sF"] <= 1e-12

    def test_cauchy_schwarz_bound_nodewise(self, beta1_table):
        tab = beta1_table
        assert np.all(tab.G <= np.sqrt(tab.s * tab.F) * (1 + 1e-12))

    def test_monotonicity(self, beta1_table, beta2_table):
        for tab in (beta1_table, beta2_table):
            assert np.all(np.diff(tab.I) < 0)
            for name in ("H", "F", "G"):
                assert np.all(np.diff(tab.column(name)) > 0)

    def test_zeta_table_identities(self):
        prof = exp_zeta_profile(
            zeta=lambda s: 1.0 + 0.5 * s,
            zeta_over_s_integral=lambda s: -np.log(s) + 0.5 * (1.0 - s))
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-8, K=128)
        res = tab.identity_residuals()
        assert res["hsP_vs_H"] <= 1e-7
        assert res["G_le_sqrt_sF"] <= 1e-12


class TestGColumn:
    def test_g_matches_trapezoid_of_fprime(self):
        """Independent reconstruction: refine a trapezoid rule on the
        interpolated F' until stable, compare against the stored G column."""
        prof = exp_zeta_profile(
            zeta=lambda s: 1.0 + 0.5 * s,
            zeta_over_s_integral=lambda s: -np.log(s) + 0.5 * (1.0 - s))
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-4, K=96)
        for k in (24, 48, 95):
            a, b = tab.s[0], tab.s[k]
            grid = np.geomspace(a, b, 20001)
            vals = np.sqrt(tab.eval("Fprime", grid))
            approx = trapezoid(vals, grid)
            got = tab.G[k] - tab.G[0]
            assert abs(approx - got) <= 2e-3 * got

    def test_g_power_exact(self, beta2_table):
        # for P = s^2 the closed form makes the same comparison exact
        tab = beta2_table
        grid = np.geomspace(tab.s[0], tab.s[-1], 400001)
        approx = trapezoid(np.sqrt(3.0) * 2.0 * grid, grid)  # sqrt(F') exactly
        got = tab.G[-1] - tab.G[0]
        assert abs(approx - got) <= 1e-6 * got


class TestEval:
    def test_outside_domain_raises(self, beta1_table):
        tab = beta1_table
        with pytest.raises(DomainError):
            tab.eval("F", tab.s_min * 0.5)
        with pytest.raises(DomainError):
            tab.eval("F", tab.M * 1.01)

    def test_nan_raises(self, beta1_table):
        with pytest.raises(DomainError, match="nan"):
            beta1_table.eval("F", np.array([0.5, np.nan]))
        with pytest.raises(DomainError):
            beta1_table.eval(("F", "h"), np.nan)

    def test_boundary_slack(self, beta1_table):
        tab = beta1_table
        # exact endpoints evaluate
        assert tab.eval("F", tab.s_min) > 0
        assert abs(tab.eval("F", tab.M) - tab.F[-1]) <= 1e-12
        # a hair outside is forgiven (floating round-trip slack)
        tab.eval("F", tab.M * (1 + 1e-13))

    def test_vector_eval_shape(self, beta1_table):
        s = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = beta1_table.eval("H", s)
        assert out.shape == s.shape
        assert np.allclose(out, s, rtol=1e-10)  # H = s for beta = 1

    def test_unknown_column(self, beta1_table):
        with pytest.raises(DomainError):
            beta1_table.eval("Q", 0.5)

    def test_bounds_stand_in_for_the_scan(self, beta1_table):
        # an interval that holds every value changes no bit, also when it
        # reaches past the domain (the clamp leaves inner values alone)
        tab = beta1_table
        s = np.geomspace(1e-6, 0.9, 301).reshape(1, -1)
        ref = tab.eval(("F", "h"), s)
        for bounds in ((1e-6, 0.9), (tab.s_min, tab.M), (1e-9, 1.5)):
            assert np.array_equal(tab.eval(("F", "h"), s, bounds), ref)
        # an interval past the domain sends the check to the values
        bad = np.array([0.5, tab.M * 1.5])
        with pytest.raises(DomainError, match="first offender 1.5"):
            tab.eval("F", bad, (0.0, 2.0))

    def test_replaced_columns_get_their_own_evaluators(self, beta1_table):
        tab = beta1_table
        tab.eval("F", 0.5)  # builds tab's evaluator of F first
        doubled = replace(tab, F=2.0 * tab.F)
        assert doubled.eval("F", 0.5) == pytest.approx(
            2.0 * tab.eval("F", 0.5), rel=1e-12)
        assert doubled.evaluator("F") is not tab.evaluator("F")


class TestCsv:
    def test_round_trip_is_exact(self, beta1_table, tmp_path):
        path = tmp_path / "table.csv"
        beta1_table.dump_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(COLUMNS) == "s,I,H,h,F,Fprime,G"
        back = CoefficientTable.load_csv(path, Lambda=beta1_table.Lambda)
        for name in COLUMNS:
            assert np.array_equal(back.column(name), beta1_table.column(name))
        assert abs(back.eval("F", 0.25) - beta1_table.eval("F", 0.25)) < 1e-15


class TestValidationAndErrors:
    def test_c3_bound_enforced(self):
        prof = DegeneracyProfile(func=lambda s: np.asarray(s, dtype=float),
                                 M=1.0, c3=0.5, kind="custom")
        with pytest.raises(DomainError):
            prof.validate()

    def test_nonpositive_profile_rejected(self):
        prof = DegeneracyProfile(func=lambda s: np.asarray(s, dtype=float) - 0.5,
                                 M=1.0, c3=1.0, kind="custom")
        with pytest.raises(DomainError):
            prof.validate()

    def test_oversized_tail_breaks_fprime_positivity(self):
        # P*I > (Lambda+1)/Lambda makes F' <= 0 somewhere; the build refuses
        prof = power_profile(1.0, tail=5.0)
        with pytest.raises(AssumptionError):
            build_table(prof, LambdaChoice(1.0), s_min=1e-4, K=64)

    def test_small_K_rejected(self, beta1_profile):
        with pytest.raises(DomainError):
            build_table(beta1_profile, LambdaChoice(1.0), s_min=1e-4, K=8)

    @pytest.mark.parametrize("kind,Lambda,column", [
        ("power", 1e-300, "H"), ("power", 1e-3, "H"),
        ("exp_zeta_bounded", 1e-3, "F'"), ("exp_zeta_slow", 1e300, "F'")])
    def test_lambda_out_of_double_range_named(self, kind, Lambda, column):
        # H = (Lambda*I)^(-1/Lambda) overflows, or F underflows and the log
        # differences of F' are NaN; numpy warns of neither
        prof = PROFILES[kind].make_profile()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssumptionError) as err:
                build_table(prof, LambdaChoice(Lambda))
        message = str(err.value)
        assert message.startswith(f"{column}(")
        assert message.endswith(f" at Lambda = {Lambda:g}: the table leaves "
                                "the double range")

    def test_lambda_choice_validation(self):
        with pytest.raises(DomainError):
            LambdaChoice(0.0)
        with pytest.raises(DomainError):
            LambdaChoice(-2.0)


class TestLambdaChoice:
    def test_lam_identity(self):
        for Lambda in (0.5, 1.0, 3.0, 10.0):
            lc = LambdaChoice(Lambda)
            assert abs(lc.lam * (Lambda + 1.0) - 2.0) < 1e-14

    def test_from_auto_frozen_cases(self):
        # A = 1.0 -> target (Lambda+1)/Lambda = 1.5 -> Lambda = 2
        assert LambdaChoice.from_auto(1.0).Lambda == pytest.approx(2.0)
        # A = 0.5 -> target 0.75 <= 1, unattainable: fall back to Lambda = 1
        assert LambdaChoice.from_auto(0.5).Lambda == 1.0

    @settings(max_examples=50, deadline=None)
    @given(Lambda=st.floats(min_value=0.01, max_value=100.0))
    def test_lam_in_range(self, Lambda):
        lam = LambdaChoice(Lambda).lam
        assert 0.0 < lam < 2.0
        assert abs(lam * (Lambda + 1.0) - 2.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(A=st.floats(min_value=0.05, max_value=20.0))
    def test_from_auto_satisfies_margin(self, A):
        lc = LambdaChoice.from_auto(A)
        target = (lc.Lambda + 1.0) / lc.Lambda
        # either the margin equation holds, or the fallback Lambda = 1
        assert (abs(target - 1.5 * A) < 1e-9) or lc.Lambda == 1.0


class TestFactories:
    def test_custom_profile_round_trip(self):
        s = np.geomspace(1e-6, 1.0, 64)
        prof = custom_profile(s, s.copy())  # P(s) = s through interpolation
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-5, K=64)
        rel = np.max(np.abs(tab.F - tab.s) / tab.s)
        assert rel < 1e-6

    def test_constant_table_shape(self):
        tab = constant_table()
        assert np.all(tab.F == 1.0)
        assert np.all(tab.h == 1.0)
        assert np.allclose(tab.H, tab.s)
        assert np.all(tab.Fprime == 0.0)
        assert np.all(tab.G == 0.0)
        assert tab.Lambda is None

    def test_exp_inv_representability_floor(self):
        prof = exp_inv_profile(1.0)
        # below ~1/200 the profile underflows double precision; the hint
        # keeps table builds inside representable territory
        assert prof.s_min_hint >= 1.0 / 200.0
        assert prof(np.array([prof.s_min_hint]))[0] > 0.0

    def test_quadrature_built_rate_reaches_s_min_hint(self):
        # without a closed form the rate integral is tabulated down to
        # min(1e-9 M, s_min_hint); below that it raises, never extrapolates
        ref = lambda s: np.exp(-_zeta_slow_integral(s))  # noqa: E731
        deep = exp_zeta_profile(_zeta_slow, kind="exp_zeta_slow",
                                s_min_hint=1e-12)
        s = np.geomspace(1e-12, 1.0, 4001)
        assert np.max(np.abs(deep(s) / ref(s) - 1.0)) <= 1e-7
        default = exp_zeta_profile(_zeta_slow, kind="exp_zeta_slow")
        assert default(np.array([1e-9]))[0] == pytest.approx(ref(1e-9), rel=1e-7)
        for s_low in (1e-10, 1e-12):
            with pytest.raises(DomainError):
                default(np.array([s_low]))
        with pytest.raises(DomainError):
            build_table(default, LambdaChoice(1.0), s_min=1e-10, K=64)
