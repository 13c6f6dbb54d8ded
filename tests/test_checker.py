"""Assumption checker: catalog verdicts, independent oracles, invariances.

The almost-decreasing constant has a brute-force O(K^2) pair-scan oracle
here; the library computes it with a running-minimum sweep, so agreement is
a genuine cross-check, not a restatement.
"""

import json

import numpy as np
import pytest

from degenstein.checker import (PROFILES, check_A1, check_almost_decreasing,
                                check_profile, estimate_A_B)
from degenstein.coeffs import (CoefficientTable, DegeneracyProfile,
                               LambdaChoice, build_table, constant_table,
                               power_profile)
from degenstein.errors import DomainError


@pytest.fixture(scope="module")
def beta2_profile():
    return power_profile(2.0)


@pytest.fixture(scope="module")
def beta2_checked(beta2_profile):
    tab = build_table(beta2_profile, LambdaChoice(1.0), s_min=1e-8, K=256)
    return beta2_profile, tab


class TestCatalog:
    def test_all_entries_pass_and_match(self):
        for entry in PROFILES.values():
            report = entry.run()
            ok, failures = entry.matches(report)
            assert ok, f"{entry.name}: {failures}"

    def test_catalog_names(self):
        names = [e.name for e in PROFILES.values()]
        assert names == ["power_beta1", "exp_inv_beta1",
                         "exp_zeta_bounded", "exp_zeta_slow"]

    def test_power_limits_frozen(self):
        entry = PROFILES["power"]
        report = entry.run()
        assert report.A_est == pytest.approx(1.0, rel=1e-6)
        assert report.B_est == pytest.approx(1.0, rel=1e-2)
        assert report.sPprimeI_trend == pytest.approx(1.0, rel=1e-2)
        assert report.C1_est == pytest.approx(1.0, rel=1e-6)

    def test_exp_inv_measured_constants(self):
        entry = PROFILES["exp_inv"]
        report = entry.run()
        # essential singularity: B -> 0, and the head-ratio constant sits
        # well below the power-family value (frozen from the desk build)
        assert report.B_est == pytest.approx(0.0, abs=0.05)
        assert report.C1_est == pytest.approx(0.76, abs=0.05)
        assert report.all_pass()


class TestAlmostDecreasingOracle:
    @staticmethod
    def _pair_scan(profile, table, mu):
        # c = min over s_i <= s_j of Q(s_i)/Q(s_j), Q = P * I^mu
        P = profile(table.s)
        Q = np.log(P) + mu * np.log(table.I)
        worst = np.inf
        for i in range(len(Q)):
            for jj in range(i + 1, len(Q)):
                worst = min(worst, Q[i] - Q[jj])
        return float(np.exp(worst))

    @pytest.mark.parametrize("mu", [1.0, 1.5, 2.0])
    def test_matches_pair_scan(self, mu):
        prof = power_profile(1.0)
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-6, K=96)
        c, ok, mu_used, _ = check_almost_decreasing(tab, mu=mu)
        oracle = self._pair_scan(prof, tab, mu)
        assert c == pytest.approx(oracle, rel=1e-10)
        assert mu_used == mu

    def test_power_is_exactly_almost_decreasing(self):
        # P * I^mu = s^(1-mu): constant at mu = 1 (c = 1 exactly), strictly
        # decreasing at mu = 1.5 (best constant exceeds 1)
        prof = power_profile(1.0)
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-6, K=96)
        c1, ok1, _, _ = check_almost_decreasing(tab, mu=1.0)
        assert ok1
        assert c1 == pytest.approx(1.0, rel=1e-9)
        c15, ok15, _, _ = check_almost_decreasing(tab, mu=1.5)
        assert ok15
        assert c15 >= 1.0

    def test_nonpositive_mu_rejected(self):
        prof = power_profile(1.0)
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-6, K=64)
        with pytest.raises(DomainError):
            check_almost_decreasing(tab, mu=0.0)
        with pytest.raises(DomainError):
            check_almost_decreasing(tab, mu=-1.0)

    def test_auto_mu_is_sup_of_s_dP_I(self):
        prof = power_profile(2.0)
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-6, K=96)
        _, _, mu_used, sup_spi = check_almost_decreasing(tab, mu=None)
        assert mu_used == pytest.approx(sup_spi)
        # s P'(s) I(s) = s * 2s * s^(-2)/2 = 1 for the quadratic family
        assert sup_spi == pytest.approx(1.0, rel=1e-6)


class TestA1:
    def test_scale_invariance(self):
        """Doubling P (with the tail halved to keep I consistent) leaves the
        gradient-comparison constant at the power-family value."""
        prof = DegeneracyProfile(
            func=lambda s: 2.0 * np.asarray(s, dtype=float),
            M=1.0, c3=2.0, kind="custom",
            analytic_I=lambda s: 1.0 / (2.0 * np.asarray(s, dtype=float)),
            analytic_dP=lambda s: np.full_like(np.asarray(s, dtype=float), 2.0),
            tail=0.5)
        tab = build_table(prof, LambdaChoice(1.0), s_min=1e-8, K=128)
        C1, bounded, _ = check_A1(tab)
        assert bounded
        assert C1 == pytest.approx(1.0, rel=1e-6)

    def test_constant_fprime_flagged(self, beta2_checked):
        prof, tab = beta2_checked
        C1, bounded, info = check_A1(tab)
        assert bounded
        assert np.isfinite(C1)
        assert "small_s_ratio" in info


class TestEstimates:
    def test_beta2_limits(self, beta2_checked):
        _, tab = beta2_checked
        A, B, slope = estimate_A_B(tab)
        assert A == pytest.approx(0.5, rel=1e-6)
        assert B == pytest.approx(0.5, rel=1e-2)
        assert abs(slope) < 1e-2


class TestReport:
    def test_report_round_trip(self, tmp_path):
        report = check_profile(build_table(power_profile(1.0), LambdaChoice(1.0),
                                           s_min=1e-6, K=96))
        assert report.all_pass()
        path = tmp_path / "report.json"
        report.to_json(path)
        data = json.loads(path.read_text())
        assert set(data["verdicts"]) == {"A1", "A2", "P2", "almost_decreasing"}
        for v in data["verdicts"].values():
            assert v["pass"] is True
        assert data["A_est"] == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("Lambda, growth", [(1.0, 2.0), (2.0, 1.5)],
                             ids=["Lambda1", "Lambda2"])
    def test_p2_margin_positive_for_power(self, Lambda, growth):
        report = check_profile(build_table(power_profile(1.0),
                                           LambdaChoice(Lambda),
                                           s_min=1e-6, K=96))
        # (Lambda+1)/Lambda vs A = 1: margin 1 at Lambda = 1, 0.5 at 2
        assert report.Lambda == Lambda
        assert report.verdicts["P2"]["growth"] == growth
        assert report.verdicts["P2"]["margin"] == pytest.approx(growth - 1.0,
                                                                rel=1e-6)

    def test_table_without_a_profile_is_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        build_table(power_profile(1.0), LambdaChoice(1.0), s_min=1e-6,
                    K=32).dump_csv(path)
        for tab in (constant_table(),
                    CoefficientTable.load_csv(path, Lambda=1.0)):
            for check in (check_profile, estimate_A_B,
                          check_almost_decreasing):
                with pytest.raises(DomainError,
                                   match="no assumptions to check"):
                    check(tab)
