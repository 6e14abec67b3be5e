"""Harness behavior: determinism, report semantics, and suite health."""

import math
import warnings

import numpy as np
import pytest

from alphaharmonic import (BoundaryData, DomainError, TrialSpec,
                           check_identities, check_proof_machinery,
                           check_schwarz, check_schwarz_pick, figure1_data,
                           random_boundary, run_suite, thm_a_constant)
from alphaharmonic.verify import (default_figure_alphas, inconclusive_rate,
                                  total_violations)


class TestRandomBoundary:
    def test_degree_zero_is_constant(self):
        bd = random_boundary(0, 0, 0.6)
        assert bd.degree == 0
        assert abs(bd.coefficients[0]) == pytest.approx(0.6, abs=1e-12)

    def test_determinism(self):
        a = random_boundary(123, 5, 0.9)
        b = random_boundary(123, 5, 0.9)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_different_seeds_differ(self):
        a = random_boundary(1, 5, 0.9)
        b = random_boundary(2, 5, 0.9)
        assert not np.allclose(a.coefficients, b.coefficients)

    def test_sup_norm_rescaled(self):
        bd = random_boundary(7, 8, 1.0)
        assert bd.sup_norm == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_target(self):
        with pytest.raises(DomainError):
            random_boundary(0, 2, 0.0)
        with pytest.raises(DomainError):
            random_boundary(0, 2, 1.5)


class TestThmAConstant:
    def test_constant_data(self):
        assert thm_a_constant(BoundaryData.constant(1.0)) == pytest.approx(
            1.0, abs=1e-12)

    def test_unimodular_data(self):
        eik = BoundaryData([0.0, 0.0, 1.0])
        assert thm_a_constant(eik) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_data(self):
        cosb = BoundaryData([0.5, 0.0, 0.5])
        assert thm_a_constant(cosb) == pytest.approx(2.0 / math.pi, abs=1e-10)

    def test_zero_data_rejected(self):
        with pytest.raises(DomainError):
            thm_a_constant(BoundaryData.constant(0.0))

    def test_always_in_unit_interval(self):
        for seed in range(20):
            bd = random_boundary(seed, 6, 0.9)
            c = thm_a_constant(bd)
            assert 0.0 < c <= 1.0


class TestSuiteReports:
    def test_determinism(self):
        spec = TrialSpec(seed=3, n_trials=20)
        r1 = check_schwarz(spec)
        r2 = check_schwarz(spec)
        assert [(t.theorem_id, t.n_checked, t.worst_margin) for t in r1] == \
               [(t.theorem_id, t.n_checked, t.worst_margin) for t in r2]

    def test_schwarz_no_violations(self):
        reports = check_schwarz(TrialSpec(seed=0, n_trials=60))
        assert total_violations(reports) == 0
        ids = {r.theorem_id for r in reports}
        assert ids == {"CENTER_M", "CENTER_M2", "CENTER_M_PRIME", "SUP_2F1",
                       "CENTER_M1"}

    def test_boundary_mean_failure_leaves_only_m1_open(self):
        # suite seed 656857602 draws alpha = -0.1, degree 6 data whose |f*|
        # boundary-mean quadrature fails at 2**20 nodes in one trial
        reports = {r.theorem_id: r
                   for r in check_schwarz(TrialSpec(seed=656857602, n_trials=4))}
        for tid in ("CENTER_M", "CENTER_M2", "SUP_2F1"):
            assert (reports[tid].n_checked, reports[tid].n_inconclusive) == (4, 0)
        assert reports["CENTER_M_PRIME"].n_inconclusive == 0
        m1 = reports["CENTER_M1"]
        assert (m1.n_checked, m1.n_inconclusive) == (3, 1)

    def test_schwarz_pick_no_violations(self):
        reports = check_schwarz_pick(TrialSpec(seed=1, n_trials=60))
        assert total_violations(reports) == 0
        assert {r.theorem_id for r in reports} == {
            "DERIV_SP_2F1", "DERIV_SP_LIMIT", "DERIV_LC", "DERIV_COLONNA"}

    def test_identities_no_violations(self):
        reports = check_identities(TrialSpec(seed=2, n_trials=40))
        assert total_violations(reports) == 0
        assert inconclusive_rate(reports) < 0.01
        spectral = reports[-1]
        assert spectral.theorem_id == "DIRICHLET_SPECTRAL"
        assert (spectral.n_checked, spectral.n_inconclusive) == (40, 0)

    def test_machinery_no_violations(self):
        reports = check_proof_machinery(TrialSpec(seed=0, n_trials=10))
        assert total_violations(reports) == 0

    def test_machinery_moebius_strictly_positive(self):
        spec = TrialSpec(seed=0, n_trials=10,
                         alpha_set=(-0.9, -0.5, -0.1),
                         radius_set=(0.1, 0.5, 0.9))
        reports = {r.theorem_id: r for r in check_proof_machinery(spec)}
        assert reports["MOEBIUS_CONTRACTION"].worst_margin > 0.0

    @pytest.mark.parametrize("alpha", [-0.95, -0.9, -0.5, -0.1, -1e-3])
    def test_machinery_moebius_margin_per_pair(self, alpha):
        # the per-(alpha, r) formula on the same 4096-point grid; near r = 1
        # both forms round like eps / |1 - xi| <= eps / (1 - r)
        theta = 2.0 * math.pi * np.arange(4096) / 4096.0
        eps = np.finfo(float).eps
        for r in (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.85, 0.9, 0.99, 0.999):
            xi = r * np.exp(-1j * theta)
            vals = np.abs(((1.0 + alpha) * (r * r - xi) + 1.0 - r * r) / (1.0 - xi))
            want = (1.0 - alpha) - float(np.max(vals))
            spec = TrialSpec(alpha_set=(alpha,), radius_set=(r,))
            reports = {t.theorem_id: t for t in check_proof_machinery(spec)}
            tol = 1e-15 if r <= 0.9 else 16.0 * eps / (1.0 - r)
            assert abs(reports["MOEBIUS_CONTRACTION"].worst_margin - want) <= tol

    def test_machinery_pochhammer_margin_per_alpha(self):
        n = np.arange(10_000, dtype=float)
        for alpha in (-0.9, -0.1, 0.0, 0.5, 2.0, 5.0):
            ratios = ((0.5 + alpha / 4.0 + n) * (1.0 + alpha / 4.0 + n)
                      / ((0.5 + n) * (1.0 + alpha / 2.0 + n)))
            q = np.concatenate(([1.0], np.cumprod(ratios)))
            diffs = np.diff(q)
            mono = float(np.min(diffs)) if alpha >= 0.0 else float(np.min(-diffs))
            limit = 2.0 ** (alpha / 2.0)
            want = min(mono, 1e-2 - abs(q[-1] - limit) / limit)
            spec = TrialSpec(alpha_set=(alpha,), radius_set=(0.5,))
            reports = {t.theorem_id: t for t in check_proof_machinery(spec)}
            assert reports["POCHHAMMER_RATIO_SEQUENCE"].worst_margin == want

    def test_informational_flag_only_on_m1(self):
        reports = check_schwarz(TrialSpec(seed=0, n_trials=10))
        info = [r.theorem_id for r in reports if r.informational]
        assert info == ["CENTER_M1"]

    def test_run_suite_all(self):
        reports = run_suite("all", TrialSpec(seed=0, n_trials=5))
        assert len(reports) == 5 + 4 + 8 + 3

    def test_run_suite_unknown(self):
        with pytest.raises(DomainError):
            run_suite("nope", TrialSpec())

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            TrialSpec(n_trials=0)
        with pytest.raises(DomainError):
            TrialSpec(alpha_set=(-2.0,))
        with pytest.raises(DomainError):
            TrialSpec(radius_set=(1.0,))
        with pytest.raises(DomainError):
            TrialSpec(slack=-1e-9)
        with pytest.raises(DomainError):
            TrialSpec(seed=-1)


class TestLargeAlpha:
    # alpha = 400 at r = 0.9: bounds near 1e110 to 1e124, kernel integrands
    # that leave the float range
    SPEC = TrialSpec(seed=0, n_trials=12, alpha_set=(400.0,), radius_set=(0.9,))

    @staticmethod
    def run(name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return {r.theorem_id: r for r in run_suite(name, TestLargeAlpha.SPEC)}

    def test_schwarz(self):
        reports = self.run("schwarz")
        for tid in ("CENTER_M", "CENTER_M2", "CENTER_M_PRIME", "SUP_2F1"):
            assert reports[tid].n_checked + reports[tid].n_inconclusive == 12
            assert reports[tid].n_violations == 0

    def test_schwarz_pick(self):
        reports = self.run("schwarz-pick")
        for tid in ("DERIV_SP_2F1", "DERIV_SP_LIMIT", "DERIV_LC"):
            assert reports[tid].n_checked + reports[tid].n_inconclusive == 12
            assert reports[tid].n_violations == 0

    def test_identities(self):
        # the kernel pass meets non-finite values: inconclusive, not an error
        spectral = self.run("identities")["DIRICHLET_SPECTRAL"]
        assert (spectral.n_checked, spectral.n_inconclusive) == (0, 12)

    def test_machinery(self):
        reports = self.run("machinery")
        assert reports["MOEBIUS_CONTRACTION"].n_checked == 0  # alpha >= 0
        assert reports["RATE_FUNCTION"].n_violations == 0
        assert reports["POCHHAMMER_RATIO_SEQUENCE"].n_checked == 1


class TestFigureData:
    def test_default_grid(self):
        alphas = default_figure_alphas()
        assert len(alphas) == 80
        assert alphas[0] == pytest.approx(-0.95)
        assert alphas[-1] == pytest.approx(3.0)
        assert 0.0 in alphas

    def test_rows_ordered(self):
        rows = figure1_data()
        assert all(m <= m2 for _, m, m2 in rows)

    def test_alpha_zero_collapse(self):
        rows = {a: (m, m2) for a, m, m2 in figure1_data()}
        m, m2 = rows[0.0]
        want = 4.0 / math.pi * math.atan(0.99)
        assert m == pytest.approx(want, abs=1e-10)
        assert m2 == pytest.approx(want, abs=1e-10)

    def test_custom_grid(self):
        rows = figure1_data(0.5, [0.0, 1.0])
        assert len(rows) == 2
        assert rows[0][0] == 0.0
