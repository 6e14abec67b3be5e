"""Harness behavior: determinism, report semantics, and suite health."""

import cmath
import math
import warnings

import numpy as np
import pytest

from alphaharmonic import (BoundaryData, ConvergenceError, DomainError, IntegrandError,
                           TrialSpec, check_identities, check_proof_machinery,
                           check_schwarz, check_schwarz_pick, derivative_pair,
                           figure1_data, random_boundary, run_suite,
                           solve_dirichlet, thm_a_constant)
import alphaharmonic.verify as verify_module
from alphaharmonic.quadrature import cos_power_integral
from alphaharmonic.verify import (_gauss_legendre_quarter, _kernel_integrals,
                                  default_figure_alphas, inconclusive_rate,
                                  total_violations)


def _assert_pochhammer_margin(alpha: float) -> float:
    """POCHHAMMER_RATIO_SEQUENCE's margin at alpha, checked against one
    cumprod over all N = 10^4 max(1, ceil(alpha^2 / 160)) steps: q_n moves in
    alpha's direction at every step, the margin's step part is
    sign(alpha) alpha (alpha + 2) / 16, and its q_N is within 1e-9 relative
    of the cumprod's."""
    n = np.arange(10_000 * max(1, math.ceil(alpha * alpha / 160.0)), dtype=float)
    ratios = ((0.5 + alpha / 4.0 + n) * (1.0 + alpha / 4.0 + n)
              / ((0.5 + n) * (1.0 + alpha / 2.0 + n)))
    q = np.concatenate(([1.0], np.cumprod(ratios)))
    direction = 1.0 if alpha >= 0.0 else -1.0
    assert np.all(direction * np.diff(q) >= 0.0)
    limit = 2.0 ** (alpha / 2.0)
    gap = abs(q[-1] - limit) / limit
    step = direction * alpha * (alpha + 2.0) / 16.0
    step_tol = 4.0 * np.finfo(float).eps * (1.0 + abs(alpha)) ** 2
    spec = TrialSpec(alpha_set=(alpha,), radius_set=(0.5,))
    reports = {t.theorem_id: t for t in check_proof_machinery(spec)}
    margin = reports["POCHHAMMER_RATIO_SEQUENCE"].worst_margin
    assert margin <= step + step_tol and margin <= 1e-2 - gap + 1e-9
    if step < 1e-2 - gap:
        assert abs(margin - step) <= step_tol
    else:
        assert abs((1e-2 - margin) - gap) <= 1e-9
    return margin


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

    def test_equals_the_raw_data_scaled(self):
        # one draw of 2n normals is the stream of the two draws of n that
        # built validated raw data and its scaled copy, bit for bit
        rng = np.random.default_rng(200)
        for seed in range(200):
            for degree in range(17):
                target = 1.0 - float(rng.uniform(0.0, 1.0))  # in (0, 1]
                draws = np.random.default_rng(seed)
                n = 2 * degree + 1
                raw = BoundaryData(draws.standard_normal(n) + 1j * draws.standard_normal(n))
                want = raw.scaled(target / raw.sup_norm)
                got = random_boundary(seed, degree, target)
                assert np.array_equal(got.coefficients, want.coefficients)
                assert got.sup_norm == want.sup_norm


def _old_boundary_trial(rng, spec):
    """A trial drawn as it was with rng.choice and a sampled raw polynomial."""
    degree = int(rng.integers(0, 9))
    target = float(rng.uniform(0.2, 1.0))
    sub = np.random.default_rng(int(rng.integers(0, 2**62)))
    raw = BoundaryData(sub.standard_normal(2 * degree + 1)
                       + 1j * sub.standard_normal(2 * degree + 1))
    factor = target / raw.sup_norm
    alpha = float(rng.choice(np.asarray(spec.alpha_set, dtype=float)))
    r = float(rng.choice(np.asarray(spec.radius_set, dtype=float)))
    z = r * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
    return raw.coefficients * factor, factor * raw.sup_norm, alpha, r, z


def _same_bits(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestDraws:
    """Certify's draws take whole rows or an index from the generator, and
    equal, bit for bit, the scalar calls and rng.choice they replace."""

    SPEC = TrialSpec(seed=17, n_trials=60, alpha_set=(-0.5, 0, 1, 2.5, 7.0),
                     radius_set=(0.1, 0.45, 0.9))

    def test_boundary_trials_match_rng_choice(self):
        rng = np.random.default_rng(self.SPEC.seed)
        old_rng = np.random.default_rng(self.SPEC.seed)
        for _ in range(self.SPEC.n_trials):
            fstar, alpha, r, z = verify_module._draw_boundary_trial(rng, self.SPEC)
            coeffs, sup, *rest = _old_boundary_trial(old_rng, self.SPEC)
            assert _same_bits(fstar.coefficients, coeffs) and _same_bits(fstar.sup_norm, sup)
            assert _same_bits((alpha, r, z), rest)
        assert rng.bit_generator.state == old_rng.bit_generator.state

    def test_identity_rows_match_scalar_draws(self, monkeypatch):
        # each drawn route records its arguments and returns a harmless 0
        got = []

        def recorder(name):
            return lambda *args: got.append((name, args)) or 0.0

        for name in ("ratio_integral_series", "modulus_power_integral", "_euler_margin",
                     "_quadratic_transform_eval", "_gauss_margin", "c_alpha",
                     "_spectral_margin", "_mean_margin", "hyp2f1"):
            monkeypatch.setattr(verify_module, name, recorder(name))
        for _, _, _, margins in verify_module._identity_cases(self.SPEC):
            margins()

        rng = np.random.default_rng(self.SPEC.seed)
        n = self.SPEC.n_trials

        def row(*ranges):
            return [[float(rng.uniform(lo, hi)) for lo, hi in ranges] for _ in range(n)]

        want = [("ratio_integral_series", tuple(v))
                for v in row((-0.95, 0.95), (-0.95, 0.95), (0.0, 4.0), (0.0, 4.0))]
        want += [("modulus_power_integral", (r * cmath.exp(1j * phi), be))
                 for r, phi, be in row((0.0, 0.9), (0.0, 2.0 * math.pi), (0.0, 3.0))]
        want += [("_euler_margin", tuple(v))
                 for v in row((-2.0, 2.0), (-2.0, 2.0), (0.3, 3.0), (0.0, 0.95))]
        want += [("_quadratic_transform_eval", tuple(v))
                 for v in row((-1.5, 1.5), (0.4, 3.0), (0.0, 0.95))]
        for _ in range(n):
            while True:
                a, b = float(rng.uniform(-1.0, 1.5)), float(rng.uniform(-1.0, 1.5))
                c = a + b + float(rng.uniform(0.25, 2.0))
                if c - a > 0.05 and c - b > 0.05 and c > 0.3:
                    break
            want.append(("_gauss_margin", (a, b, c)))
        want += [("c_alpha", (40.0 - 41.0 * u,)) for (u,) in row((0.0, 1.0))]
        for _ in range(n):
            coeffs, _, alpha, _, z = _old_boundary_trial(rng, self.SPEC)
            want.append(("_spectral_margin", (alpha, coeffs, z)))

        drawn = [(name, args) for name, args in got
                 if name not in ("_mean_margin", "hyp2f1")]
        drawn = [(name, (args[0], args[1].coefficients, args[2]))
                 if name == "_spectral_margin" else (name, args) for name, args in drawn]
        assert len(drawn) == len(want)
        for (name, args), (want_name, want_args) in zip(drawn, want):
            assert name == want_name
            assert all(map(_same_bits, args, want_args)), (name, args, want_args)


class TestThmAConstant:
    def test_constant_data(self):
        assert thm_a_constant(BoundaryData([1.0])) == pytest.approx(
            1.0, abs=1e-12)

    def test_unimodular_data(self):
        eik = BoundaryData([0.0, 0.0, 1.0])
        assert thm_a_constant(eik) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_data(self):
        cosb = BoundaryData([0.5, 0.0, 0.5])
        assert thm_a_constant(cosb) == pytest.approx(2.0 / math.pi, abs=1e-10)

    def test_zero_data_rejected(self):
        with pytest.raises(DomainError):
            thm_a_constant(BoundaryData([0.0]))

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

    @pytest.mark.parametrize("alpha", [-0.95, -0.9, -0.5, -0.1, -1e-3])
    def test_machinery_moebius_margin_closed_form(self, alpha):
        # the max over theta is 1 - alpha r, at xi = r; near r = 1 the
        # expression rounds like eps / (1 - r)
        eps = np.finfo(float).eps
        for r in (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.85, 0.9, 0.99, 0.999):
            spec = TrialSpec(alpha_set=(alpha,), radius_set=(r,))
            reports = {t.theorem_id: t for t in check_proof_machinery(spec)}
            margin = reports["MOEBIUS_CONTRACTION"].worst_margin
            assert abs(margin - abs(alpha) * (1.0 - r)) <= 4.0 * eps / (1.0 - r)

    def test_machinery_pochhammer_margin_per_alpha(self):
        # at |alpha| = 0.05 and 0 the step part decides, elsewhere the gap
        for alpha in (-0.9, -0.1, -0.05, 0.0, 0.05, 0.5, 2.0, 5.0):
            _assert_pochhammer_margin(alpha)

    def test_wallis_margins_per_power(self):
        # one numpy pass per power, as the suite did before its power table
        theta, w = _gauss_legendre_quarter()
        want = min(1e-12 - abs(cos_power_integral(n) - float(np.sum(w * np.cos(theta) ** n)))
                   for n in range(41))
        reports = {t.theorem_id: t for t in check_identities(TrialSpec(seed=0, n_trials=1))}
        assert reports["COSINE_POWER_WALLIS"].worst_margin == want

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

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
    def test_spec_rejects_alpha_outside_domain(self, alpha):
        # an infinite alpha used to fail partway through a run, in the
        # machinery suite with a raw OverflowError
        with pytest.raises(DomainError, match="alpha"):
            TrialSpec(alpha_set=(0.5, alpha))

    @pytest.mark.parametrize("kwargs", [
        {"alpha_set": ()}, {"radius_set": ()}, {"n_trials": 2.5},
    ])
    def test_spec_rejects_malformed_sets_and_counts(self, kwargs):
        # these used to escape as numpy's "a cannot be empty" ValueError or
        # a TypeError from range
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            TrialSpec(**kwargs)

    @pytest.mark.parametrize("seed, degree", [(-1, 3), (1, 2.5)])
    def test_random_boundary_rejects_bad_seed_or_degree(self, seed, degree):
        with pytest.raises(DomainError):
            random_boundary(seed, degree)

    @pytest.mark.parametrize("slack", [math.nan, math.inf])
    def test_spec_rejects_non_finite_slack(self, slack):
        # margin < -nan is never true, so a NaN slack hid every violation
        with pytest.raises(DomainError, match="slack"):
            TrialSpec(slack=slack)

    @pytest.mark.parametrize("make", [
        lambda: TrialSpec(radius_set=("0.5",)),
        lambda: TrialSpec(slack="1e-9"),
        lambda: TrialSpec(alpha_set=0.5),
        lambda: TrialSpec(alpha_set=("x",)),
        lambda: random_boundary(1, 3, "0.5"),
    ])
    def test_non_numeric_inputs_rejected(self, make):
        # these used to escape as a raw TypeError or ValueError
        with pytest.raises(DomainError):
            make()

    def test_euler_transform_pairs_two_routes(self, monkeypatch):
        # where hyp2f1 takes its "euler" route it sums the very series
        # _euler_transform_eval sums; there the untransformed series must be
        # the route compared
        trials = []  # per EULER_TRANSFORM trial: [(a, b, c, x), route beside the Euler side]
        detailed, raw = verify_module.hyp2f1_detailed, verify_module._series_sum

        def spy_detailed(params, x):
            res = detailed(params, x)
            trials.append([(*params, x), res.transform])
            return res

        def spy_raw(a, b, c, x):
            # the Euler side sums F(c-a, c-b; c; x) through the same name
            if trials and trials[-1][0] == (a, b, c, x):
                trials[-1][1] = "raw"
            return raw(a, b, c, x)

        monkeypatch.setattr(verify_module, "hyp2f1_detailed", spy_detailed)
        monkeypatch.setattr(verify_module, "_series_sum", spy_raw)
        for seed in range(5):
            check_identities(TrialSpec(seed=seed, n_trials=200))
        routes = [route for _, route in trials]
        assert len(routes) == 5 * 200
        assert "euler" not in routes
        assert {"raw", "none", "connection"} <= set(routes)


class TestTally:
    """How every suite counts a trial: checked, inconclusive or violated."""

    def test_nan_margin_is_inconclusive(self, monkeypatch):
        # a NaN margin used to count as checked and never violated
        monkeypatch.setattr(verify_module.bnd, "schwarz_bound", lambda r, alpha: math.nan)
        reports = {r.theorem_id: r for r in check_schwarz(TrialSpec(seed=0, n_trials=10))}
        assert (reports["SUP_2F1"].n_checked, reports["SUP_2F1"].n_inconclusive) == (0, 10)
        assert (reports["CENTER_M"].n_checked, reports["CENTER_M"].n_inconclusive) == (10, 0)

    def test_failed_trial_is_counted_once(self, monkeypatch):
        # CENTER_M's margin came before the failing bound, so each trial used
        # to count as both checked and inconclusive
        def fail(r, alpha):
            raise ConvergenceError("planted")

        monkeypatch.setattr(verify_module.bnd, "schwarz_bound", fail)
        reports = check_schwarz(TrialSpec(seed=0, n_trials=10))
        # two of these trials are at alpha < 0, where CENTER_M_PRIME does not apply
        assert [(r.n_checked, r.n_inconclusive) for r in reports] == [
            (0, 10), (0, 10), (0, 8), (0, 10), (0, 10)]

    def test_bounds_beyond_float_range_are_inconclusive(self):
        # TrialSpec accepts alpha = 2000, where the bounds leave the float
        # range; the run used to die with a raw OverflowError
        spec = TrialSpec(alpha_set=(2000.0,), radius_set=(0.5,))
        for report in run_suite("schwarz", spec):
            assert (report.n_checked, report.n_inconclusive) == (0, 100), report.theorem_id

    def test_failed_trial_leaves_inapplicable_ids_alone(self):
        # the derivative pair leaves the float range at alpha = 2000; DERIV_COLONNA,
        # stated for alpha = 0 alone, used to count those trials as inconclusive
        spec = TrialSpec(alpha_set=(2000.0,), radius_set=(0.5,), n_trials=10)
        counts = {r.theorem_id: (r.n_checked, r.n_inconclusive)
                  for r in run_suite("schwarz-pick", spec)}
        assert counts == {"DERIV_SP_2F1": (0, 10), "DERIV_SP_LIMIT": (0, 10),
                          "DERIV_LC": (0, 10), "DERIV_COLONNA": (0, 0)}

    @pytest.mark.parametrize("theorem_id, route, error, least", [
        ("COSINE_MEAN_SERIES", "ratio_integral_series", 1e-7, 25),
        ("MODULUS_POWER_MEAN", "modulus_power_integral", 1e-8, 25),
        ("COSINE_POWER_WALLIS", "cos_power_integral", 1e-11, 21),
        ("EULER_TRANSFORM", "hyp2f1_detailed", 1e-9, 25),
        ("QUADRATIC_TRANSFORM", "hyp2f1", 1e-9, 25),
        # this row only checks that the gaps to the limit shrink: a 1e-4
        # error is caught in 15 of these 50 trials, a 1e-6 one in 1
        ("GAUSS_SUMMATION", "hyp2f1", 1e-4, 10),
        ("DUPLICATION", "c_alpha", 1e-11, 25),
        ("DIRICHLET_SPECTRAL", "solve_dirichlet", 1e-8, 25),
    ])
    def test_identity_row_catches_planted_error(self, monkeypatch, theorem_id, route, error,
                                                least):
        # the production route scaled by 1 + 10 tol (GAUSS_SUMMATION aside):
        # each row must flag it against its own tolerance, with no slack on
        # top; the route is looked up in verify at call time
        original = getattr(verify_module, route)

        def planted(*args):
            out = original(*args)
            if isinstance(out, float | complex):
                return out * (1.0 + error)
            return out._replace(value=out.value * (1.0 + error))

        monkeypatch.setattr(verify_module, route, planted)
        reports = {r.theorem_id: r for r in check_identities(TrialSpec(seed=0, n_trials=50))}
        assert reports[theorem_id].n_violations >= least


class TestKernelIntegrals:
    """DIRICHLET_SPECTRAL's quadrature route beside the solver's mode sums."""

    @staticmethod
    def draws():
        rng = np.random.default_rng(31)
        for _ in range(10):
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)),
                                    int(rng.integers(0, 9)), 1.0)
            a = float(rng.choice([-0.9, 0.0, 1.0, 3.5]))
            z = float(rng.uniform(0.0, 0.85)) * cmath.exp(1j * rng.uniform(0.0, 6.0))
            yield fstar, a, z
        rng = np.random.default_rng(47)
        for _ in range(25):
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)),
                                    int(rng.integers(0, 9)), float(rng.uniform(0.2, 1.0)))
            a = float(rng.choice([-0.9, -0.1, 0.0, 1.0, 3.5, 5.0]))
            z = float(rng.choice([0.1, 0.5, 0.85, 0.95])) * cmath.exp(1j * rng.uniform(0.0, 6.3))
            yield fstar, a, z

    def test_rows_match_the_spectral_route(self):
        for fstar, a, z in self.draws():
            pair = derivative_pair(a, fstar, z)
            want = (solve_dirichlet(a, fstar, z), pair.d_z, pair.d_zbar)
            for label, got, w in zip(("f", "f_z", "f_zbar"), _kernel_integrals(a, fstar, z), want):
                assert abs(got - w) < 1e-10, f"alpha={a} z={z} {label}: {got!r} vs {w!r}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_quadrature_converges_in_one_call(self, monkeypatch, seed):
        # the start level `_kernel_config` predicts resolves every
        # DIRICHLET_SPECTRAL trial at its first call, which samples two levels
        calls = []
        quadrature = verify_module.integrate_periodic

        def counting(f, config=None):
            def integrand(theta):
                calls[-1] += 1
                return f(theta)

            if f.__qualname__.startswith("_kernel_integrals"):
                calls.append(0)
                return quadrature(integrand, config)
            return quadrature(f, config)

        monkeypatch.setattr(verify_module, "integrate_periodic", counting)
        spectral = check_identities(TrialSpec(seed=seed, n_trials=100))[-1]
        assert (spectral.theorem_id, spectral.n_checked) == ("DIRICHLET_SPECTRAL", 100)
        assert calls == [1] * 100

    def test_start_level(self):
        # the least n of 64, ..., 1024 with (n - d) ln r + (max(alpha, 0) + 2) ln n
        # <= ln 1e-12; 1024 past that, and no overflow at large alpha
        def start(alpha, degree, r):
            return verify_module._kernel_config(alpha, degree, r).n_initial

        assert start(1.0, 3, 0.0) == start(-0.9, 8, 0.1) == 64
        assert start(0.0, 0, 0.5) == 64 and start(5.0, 8, 0.85) == 512
        assert start(400.0, 8, 0.9) == start(1e300, 0, 0.5) == 1024
        for alpha, degree, r in ((0.0, 0, 0.5), (3.5, 8, 0.85), (-0.5, 4, 0.7)):
            n = start(alpha, degree, r)
            bound = (max(alpha, 0.0) + 2.0) * math.log(n) + (n - degree) * math.log(r)
            assert bound <= math.log(1e-12)
            if n > 64:
                half = n // 2
                assert ((max(alpha, 0.0) + 2.0) * math.log(half)
                        + (half - degree) * math.log(r)) > math.log(1e-12)

    def test_non_finite_integrand_raises_without_warnings(self):
        eik = BoundaryData([0.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrandError):
                _kernel_integrals(400.0, eik, 0.9 + 0j)

    @pytest.mark.parametrize("alpha, radii, n_trials",
                             [(50.0, (0.9,), 4), (20.0, (0.5, 0.9), 40)])
    def test_unresolved_kernel_is_inconclusive_not_violated(self, alpha, radii, n_trials):
        # float64 roundoff in the kernel at these alphas exceeds the check's
        # 1e-9 near r = 0.9: the quadrature must not converge on that noise
        spec = TrialSpec(seed=0, n_trials=n_trials, alpha_set=(alpha,), radius_set=radii)
        spectral = check_identities(spec)[-1]
        assert spectral.theorem_id == "DIRICHLET_SPECTRAL"
        assert spectral.n_violations == 0
        assert spectral.n_checked + spectral.n_inconclusive == n_trials


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
        pochhammer = reports["POCHHAMMER_RATIO_SEQUENCE"]
        assert (pochhammer.n_checked, pochhammer.n_violations) == (1, 0)

    @pytest.mark.parametrize("alpha", [50.0, 100.0])
    def test_pochhammer_steps_grow_with_alpha(self, alpha):
        # the gap to 2^(alpha/2) after n steps is about alpha^2 / (16 n):
        # 10,000 steps would leave 1.6e-2 at alpha = 50, above the 1e-2 gate
        spec = TrialSpec(alpha_set=(alpha,), radius_set=(0.9,))
        reports = {t.theorem_id: t for t in check_proof_machinery(spec)}
        pochhammer = reports["POCHHAMMER_RATIO_SEQUENCE"]
        assert (pochhammer.n_checked, pochhammer.n_violations) == (1, 0)
        assert _assert_pochhammer_margin(alpha) > 8e-3

    def test_rate_function_beyond_float_range(self):
        # (1 + alpha r^2)^2 overflows: inconclusive, not an OverflowError
        spec = TrialSpec(alpha_set=(1e200,), radius_set=(0.9,))
        rate = {t.theorem_id: t for t in run_suite("machinery", spec)}["RATE_FUNCTION"]
        # the one check left is the alpha-free alpha = 1/r identity
        assert (rate.n_checked, rate.n_inconclusive, rate.n_violations) == (1, 1, 0)

    def test_pochhammer_limit_beyond_float_range(self):
        # 2^(alpha/2) overflows: inconclusive, not an OverflowError
        spec = TrialSpec(alpha_set=(3000.0,), radius_set=(0.9,))
        reports = {t.theorem_id: t for t in check_proof_machinery(spec)}
        pochhammer = reports["POCHHAMMER_RATIO_SEQUENCE"]
        assert (pochhammer.n_checked, pochhammer.n_inconclusive) == (0, 1)


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
