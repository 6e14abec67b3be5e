"""Gamma-family and hypergeometric-series tests.

Frozen expected values were computed with mpmath at 30 digits; mpmath is
also used directly as an independent high-precision oracle where noted.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from alphaharmonic import (ConvergenceError, DomainError, beta, binom_general,
                           c_alpha, euler_transform_eval, gamma, hyp2f1,
                           hyp2f1_at_one, hyp2f1_detailed, m_bound, pochhammer,
                           quadratic_transform_eval)
from alphaharmonic.specfun import alpha_value

mp.mp.dps = 30


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestGammaBeta:
    def test_gamma_one(self):
        assert gamma(1.0) == 1.0

    def test_gamma_half(self):
        # oracle: sqrt(pi) from the integral definition
        assert rel_err(gamma(0.5), 1.7724538509055160273) < 1e-13

    def test_gamma_five(self):
        assert gamma(5.0) == 24.0

    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-1.5)

    def test_gamma_recursion(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.1, 40.0, size=1000):
            assert rel_err(gamma(x + 1.0), x * gamma(x)) < 1e-12

    def test_duplication_formula(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.1, 20.0, size=500):
            lhs = gamma(2.0 * x)
            rhs = 2.0 ** (2.0 * x - 1.0) / math.sqrt(math.pi) * gamma(x) * gamma(x + 0.5)
            assert rel_err(lhs, rhs) < 1e-12

    def test_beta_ones(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_beta_halves(self):
        assert rel_err(beta(0.5, 0.5), math.pi) < 1e-12

    def test_beta_two_three(self):
        # oracle: 1! * 2! / 4!
        assert rel_err(beta(2.0, 3.0), 1.0 / 12.0) < 1e-12

    def test_beta_matches_gamma_ratio(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = rng.uniform(0.1, 20.0, size=2)
            assert rel_err(beta(x, y), gamma(x) * gamma(y) / gamma(x + y)) < 1e-12

    def test_beta_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)


class TestPochhammerBinom:
    def test_pochhammer_zero(self):
        for a in (-3.7, 0.0, 2.5, 9.0):
            assert pochhammer(a, 0) == 1.0

    def test_pochhammer_rising(self):
        assert pochhammer(3.0, 4) == 360.0  # 3*4*5*6

    def test_pochhammer_hits_zero(self):
        assert pochhammer(-1.0, 3) == 0.0

    def test_binom_zero(self):
        for a in (-2.0, 0.5, 7.0):
            assert binom_general(a, 0) == 1.0

    def test_binom_half(self):
        assert binom_general(0.5, 2) == pytest.approx(-0.125, rel=1e-15)

    def test_binom_integer_exhausted(self):
        assert binom_general(3.0, 5) == 0.0


class TestParams:
    def test_alpha_validation(self):
        assert alpha_value(0.0) == 0.0
        with pytest.raises(DomainError):
            alpha_value(-1.0)
        with pytest.raises(DomainError):
            alpha_value(-2.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                alpha_value(bad)
            with pytest.raises(DomainError):
                m_bound(0.5, bad)

    @pytest.mark.parametrize("triple", [(math.nan, 1.0, 2.0), (math.inf, 1.0, 2.0),
                                        (1.0, -math.inf, 2.0), (1.0, 1.0, math.nan),
                                        (1.0, 1.0, math.inf)])
    def test_non_finite_parameters_rejected(self, triple):
        for evaluate in (hyp2f1, hyp2f1_detailed, euler_transform_eval):
            with pytest.raises(DomainError):
                evaluate(triple, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_at_one(triple)
        a, b, c = triple
        if b == 1.0:  # quadratic_transform_eval takes only a and c
            with pytest.raises(DomainError):
                quadratic_transform_eval(a, c, 0.5)

    def test_bad_c_rejected(self):
        for c in (0.0, -1.0, -2.0, -3.0 + 5e-13, 1e-13):
            with pytest.raises(DomainError):
                hyp2f1((1.0, 1.0, c), 0.5)

    def test_near_miss_c_accepted(self):
        for c in (-2.0 + 1e-6, 0.25):
            assert math.isfinite(hyp2f1((1.0, 1.0, c), 0.5))


class TestHyp2F1:
    def test_at_zero(self):
        assert hyp2f1((0.3, -1.2, 0.7), 0.0) == 1.0

    def test_log_closed_form(self):
        # oracle: -ln(1-x)/x
        assert rel_err(hyp2f1((1.0, 1.0, 2.0), 0.5), 1.3862943611198906188) < 1e-11

    def test_terminating(self):
        assert hyp2f1((-1.0, -1.0, 1.0), 0.3) == pytest.approx(1.3, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1((1.0, 1.0, 2.0), -0.1)
        with pytest.raises(DomainError):
            hyp2f1((1.0, 1.0, 2.0), 1.0)

    def test_convergence_error_carries_diagnostics(self):
        # c - a - b = 0 keeps the raw series, which needs more than the
        # term cap this close to x = 1
        with pytest.raises(ConvergenceError) as info:
            hyp2f1((0.5, 0.5, 1.0), 1.0 - 1e-6)
        assert info.value.partial is not None
        assert info.value.error_estimate > 0

    def test_symmetry_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            c = rng.uniform(0.3, 3.0)
            x = rng.uniform(0.0, 0.95)
            assert hyp2f1((a, b, c), x) == hyp2f1((b, a, c), x)

    def test_against_mpmath(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            c = rng.uniform(0.3, 3.0)
            x = rng.uniform(0.0, 0.95)
            want = float(mp.hyp2f1(a, b, c, x))
            assert rel_err(hyp2f1((a, b, c), x), want) < 1e-11

    def test_monotone_when_ab_negative(self):
        # decreasing for c > 0, a <= c, b <= c, ab <= 0
        grid = np.linspace(0.01, 0.95, 30)
        for a, b, c in ((0.5, -0.5, 1.0), (1.0, -2.0, 1.5), (0.3, -0.1, 0.5)):
            vals = [hyp2f1((a, b, c), x) for x in grid]
            assert all(v2 <= v1 + 1e-14 for v1, v2 in zip(vals, vals[1:]))

    def test_monotone_when_ab_positive(self):
        grid = np.linspace(0.01, 0.95, 30)
        for a, b, c in ((0.5, 0.5, 1.0), (-1.0, -0.5, 1.5), (0.3, 0.1, 0.5)):
            vals = [hyp2f1((a, b, c), x) for x in grid]
            assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))

    def test_ratio_monotone_corollary_instance(self):
        # the quotient used in deriving the elementary majorant is
        # non-increasing on (0, 1) for weights in [0, 1)
        grid = np.linspace(0.02, 0.98, 49)
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.95):
            num = [hyp2f1((0.5, 0.5 - alpha / 2.0, 1.5), x) for x in grid]
            den = [hyp2f1((0.5 - alpha / 4.0, 1.0 - alpha / 4.0, 2.0 - alpha / 2.0), x)
                   for x in grid]
            ratio = [n / d for n, d in zip(num, den)]
            assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(ratio, ratio[1:]))


class TestTransforms:
    def test_euler_matches_log_form(self):
        assert rel_err(euler_transform_eval((1.0, 1.0, 2.0), 0.5),
                       1.3862943611198906188) < 1e-10

    def test_euler_at_zero(self):
        assert euler_transform_eval((0.7, -0.2, 1.1), 0.0) == 1.0

    def test_euler_identity_far_argument(self):
        got = euler_transform_eval((0.25, 0.75, 1.5), 0.9)
        want = hyp2f1((0.25, 0.75, 1.5), 0.9)
        assert rel_err(got, want) < 1e-10
        assert rel_err(want, 1.2326775139086117622) < 1e-11  # mpmath

    def test_euler_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            c = rng.uniform(0.3, 3.0)
            x = rng.uniform(0.0, 0.95)
            assert rel_err(euler_transform_eval((a, b, c), x),
                           hyp2f1((a, b, c), x)) < 1e-10

    def test_quadratic_at_zero(self):
        assert quadratic_transform_eval(0.7, 1.3, 0.0) == 1.0

    def test_quadratic_arctanh_instance(self):
        # F(1/2, 1; 3/2; x) = atanh(sqrt(x)) / sqrt(x)
        got = quadratic_transform_eval(0.5, 1.5, 0.64)
        assert rel_err(got, 1.3732653608351371142) < 1e-10
        assert rel_err(got, hyp2f1((0.5, 1.0, 1.5), 0.64)) < 1e-10

    def test_quadratic_geometric_instance(self):
        r = 0.5
        x = 4.0 * r * r / (1.0 + r * r) ** 2
        got = quadratic_transform_eval(1.0, 1.5, x)
        assert rel_err(got, hyp2f1((1.0, 1.5, 1.5), x)) < 1e-10
        assert rel_err(got, 1.0 / (1.0 - x)) < 1e-10

    def test_quadratic_identity_random(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = rng.uniform(-1.5, 1.5)
            c = rng.uniform(0.4, 3.0)
            x = rng.uniform(0.0, 0.95)
            assert rel_err(quadratic_transform_eval(a, c, x),
                           hyp2f1((a, a + 0.5, c), x)) < 1e-10

    def test_auto_transform_engages(self):
        # (c-a) + (c-b) < a+b here, so the faster route must be chosen
        res = hyp2f1_detailed((2.0, 2.5, 1.2), 0.5)
        assert res.transform == "euler"
        assert rel_err(res.value, float(mp.hyp2f1(2.0, 2.5, 1.2, 0.5))) < 1e-11


def _draw_triple(rng, family):
    """(a, b, c) as used by the bounds, modulus_power_integral and the
    GAUSS_SUMMATION identity."""
    if family == "m_bound":
        alpha = rng.uniform(-0.99, 10.0)
        return 0.5, 0.5 - alpha / 2.0, 1.5
    if family == "schwarz":
        alpha = rng.uniform(-0.99, 10.0)
        return -alpha / 2.0, -alpha / 2.0, 1.0
    if family == "modulus_power":
        beta_ = rng.uniform(0.0, 3.0)
        return 1.0 - beta_, 1.0 - beta_, 1.0
    while True:
        a, b = rng.uniform(-1.0, 1.5, size=2)
        c = a + b + rng.uniform(0.25, 2.0)
        if c - a > 0.05 and c - b > 0.05 and c > 0.3:
            return a, b, c


def _near_one(rng):
    """x in [0.5, 1 - 1e-8], log-uniform in 1 - x."""
    return 1.0 - 10.0 ** rng.uniform(-8.0, math.log10(0.5))


FAMILIES = ("m_bound", "schwarz", "modulus_power", "gauss_summation")


class TestConnection:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_against_mpmath_near_one(self, family):
        rng = np.random.default_rng(FAMILIES.index(family) + 101)
        connection = 0
        for _ in range(60):
            a, b, c = _draw_triple(rng, family)
            x = _near_one(rng)
            try:
                res = hyp2f1_detailed((a, b, c), x)
            except ConvergenceError:
                continue
            want = float(mp.hyp2f1(a, b, c, mp.mpf(x)))
            if res.transform == "connection":
                connection += 1
                assert rel_err(res.value, want) < 1e-13, (a, b, c, x)
            else:
                assert rel_err(res.value, want) < 1e-11, (a, b, c, x)
        assert connection >= 50

    def test_near_integer_s_meets_tolerance_or_falls_back(self):
        rng = np.random.default_rng(103)
        connection = fallback = 0
        for _ in range(300):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            n = int(rng.integers(-2, 4))
            dist = 10.0 ** rng.uniform(-9.0, math.log10(0.2))
            c = a + b + n + dist * rng.choice((-1.0, 1.0))
            if c < 0.1:
                continue
            x = _near_one(rng)
            try:
                res = hyp2f1_detailed((a, b, c), x)
            except ConvergenceError:
                fallback += 1
                continue
            if res.transform != "connection":
                fallback += 1
                continue
            connection += 1
            want = float(mp.hyp2f1(a, b, c, mp.mpf(x)))
            assert rel_err(res.value, want) < 1e-13, (a, b, c, x)
        assert connection > 100 and fallback > 50

    def test_integer_s_falls_back(self):
        rng = np.random.default_rng(107)
        for _ in range(60):
            # multiples of 2^-10, so that c - a - b is exact in either order
            a, b = np.round(rng.uniform(-2.0, 2.0, size=2) * 1024.0) / 1024.0
            c = a + b + int(rng.integers(0, 4))
            if c < 0.1 or a == round(a) or b == round(b):
                continue
            x = 1.0 - 10.0 ** rng.uniform(-3.0, math.log10(0.5))
            try:
                res = hyp2f1_detailed((a, b, c), x)
            except ConvergenceError:
                continue
            assert res.transform != "connection"

    def test_symmetry_bit_for_bit_near_one(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            c = rng.uniform(0.3, 3.0)
            x = _near_one(rng)
            try:
                got = hyp2f1((a, b, c), x)
            except ConvergenceError:
                continue
            assert got == hyp2f1((b, a, c), x)

    def test_terms_bounded_at_gauss_summation_argument(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            a, b, c = _draw_triple(rng, "gauss_summation")
            res = hyp2f1_detailed((a, b, c), 1.0 - 1e-5)
            assert res.transform == "connection"
            assert res.terms_used <= 256

    def test_engages_above_one_half_only(self):
        assert hyp2f1_detailed((0.25, 0.75, 1.5), 0.9).transform == "connection"
        assert hyp2f1_detailed((0.25, 0.75, 1.5), 0.5).transform == "none"
        # terminating series stay raw: a finite polynomial is summed exactly
        assert hyp2f1_detailed((-2.0, 0.5, 1.7), 0.9).transform == "none"

    def test_one_minus_x_keeps_digits(self):
        # m_bound's argument at r = 0.999: 1.0 - x alone carries an
        # absolute rounding error comparable to 1 - x's last digits
        r = 0.999
        d = (1.0 - r) * (1.0 + r) / (1.0 + r * r)
        x = 4.0 * r * r / (1.0 + r * r) ** 2
        params = (0.5, 0.5 - (-0.95) / 2.0, 1.5)
        got = hyp2f1(params, x, one_minus_x=d * d)
        rm = mp.mpf(r)
        want = mp.hyp2f1(0.5, params[1], 1.5, 4 * rm * rm / (1 + rm * rm) ** 2)
        assert rel_err(got, float(want)) < 1e-13

    def test_one_minus_x_must_match(self):
        with pytest.raises(DomainError):
            hyp2f1((0.5, 0.5, 1.5), 0.9, one_minus_x=0.2)
        with pytest.raises(DomainError):
            hyp2f1((0.5, 0.5, 1.5), 0.9, one_minus_x=0.0)


class TestMBoundNearBoundary:
    # the grid alphas at which the raw series at r = 0.999 used to exceed
    # term_cap: [-0.95, 1.9] in steps of 0.15, except 1.0
    ALPHAS = [a for a in ((15 * k - 95) / 100.0 for k in range(20)) if a != 1.0]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_mpmath(self, alpha):
        r = mp.mpf(0.999)
        al = mp.mpf(alpha)
        s = 1 + r * r
        first = (1 - r * r) ** (al + 1) * abs((1 - r) ** (-al) - 1) / s
        f = mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2 - al / 2, mp.mpf(3) / 2,
                      4 * r * r / s ** 2)
        lead = (2 ** (2 + al / 2) * r * s ** (al / 2 - 1) / mp.pi if alpha >= 0
                else 4 * r / mp.pi * s ** (al / 2 - 1))
        assert rel_err(m_bound(0.999, alpha), float(first + lead * f)) < 1e-13


class TestTerminatingCancellation:
    def test_cancelling_polynomial_raises(self):
        # sum of |terms| is 5e14 times |F|; summed raw it was off by 4.5e-3
        with pytest.raises(ConvergenceError, match="cancels") as info:
            hyp2f1((13.4, -15.0, 3.18), 0.974)
        want = float(mp.hyp2f1(13.4, -15, 3.18, 0.974))
        assert info.value.error_estimate > 1e-13 * abs(want)
        assert info.value.partial is not None

    def test_mild_cancellation_still_returns(self):
        want = float(mp.hyp2f1(-2, 0.7, 1.9, 0.8))
        assert rel_err(hyp2f1((-2.0, 0.7, 1.9), 0.8), want) < 1e-13

    @pytest.mark.parametrize("alpha", [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
    def test_m_bound_odd_alpha_meets_tolerance(self, alpha):
        # b = 1/2 - alpha/2 is a non-positive integer: the series terminates
        for r in (0.5, 0.9, 0.99, 0.999):
            rm = mp.mpf(r)
            s = 1 + rm * rm
            first = (1 - rm * rm) ** (alpha + 1) * abs((1 - rm) ** (-alpha) - 1) / s
            f = mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2 - mp.mpf(alpha) / 2,
                          mp.mpf(3) / 2, 4 * rm * rm / s ** 2)
            want = first + 2 ** (2 + mp.mpf(alpha) / 2) * rm * s ** (mp.mpf(alpha) / 2 - 1) / mp.pi * f
            assert rel_err(m_bound(r, alpha), float(want)) < 1e-13

    @pytest.mark.parametrize("a, b, c, y", [(-0.4, 1.5, 0.5, 0.4),
                                            (3.0, -2.5, 2.0, 1e-5),
                                            (3.0, -2.5, 2.0, 1e-8)])
    def test_connection_keeps_terminating_series(self, a, b, c, y):
        # c - a or c - b = -1: the connection formula's second series is a
        # polynomial with alternating terms, summed to the caller's rel_tol
        res = hyp2f1_detailed((a, b, c), 1.0 - y, one_minus_x=y)
        assert res.transform == "connection"
        assert res.terms_used <= 256
        want = mp.hyp2f1(a, b, c, 1 - mp.mpf(y))
        assert rel_err(res.value, float(want)) < 1e-13

    def test_exact_zero_cannot_be_told_from_roundoff(self):
        # 1 - 2 * 0.5 sums to 0.0 exactly, but so does 1 - 3 * fl(1/3),
        # whose true value is 5.6e-17: neither meets a relative tolerance
        assert float(mp.hyp2f1(-1, 3, 1, 1.0 / 3.0)) == pytest.approx(5.55e-17, rel=1e-2)
        for b, x in ((2.0, 0.5), (3.0, 1.0 / 3.0)):
            with pytest.raises(ConvergenceError, match="cancels") as info:
                hyp2f1((-1.0, b, 1.0), x)
            assert info.value.partial == 0.0

    def test_m_factor_alpha_41_raises(self):
        # M's factor F(1/2, 1/2 - alpha/2; 3/2; x) at alpha = 41 is a
        # terminating series that loses ~1e-11 to cancellation near r = 1;
        # m_bound itself now sums positive series there (tests/test_bounds.py)
        for r in (0.9, 0.999):
            s = 1.0 + r * r
            d = (1.0 - r) * (1.0 + r) / s
            with pytest.raises(ConvergenceError, match="cancels"):
                hyp2f1((0.5, 0.5 - 41.0 / 2.0, 1.5), 4.0 * r * r / (s * s), one_minus_x=d * d)


class TestGaussSummation:
    def test_terminating_limit(self):
        assert hyp2f1_at_one((-1.0, -1.0, 1.0)) == pytest.approx(2.0, rel=1e-13)

    def test_zero_parameter(self):
        assert hyp2f1_at_one((0.0, 0.7, 1.3)) == pytest.approx(1.0, rel=1e-13)

    def test_reciprocal_normalization_constant(self):
        for alpha in (0.5, 1.0, 2.0, 3.5):
            want = 1.0 / c_alpha(alpha)
            got = hyp2f1_at_one((-alpha / 2.0, -alpha / 2.0, 1.0))
            assert rel_err(got, want) < 1e-12

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1_at_one((1.0, 1.0, 1.5))

    def test_limit_approach_monotone(self):
        rng = np.random.default_rng(31)
        deltas = (1e-2, 1e-3, 1e-4, 1e-5)
        for _ in range(50):
            while True:
                a, b = rng.uniform(-1.0, 1.5, size=2)
                c = a + b + rng.uniform(0.25, 2.0)
                if c - a > 0.05 and c - b > 0.05 and c > 0.3:
                    break
            limit = hyp2f1_at_one((a, b, c))
            gaps = [abs(hyp2f1((a, b, c), 1.0 - d) - limit) for d in deltas]
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_agreement_very_near_one(self):
        # the gap to the limit scales like (1-x)^(c-a-b)
        x = 1.0 - 1e-6
        for a, b, c in ((0.25, 0.25, 1.0), (-0.5, 0.7, 1.9), (0.1, -0.9, 0.8)):
            limit = hyp2f1_at_one((a, b, c))
            got = hyp2f1((a, b, c), x)
            want = float(mp.hyp2f1(a, b, c, mp.mpf(1) - mp.mpf(1e-6)))
            assert rel_err(got, want) < 1e-8
            gap_scale = (1e-6) ** min(c - a - b, 1.0)
            mp_gap = abs(want - limit)
            assert abs(got - limit) <= 2.0 * mp_gap + 1e-10
            assert mp_gap <= 100.0 * gap_scale * max(1.0, abs(limit))


class TestNormalizationConstant:
    def test_trivial_values(self):
        assert c_alpha(0.0) == pytest.approx(1.0, rel=1e-15)
        assert c_alpha(2.0) == pytest.approx(0.5, rel=1e-14)

    def test_fractional_value(self):
        assert rel_err(c_alpha(-0.5), 0.84721308479397908661) < 1e-13  # mpmath

    def test_rejects_low_alpha(self):
        with pytest.raises(DomainError):
            c_alpha(-1.0)

    def test_reciprocal_closed_form(self):
        # duplication-formula identity for the reciprocal
        for alpha in np.linspace(-0.99, 10.0, 120):
            lhs = 1.0 / c_alpha(alpha)
            rhs = (2.0 ** alpha * gamma(0.5 + alpha / 2.0)
                   / (math.sqrt(math.pi) * gamma(1.0 + alpha / 2.0)))
            assert rel_err(lhs, rhs) < 1e-12

    def test_reciprocal_below_power_of_two(self):
        for alpha in (0.5, 1.0, 3.0):
            assert 1.0 / c_alpha(alpha) < 2.0 ** alpha
