"""Gamma-family and hypergeometric-series tests.

Frozen expected values were computed with mpmath at 30 digits; mpmath is
also used directly as an independent high-precision oracle where noted.
"""

import contextlib
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import alphaharmonic.specfun as specfun_module
from alphaharmonic import (BOUND_IDS, ConvergenceError, DomainError, beta, c_alpha,
                           evaluate_bound, hyp2f1, hyp2f1_detailed, m_bound,
                           modulus_power_integral, schwarz_bound, schwarz_pick_bound)
from alphaharmonic.specfun import (_EPS, _lgamma_slope, _m_series, _mode_seed, _series_sum,
                                   alpha_value)
from alphaharmonic.verify import (_c_alpha_duplication, _euler_transform_eval,
                                  _hyp2f1_at_one, _quadratic_transform_eval)
from write_goldens import ALPHAS, RADII

mp.mp.dps = 30


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


@contextlib.contextmanager
def _count_steps():
    """The steps `_mode_seed`'s continued fraction takes meanwhile, one
    list entry each: each step calls abs once, the closed form never."""
    steps = []

    def counting(value):
        steps.append(value)
        return abs(value)

    with mock.patch.object(specfun_module, "abs", counting, create=True):
        yield steps


def _scale(alpha, k):
    """(alpha+1)_k / k! formed as `kernel._spectral` forms it."""
    scale = 1.0
    for j in range(1, k + 1):
        scale = scale * (alpha + j) / j
    return scale


def _mp_seed(alpha, k, y):
    """A_k = ((alpha+1)_k / k!) F(-alpha, k; k+1; 1 - y) at 40 digits, with
    the exact Pochhammer ratio and 1 - y."""
    with mp.workdps(40):
        a = mp.mpf(alpha)
        return mp.rf(a + 1, k) / mp.factorial(k) * mp.hyp2f1(-a, k, k + 1, 1 - mp.mpf(y))


class TestGammaBeta:
    def test_duplication_formula(self):
        # c_alpha against verify's DUPLICATION reference over the row's alphas
        rng = np.random.default_rng(3)
        for alpha in 40.0 - 41.0 * rng.uniform(0.0, 1.0, size=500):
            assert rel_err(c_alpha(alpha), _c_alpha_duplication(alpha)) < 1e-12

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
            want = math.gamma(x) * math.gamma(y) / math.gamma(x + y)
            assert rel_err(beta(x, y), want) < 1e-12

    def test_beta_half_matches_mpmath(self):
        # B(s, 1/2), s = (alpha + 1)/2, is M's connection term, which
        # cancellation amplifies as s -> 0: from math.gamma it keeps about
        # 4 ulps there, where exp(lgamma(..)) lost up to 13
        rng = np.random.default_rng(19)
        for s in 10.0 ** rng.uniform(-4.0, 0.0, size=300):
            assert rel_err(beta(float(s), 0.5), float(mp.beta(s, 0.5))) < 1.2e-15
        # the quotient is formed before the product, which would overflow
        assert rel_err(beta(1e-160, 1e-160), 2e160) < 1e-14

    def test_beta_rounded_sum_matches_mpmath(self):
        # Gamma is taken at the rounded x + y; the first-order correction
        # brought (158.28, 0.0122) from 3.6e-14 to 8e-17
        assert rel_err(beta(158.28, 0.0122), mp.beta(158.28, 0.0122)) < 1e-15
        rng = np.random.default_rng(23)
        for _ in range(300):
            x = float(10.0 ** rng.uniform(-3.0, math.log10(169.0)))
            y = float(10.0 ** rng.uniform(-3.0, math.log10(170.0 - x)))
            assert rel_err(beta(x, y), mp.beta(x, y)) < 4e-15, (x, y)

    def test_beta_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)


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
        for evaluate in (hyp2f1, hyp2f1_detailed):
            with pytest.raises(DomainError):
                evaluate(triple, 0.5)

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
        # G(c) overflows, so the connection formula does not apply, and the
        # raw series, whose terms fall like n^(-1) x^n, needs more than the
        # term cap this close to x = 1.  (F(0.5, 0.5; 1 + 1e-13; 1 - 1e-6),
        # which raised so while the connection formula's two terms cancelled
        # at c - a - b = 1e-13, takes its divided-difference form now)
        with pytest.raises(ConvergenceError) as info:
            hyp2f1((90.0, 90.0, 180.0 + 1e-13), 1.0 - 1e-6)
        assert info.value.partial is not None
        assert info.value.error_estimate > 0
        assert info.value.iterations == 2 ** 16

    def test_sum_beyond_float_range_raises(self):
        # the raw series' partial sums overflow; the value was inf
        with pytest.raises(ConvergenceError, match="float range"):
            hyp2f1_detailed((1000.0, 1000.0, 2000.5), 0.9)
        # terms of both signs whose first run leaves the float range:
        # math.fsum raises OverflowError on them
        with pytest.raises(ConvergenceError, match="float range"):
            hyp2f1((-700.5, 700.5, 1.5), 0.9)
        # a 201-term polynomial, summed in Python floats, whose terms pass
        # +-1e308 near n = 192: math.fsum raises ValueError on inf - inf
        with pytest.raises(ConvergenceError, match="float range"):
            hyp2f1((-200.0, 1e4, 1.0), 0.5)

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
        assert rel_err(_euler_transform_eval((1.0, 1.0, 2.0), 0.5),
                       1.3862943611198906188) < 1e-10

    def test_euler_at_zero(self):
        assert _euler_transform_eval((0.7, -0.2, 1.1), 0.0) == 1.0

    def test_euler_identity_far_argument(self):
        got = _euler_transform_eval((0.25, 0.75, 1.5), 0.9)
        want = hyp2f1((0.25, 0.75, 1.5), 0.9)
        assert rel_err(got, want) < 1e-10
        assert rel_err(want, 1.2326775139086117622) < 1e-11  # mpmath

    def test_euler_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            c = rng.uniform(0.3, 3.0)
            x = rng.uniform(0.0, 0.95)
            assert rel_err(_euler_transform_eval((a, b, c), x),
                           hyp2f1((a, b, c), x)) < 1e-10

    def test_quadratic_at_zero(self):
        assert _quadratic_transform_eval(0.7, 1.3, 0.0) == 1.0

    def test_quadratic_arctanh_instance(self):
        # F(1/2, 1; 3/2; x) = atanh(sqrt(x)) / sqrt(x)
        got = _quadratic_transform_eval(0.5, 1.5, 0.64)
        assert rel_err(got, 1.3732653608351371142) < 1e-10
        assert rel_err(got, hyp2f1((0.5, 1.0, 1.5), 0.64)) < 1e-10

    def test_quadratic_geometric_instance(self):
        r = 0.5
        x = 4.0 * r * r / (1.0 + r * r) ** 2
        got = _quadratic_transform_eval(1.0, 1.5, x)
        assert rel_err(got, hyp2f1((1.0, 1.5, 1.5), x)) < 1e-10
        assert rel_err(got, 1.0 / (1.0 - x)) < 1e-10

    def test_quadratic_identity_random(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = rng.uniform(-1.5, 1.5)
            c = rng.uniform(0.4, 3.0)
            x = rng.uniform(0.0, 0.95)
            assert rel_err(_quadratic_transform_eval(a, c, x),
                           hyp2f1((a, a + 0.5, c), x)) < 1e-10

    def test_auto_transform_engages(self):
        # (c-a) + (c-b) < a+b here, so the faster route must be chosen
        res = hyp2f1_detailed((2.0, 2.5, 3.0), 0.5)
        assert res.transform == "euler"
        assert rel_err(res.value, float(mp.hyp2f1(2.0, 2.5, 3.0, 0.5))) < 1e-11
        # the Euler series' (-0.8)_n (-1.3)_n change sign, the raw terms do not
        assert hyp2f1_detailed((2.0, 2.5, 1.2), 0.5).transform == "none"


class TestPositiveRawSeries:
    """Where every raw term is positive and the Euler series' terms are not,
    the raw series is summed, since the Euler sum is not judged and can cancel."""

    @pytest.mark.parametrize("params, x", [
        ((38.8, 0.37, 11.85), 0.46),  # the Euler value was 5.5e-7 off
        ((37.75, 0.82, 13.6), 0.45),  # 8.9e-9 off
        ((38.9, 0.37, 11.9), 0.46),  # c - a = -27: the Euler polynomial raised
        ((38.887054150752576, 0.3678956304451192, 11.873020041506681),
         0.4642368172444511),  # 2.1e-6 off, the worst of 3,000 draws
    ])
    def test_examples(self, params, x):
        res = hyp2f1_detailed(params, x)
        assert res.transform == "none"
        assert rel_err(res.value, mp.hyp2f1(*params, mp.mpf(x))) < 1e-13

    def test_sweep(self):
        # by the Euler series 14 of these missed 1e-13 or raised
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b, c = (float(v) for v in rng.uniform(0.1, 40.0, 3))
            x = float(rng.uniform(0.3, 0.5))
            want = mp.hyp2f1(a, b, c, mp.mpf(x))
            assert rel_err(hyp2f1((a, b, c), x), want) < 1e-13, (a, b, c, x)


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
            # the schwarz and modulus_power families (c = |a - b| + 1) take
            # the connection formula in Kummer's quadratic variable
            if res.transform in ("connection", "quadratic"):
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
        # the judge rejects the plain two-term sum near an integer s, where
        # its terms cancel like 1/(s - round(s)); more than 50 of these draws
        # fell back to the raw series so, and now all take the formula's
        # divided-difference form
        assert connection >= 180 and fallback == 0

    def test_rejected_connection_falls_back_unjudged(self):
        # the judge rejects this connection value, which is 6.6e-16 off, and
        # its divided-difference form at s = 3 - 0.28, 5.4e-15 off, whose
        # spread is 77 times the value; the raw series it falls back to is
        # not judged; summed by numpy's pairwise sum that series was 2.0e-13
        # off, added exactly (math.fsum, as for every series whose terms
        # change sign) it is 3e-14 off.
        # Choosing the route by sum|t| / |sum t| is the open step of ROADMAP
        # item 2
        params = (2.4209508443565495, -2.953351545902472, 2.1863803186179815)
        x = 0.6756368335988397
        res = hyp2f1_detailed(params, x)
        assert res.transform == "none"
        assert rel_err(res.value, mp.hyp2f1(*params, mp.mpf(x))) < 1e-13

    def test_subnormal_gamma_c_gives_way(self):
        # G(c) = -3.6e-317 is subnormal, 22 of its bits gone: the connection
        # value at this integer c - a - b was 3.4e-8 off, which the judge
        # cannot see, as G(c) scales both terms
        a, b, c = -89.56474847137046, -86.94025789603181, -174.50500636740227
        assert c - a - b == 2.0 and 0.0 < abs(math.gamma(c)) < 2.0 ** -1022
        assert specfun_module._connection(a, b, c, 0.1) is None

    def test_large_parameters_meet_tolerance_or_fall_back(self):
        # judged by |t1| + |t2| alone, the cancellation inside the series
        # (their terms change sign through (1 - s)_n and (c-a)_n) went
        # unseen: 71 of these values were off, by up to 3e24; with it seen,
        # 4 stayed off, by up to 7.8e-12, where c - a rebuilt as b + s lies
        # near a pole of 1/Gamma
        rng = np.random.default_rng(20261019)
        connection = 0
        for _ in range(300):
            a, b = rng.uniform(-100.0, 100.0, size=2)
            c, x = rng.uniform(0.1, 100.0), rng.uniform(0.5, 1.0)
            try:
                res = hyp2f1_detailed((a, b, c), x)
            except ConvergenceError:
                continue
            if res.transform == "connection":
                connection += 1
                want = mp.hyp2f1(a, b, c, mp.mpf(x))
                assert rel_err(res.value, want) < 1e-13, (a, b, c, x)
        assert connection >= 100

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
        assert hyp2f1_detailed((0.25, 0.75, 1.6), 0.9).transform == "connection"
        assert hyp2f1_detailed((0.25, 0.75, 1.6), 0.5).transform == "none"
        # c = b - a + 1: the connection formula in Kummer's quadratic variable
        assert hyp2f1_detailed((0.25, 0.75, 1.5), 0.9).transform == "quadratic"
        assert hyp2f1_detailed((0.25, 0.75, 1.5), 0.5).transform == "none"
        # terminating series stay raw: a finite polynomial is summed exactly
        assert hyp2f1_detailed((-2.0, 0.5, 1.7), 0.9).transform == "none"


def _integer_s_draw(rng):
    """(a, b, c, x) with a, b in [-3, 3] not integers, c - a - b = m in
    {-3, ..., 6} exactly (a and b are multiples of 2^-10), and 1 - x
    log-uniform in [1e-14, 0.5)."""
    while True:
        a, b = np.round(rng.uniform(-3.0, 3.0, size=2) * 1024.0) / 1024.0
        c = a + b + int(rng.integers(-3, 7))
        if a != round(a) and b != round(b) and not (c <= 0.0 and c == round(c)):
            break
    y = 10.0 ** rng.uniform(-14.0, math.log10(0.5))
    return float(a), float(b), float(c), 1.0 - y


class TestLogConnection:
    """Integer c - a - b near x = 1: the connection formula in divided
    differences at eps = 0, the logarithmic case DLMF 15.8.10."""

    def test_integer_s_meets_tolerance_or_falls_back(self):
        rng = np.random.default_rng(131)
        draws = [_integer_s_draw(rng) for _ in range(200)]
        # ln y = -25.2 and psi(b) near its pole at -2 nearly cancel in the
        # bracket's first term
        draws.append((2.24, -2.04, 0.2, 1.0 - 1.09e-11))
        log_route = 0
        for a, b, c, x in draws:
            try:
                res = hyp2f1_detailed((a, b, c), x)
            except ConvergenceError:
                continue
            if res.transform != "connection":
                continue
            log_route += 1
            m = abs(round(c - a - b))
            # the finite sum's |m| terms, then at most 40 log-series terms
            # below y = 0.25, and 60 up to y = 0.5
            assert res.terms_used <= m + (40 if 1.0 - x < 0.25 else 60), (a, b, c, x)
            want = mp.hyp2f1(a, b, c, mp.mpf(x))
            assert rel_err(res.value, want) < 1e-13, (a, b, c, x)
        assert log_route >= 190

    def test_cancelling_bracket_gives_way(self):
        # ln y - 2 psi(n+1) + psi(a+n) + psi(b+n) nearly cancels at n = 0;
        # counting only |t_n g_n| in the rounding estimate let this point
        # through 5.3e-14 off, where every part counted sends it to the raw
        # series (the parts of the divided-difference form's first term are
        # these, and it is rejected too)
        a, b, x = -0.24609375, 1.765625, 1.0 - 0.011741584225880269
        res = hyp2f1_detailed((a, b, a + b), x)
        want = mp.hyp2f1(a, b, a + b, mp.mpf(x))
        assert res.transform != "connection" or rel_err(res.value, want) < 1e-14
        assert rel_err(res.value, want) < 1e-13

    def test_long_log_series_gives_up(self):
        # the logarithmic series once needed 72 terms past its burn-in here,
        # beyond a cap of 64, and gave up; the divided-difference form has no
        # cap, but the rounding of its terms, which cancel (b - 1 = 49 against
        # a - 1 = -3.5 in every ratio difference), is 41 times the value
        # against the judge's 28: it is rejected, and the raw series is summed
        a, b, c, x = 50.0, -2.5, 47.5, 0.76
        assert specfun_module._connection(b, a, c, 1.0 - x) is None
        res = hyp2f1_detailed((a, b, c), x)
        assert res.transform == "none"
        with mp.workdps(40):
            assert rel_err(res.value, mp.hyp2f1(a, b, c, mp.mpf(x))) < 1e-13

    @pytest.mark.parametrize("alpha", [1.0, 3.0, 5.0, 1.0 + 1e-9, 1.0 - 1e-9, 3.0 + 1e-6,
                                       3.0 - 1e-6, -1.0 + 1e-5])
    def test_bounds_near_one(self, alpha):
        # odd alpha: the quadratic route's s = (alpha + 1)/2 is an integer,
        # and its logarithmic series runs in 1 - w = ((1 - x)/(1 + x))^2;
        # near an odd alpha or -1 the same series in divided differences
        # (at alpha = 1 + 1e-9 the raw series ran 991 terms at r = 0.99 and
        # 8,192 at r = 0.999)
        for r in (0.99, 0.999, 0.99999, 0.9999999, 1.0 - 1e-12):
            x = r * r
            res = hyp2f1_detailed((-alpha / 2.0, -alpha / 2.0, 1.0), x)
            assert res.transform == "quadratic" and res.terms_used <= 10, (alpha, r)
            with mp.workdps(40):  # at the exact r^2, as the bounds take 1 - r^2
                want = mp.hyp2f1(-alpha / 2.0, -alpha / 2.0, 1, mp.mpf(r) ** 2)
            assert rel_err(schwarz_bound(r, alpha), want) < 1e-13, (alpha, r)
            lead = (2.0 * (1.0 + alpha) if alpha >= 0.0 else 2.0) / ((1.0 - r) * (1.0 + r))
            assert rel_err(schwarz_pick_bound(r, alpha), lead * want) < 1e-13, (alpha, r)

    def test_alpha_one_work_bounded_at_every_radius(self):
        # the raw series up to x = 1/2, the quadratic route's logarithmic
        # series in 1 - w <= 1/9 above it; the most is 38 terms, the raw
        # series just below r = 2^(-1/2), and 21 on the quadratic route
        radii = np.concatenate([np.linspace(0.0, 0.999, 400), 1.0 - 10.0 ** -np.arange(4.0, 13.0)])
        for r in radii:
            assert hyp2f1_detailed((-0.5, -0.5, 1.0), r * r).terms_used <= 38, r

    def test_symmetry_bit_for_bit(self):
        rng = np.random.default_rng(137)
        log_route = 0
        for _ in range(200):
            a, b, c, x = _integer_s_draw(rng)
            try:
                res = hyp2f1_detailed((a, b, c), x)
            except ConvergenceError:
                continue
            log_route += res.transform == "connection"
            assert res == hyp2f1_detailed((b, a, c), x)
        assert log_route >= 180

    def test_switch(self):
        # integer c - a - b takes the connection formula at every x > 1/2,
        # with no switch in 1 - x; the series routes run from x = 1/2 down.
        # c - a - b = -2: the Euler series
        assert hyp2f1_detailed((2.5, 2.5, 3.0), 0.5).transform == "euler"
        # the raw series where only the Euler terms change sign
        assert hyp2f1_detailed((1.25, 1.75, 1.0), 0.5).transform == "none"
        # terminating series stay raw
        assert hyp2f1_detailed((-2.0, -2.0, 1.0), 0.7525).transform == "none"

    @pytest.mark.parametrize("params, x", [
        ((3.5, 3.25, -18.25), 1.0 - 1e-13),  # (1 - x)^-25 alone overflows
        ((150.0, 150.0, 1.0), 0.9),  # 1e299 times a sum of 1e85
    ])
    def test_euler_value_beyond_float_range_raises(self, params, x):
        # c - a - b a negative integer: the connection formula gives way and
        # the Euler series is summed; its value was a raw OverflowError or inf
        with pytest.raises(ConvergenceError, match="float range"):
            hyp2f1(params, x)

    def test_digamma_against_mpmath(self):
        # the slope of ln|Gamma| at e = 0 is psi
        rng = np.random.default_rng(139)
        xs = np.concatenate([rng.uniform(0.5, 60.0, 300), 10.0 ** rng.uniform(-8.0, 0.0, 100),
                             rng.uniform(-20.0, 0.5, 300)])
        for x in xs:
            x = float(x)
            if x <= 0.0 and abs(x - round(x)) < 1e-3:
                continue  # next to a pole
            want = mp.digamma(x)
            assert abs(_lgamma_slope(x) - want) <= 2e-15 * max(abs(want), 1.0), x

    @pytest.mark.parametrize("e", [1e-12, -1e-12, 1e-6, -1e-6, 0.03, -0.03, 0.5, -0.5])
    def test_lgamma_slope_against_mpmath(self, e):
        # [ln|G(z + e)| - ln|G(z)|] / e for z from 1e-3 to 60 and for
        # negative z, z and z + e at least 1e-3 from a pole
        rng = np.random.default_rng(149)
        zs = np.concatenate([10.0 ** rng.uniform(-3.0, math.log10(60.0), 200),
                             rng.uniform(-20.0, 0.0, 200)])
        with mp.workdps(40):
            for z in zs.tolist():
                if any(v < 0.5 and abs(v - round(v)) < 1e-3 for v in (z, z + e)):
                    continue  # next to a pole
                zm, em = mp.mpf(z), mp.mpf(e)
                want = (mp.log(abs(mp.gamma(zm + em))) - mp.log(abs(mp.gamma(zm)))) / em
                assert abs(_lgamma_slope(z, e) - want) <= 1e-14 * max(abs(want), 1.0), z


def _quadratic_sweep_alphas(rng):
    """alpha on a log scale from -1 + 1e-5 to 1000, odd integers, and
    1 +- 10^-k for k = 3..12."""
    alphas = [-1.0 + 10.0 ** u for u in rng.uniform(-5.0, 0.0, 50)]
    alphas += [10.0 ** u for u in rng.uniform(-1.0, 3.0, 60)]
    alphas += [float(k) for k in range(1, 40, 2)]
    alphas += [1.0 + sign * 10.0 ** -k for k in range(3, 13) for sign in (-1.0, 1.0)]
    return alphas


class TestQuadraticRoute:
    """c = |a - b| + 1 above x = 1/2: Kummer's quadratic transformation
    takes F to w = 4x/(1+x)^2, where the connection formula runs in
    1 - w = ((1-x)/(1+x))^2 <= 1/9.  SCHWARZ_2F1, SP_2F1, L1_MEAN and
    `modulus_power_integral` sum F(-alpha/2, -alpha/2; 1; x) so."""

    def test_sweep_against_mpmath(self):
        # r on a log scale in 1 - r from 1/sqrt(2) to 1 - 1e-12; every
        # quadratic value meets 1e-13, and every call the route gives way
        # on takes the route in x, as it would without the quadratic route
        rng = np.random.default_rng(31)
        quadratic = 0
        for alpha in _quadratic_sweep_alphas(rng):
            r = 1.0 - (1.0 - 0.5 ** 0.5) * 10.0 ** rng.uniform(-11.5, 0.0)
            a = -alpha / 2.0
            x, y = r * r, (1.0 - r) * (1.0 + r)
            try:
                res = specfun_module._hyp(a, a, 1.0, x, y)
            except ConvergenceError:
                continue
            if res.transform != "quadratic":
                with mock.patch.object(specfun_module, "_quadratic", return_value=None):
                    assert specfun_module._hyp(a, a, 1.0, x, y) == res, (alpha, r)
                continue
            quadratic += 1
            with mp.workdps(40):
                rm = mp.mpf(r)
                want = mp.hyp2f1(a, a, 1, rm * rm)
                lead = 2 * (1 + mp.mpf(alpha)) if alpha >= 0.0 else mp.mpf(2)
                want_sp = lead / (1 - rm * rm) * want
            assert schwarz_bound(r, alpha) == res.value
            assert rel_err(res.value, want) < 1e-13, (alpha, r)
            if want_sp < 1e308:
                assert rel_err(schwarz_pick_bound(r, alpha), want_sp) < 1e-13, (alpha, r)
        assert quadratic >= 100

    def test_modulus_power_integral_against_mpmath(self):
        # beta = (alpha + 2)/2: F(1 - beta, 1 - beta; 1; |z|^2) in the
        # correctly rounded 1 - |z|^2, whose power (1 - |z|^2)^(1 - 2 beta)
        # is taken at that float
        rng = np.random.default_rng(37)
        quadratic = 0
        for alpha in _quadratic_sweep_alphas(rng):
            rho = 1.0 - (1.0 - 0.5 ** 0.5) * 10.0 ** rng.uniform(-11.5, 0.0)
            t = rng.uniform(0.0, 2.0 * math.pi)
            z = rho * complex(math.cos(t), math.sin(t))
            be = (alpha + 2.0) / 2.0
            x, y = z.real * z.real + z.imag * z.imag, specfun_module._one_minus_abs2(z)
            if x <= 0.5:
                continue
            try:
                res = specfun_module._hyp(1.0 - be, 1.0 - be, 1.0, x, y)
                value = modulus_power_integral(z, be)
            except ConvergenceError:
                continue
            if res.transform != "quadratic":
                continue
            quadratic += 1
            with mp.workdps(40):
                x_exact = mp.mpf(z.real) ** 2 + mp.mpf(z.imag) ** 2
                want = mp.hyp2f1(1 - mp.mpf(be), 1 - mp.mpf(be), 1, x_exact)
                want_mean = mp.mpf(y) ** (1 - 2 * mp.mpf(be)) * want
            assert rel_err(res.value, want) < 1e-13, (alpha, z)
            if want_mean < 1e308:
                assert rel_err(value, want_mean) < 1e-13, (alpha, z)
        assert quadratic >= 80

    def test_corner_sweep_meets_tolerance(self):
        # alpha -> -1 and r -> 1 together: s' = (alpha + 1)/2 -> 0, where the
        # two terms of the connection formula cancel like 1/s'.  78 of these
        # points raised ConvergenceError, 39 summed more than 10,000 raw
        # terms, and a returned value was 4.9e-13 off; the formula in
        # divided differences of s' sums a few terms at each
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = -1.0 + 10.0 ** rng.uniform(-5.0, -1.0)
            r = 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
            assert hyp2f1_detailed((-alpha / 2.0, -alpha / 2.0, 1.0), r * r).terms_used <= 16
            with mp.workdps(40):
                rm, al = mp.mpf(r), mp.mpf(alpha)
                want = mp.hyp2f1(-al / 2, -al / 2, 1, rm * rm)
                om = 1 - rm * rm
            assert rel_err(schwarz_bound(r, alpha), want) < 1e-13, (alpha, r)
            assert rel_err(schwarz_pick_bound(r, alpha), 2 / om * want) < 1e-13, (alpha, r)
            # beta = (alpha + 2)/2: (1 - r^2)^(-1 - alpha) F(-alpha/2, -alpha/2; 1; r^2)
            mean = modulus_power_integral(r, (alpha + 2.0) / 2.0)
            assert rel_err(mean, om ** (-1 - al) * want) < 1e-13, (alpha, r)

    def test_grid_work_bounded(self):
        # F on the bounds-table grid at r >= 0.8: at most 77 terms before,
        # on the raw series or the connection formulas in 1 - r^2
        for alpha in ALPHAS:
            for r in RADII:
                if r >= 0.8:
                    a = -alpha / 2.0
                    res = specfun_module._hyp(a, a, 1.0, r * r, (1.0 - r) * (1.0 + r))
                    assert res.terms_used <= 26, (alpha, r)
                    assert res.transform == ("none" if a == round(a) else "quadratic")

    def test_leading_coefficient_is_the_gauss_limit(self):
        # the first connection term of F(-alpha/4, 1/2 - alpha/4; 1; w) at
        # w = 1 is G(s)/(G(1 + alpha/4) G(1/2 + alpha/4)), s = (alpha + 1)/2,
        # and (1 + x)^(alpha/2) -> 2^(alpha/2): so SCHWARZ_2F1 -> 1/c_alpha
        rng = np.random.default_rng(41)
        alphas = np.concatenate([-1.0 + 10.0 ** rng.uniform(-5.0, 0.0, 100),
                                 rng.uniform(0.0, 100.0, 100)])
        for alpha in alphas.tolist():
            with mp.workdps(40):
                al = mp.mpf(alpha)
                lead = mp.gamma((al + 1) / 2) / (mp.gamma(1 + al / 4) * mp.gamma(mp.mpf(0.5) + al / 4))
            assert rel_err(2.0 ** (-alpha / 2.0) / c_alpha(alpha), lead) < 1e-14, alpha

    def test_inexact_family_takes_the_route_in_x(self):
        # c - 1 = b - a only after rounding: the quadratic map would change
        # the problem, so F keeps the connection formula in 1 - x
        a, b, c = 0.21, 0.69, 1.48
        assert c - 1.0 == b - a and specfun_module._round_off(b, -a) != 0.0
        assert hyp2f1_detailed((a, b, c), 0.9).transform == "connection"
        assert hyp2f1_detailed((0.25, 0.75, 1.5), 0.9).transform == "quadratic"


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

    def test_cancelling_euler_polynomial_raises(self):
        # c - a = -15: the Euler route sums the polynomial F(-15, 13.4; 3.25; 0.4),
        # whose terms cancel; returned unjudged it was 1.2e-9 off
        with pytest.raises(ConvergenceError, match="cancels"):
            hyp2f1((18.25, -10.15, 3.25), 0.4)
        # c - a = -2 cancels mildly and is returned
        res = hyp2f1_detailed((5.25, -1.1, 3.25), 0.3)
        assert res.transform == "euler"
        assert rel_err(res.value, float(mp.hyp2f1(5.25, -1.1, 3.25, 0.3))) < 1e-13

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
        # polynomial with alternating terms, summed to a tail of 2**-56 of its sum
        x = 1.0 - y
        res = hyp2f1_detailed((a, b, c), x)
        assert res.transform == "connection"
        assert res.terms_used <= 256
        want = mp.hyp2f1(a, b, c, mp.mpf(x))
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
            x = 4.0 * r * r / (s * s)
            with pytest.raises(ConvergenceError, match="cancels") as info:
                hyp2f1((0.5, 0.5 - 41.0 / 2.0, 1.5), x)
            want = float(mp.hyp2f1(0.5, -20, 1.5, mp.mpf(x)))
            assert info.value.error_estimate > 1e-13 * abs(want)


def _sweep_values(family, u, x):
    """[(value, mpmath value)] for one draw of a family of series callers;
    u holds three uniforms in [0, 1] that set its parameters."""
    y = 1.0 - x
    xm = mp.mpf(x)
    if family == "schwarz":  # SCHWARZ_2F1, SP_2F1, L1_MEAN
        a = -(-0.99 + 10.99 * u[0]) / 2.0
        return [(hyp2f1((a, a, 1.0), x), mp.hyp2f1(a, a, 1, xm))]
    if family == "m_series":  # M for every alpha
        alpha = -0.99 + 60.99 * u[0]
        want = mp.hyp2f1(0.5, (1 - mp.mpf(alpha)) / 2, 1.5, xm)
        return [(_m_series(alpha, x, y)[0], want)]
    if family == "mode_seed":  # the spectral solver's seed A_k
        a = -0.95 + 20.95 * u[0]
        k = 1 + int(31 * u[1])
        scale_k = math.exp(math.lgamma(a + 1.0 + k) - math.lgamma(a + 1.0)
                           - math.lgamma(k + 1.0))
        want = scale_k * mp.hyp2f1(-a, k, k + 1, xm)
        return [(_mode_seed(a, k, x, y, scale_k), want)]
    if family == "euler":  # verify's EULER_TRANSFORM draws
        a, b, c = -2.0 + 4.0 * u[0], -2.0 + 4.0 * u[1], 0.3 + 2.7 * u[2]
        want = mp.hyp2f1(a, b, c, xm)
        return [(hyp2f1((a, b, c), x), want), (_euler_transform_eval((a, b, c), x), want)]
    a, c = -1.5 + 3.0 * u[0], 0.4 + 2.6 * u[1]  # QUADRATIC_TRANSFORM draws
    want = mp.hyp2f1(a, a + 0.5, c, xm)
    return [(hyp2f1((a, a + 0.5, c), x), want), (_quadratic_transform_eval(a, c, x), want)]


SWEEP_FAMILIES = ("schwarz", "m_series", "mode_seed", "euler", "quadratic")


class TestShortRoute:
    """`_series_sum` builds every term in Python floats and adds each run
    of terms, between two tail tests, to its running sum by math.fsum; a
    run is as long as predicted, or as the tail bound asks."""

    def test_sweep_against_mpmath(self):
        # x across the 0.5 switch to the connection formula and the 1 - x
        # its series are summed in, down to 1e-8: every value returned is
        # within 1e-13 of 40-digit mpmath, and a draw whose raw or Euler
        # series would run past the 2**16-term cap raises instead
        worst, raised = 0.0, 0

        @seed(20261018)
        @settings(max_examples=400, deadline=None, database=None)
        @given(family=st.sampled_from(SWEEP_FAMILIES),
               u=st.tuples(*[st.floats(0.0, 1.0)] * 3),
               near_one=st.booleans(), v=st.floats(0.0, 1.0))
        def sweep(family, u, near_one, v):
            nonlocal worst, raised
            x = 1.0 - 10.0 ** (-8.0 + v * (8.0 + math.log10(0.5))) if near_one else 0.6 * v
            with mp.workdps(40):
                try:
                    values = _sweep_values(family, u, x)
                except ConvergenceError:
                    raised += 1
                    return
                for got, want in values:
                    err = float(abs(got - want) / max(abs(want), mp.mpf(1e-300)))
                    worst = max(worst, err)

        sweep()
        # measured 8.3e-14, and 28 draws raised
        assert 0.0 < worst <= 1e-13
        assert raised <= 28

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(a=st.one_of(st.just(1.0), st.floats(1e-3, 30.0)), b=st.floats(1e-3, 30.0),
           c=st.floats(0.05, 30.0), x=st.floats(1e-12, 0.9))
    def test_positive_series_against_mpmath(self, a, b, c, x):
        # positive terms, so nothing cancels; x to 0.9 reaches series of
        # over a thousand terms, in more than one run where the prediction
        # falls short.  Measured 67.7 eps worst, for 1,216 terms at
        # a = b = 13.3, c = x = 0.9: the drift of the term recurrence, not
        # the summation
        value = _series_sum(a, b, c, x)[0]
        with mp.workdps(40):
            want = mp.hyp2f1(a, b, c, mp.mpf(x))
        assert rel_err(value, want) <= 2e-14

    def test_large_parameters_return_finite_or_raise(self):
        # |a|, |b| and |c| up to 1e4 of either sign, and every other a a
        # polynomial of under 256 terms, summed in Python floats: each value
        # is finite or raises ConvergenceError.  Terms past the float range
        # leave +inf and -inf for math.fsum, which raises ValueError on them
        rng = np.random.default_rng(20261020)
        params = (10.0 ** rng.uniform(-1.0, 4.0, size=(2000, 3))
                  * rng.choice((-1.0, 1.0), size=(2000, 3))).tolist()
        xs = rng.uniform(0.005, 0.9, size=2000).tolist()
        raised = 0
        for i, ((a, b, c), x) in enumerate(zip(params, xs)):
            if i % 2:
                a = -float(rng.integers(1, 256))
            try:
                assert math.isfinite(hyp2f1((a, b, c), x)), (a, b, c, x)
            except ConvergenceError:
                raised += 1
        assert 500 < raised < 1500

    def test_bounds_on_the_table_grid_sum_short_series(self):
        # every bound on the grid of tests/golden/bounds.txt sums a few
        # dozen terms a series, 61 at most
        terms = []
        series_sum = specfun_module._series_sum

        def recording(*args):
            res = series_sum(*args)
            terms.append(res[1])
            return res

        with mock.patch.object(specfun_module, "_series_sum", recording):
            for alpha in ALPHAS:
                for r in RADII:
                    for bound_id in BOUND_IDS:
                        if bound_id != "M_PRIME" or alpha >= 0.0:
                            evaluate_bound(bound_id, r, alpha, 0.5)
        assert 0 < max(terms) <= 61

    def test_connection_terms_at_gauss_summation_argument(self):
        # two series in y = 1e-5: 128 terms when every sum began with a
        # 64-term chunk
        res = hyp2f1_detailed((0.3, 0.7, 1.4), 1.0 - 1e-5)
        assert res.transform == "connection"
        assert res.terms_used <= 8
        want = mp.hyp2f1(0.3, 0.7, 1.4, 1 - mp.mpf(1e-5))
        assert rel_err(res.value, float(want)) < 1e-13

    def test_terminating_series_stops_at_its_last_term(self):
        res = hyp2f1_detailed((-2.0, 0.7, 1.9), 0.3)
        assert (res.transform, res.terms_used) == ("none", 3)
        assert rel_err(res.value, float(mp.hyp2f1(-2, 0.7, 1.9, 0.3))) < 4 * _EPS

    def test_misprediction_runs_on_to_its_tail(self):
        # predicted 240.9 terms for 2**-56, but the terms change sign and
        # their sum is small: the first run of 241 terms is followed by a
        # second, as long as the tail bound asks (36 terms)
        a, b, c, x = 1.61, -1.28, 1.47, 0.89
        n_burn = int(max(abs(a), abs(b), abs(c), 1.0)) + 2
        predicted = specfun_module._predicted_terms(
            a, b, c, x, math.log(x), n_burn, specfun_module._TERM_CAP)
        assert 240.0 < predicted < 241.0
        value, terms, _ = _series_sum(a, b, c, x)
        assert terms == 277
        assert value == -0.013213973362753602
        assert rel_err(value, float(mp.hyp2f1(a, b, c, x))) < 1e-13

    def test_long_positive_series_stop_below_an_ulp(self):
        # positive terms, so no cancellation hides a truncation error; x in
        # [0.8, 0.95) gives 200-700 terms.  Sums stopped at a quarter of
        # 1e-13 were up to 2.8e-14 off here
        rng = np.random.default_rng(20261021)
        draws = rng.uniform((0.05, 0.05, 0.3, 0.8), (2.0, 2.0, 3.0, 0.95), size=(600, 4))
        worst = 0.0
        with mp.workdps(40):
            for a, b, c, x in draws.tolist():
                want = mp.hyp2f1(a, b, c, mp.mpf(x))
                worst = max(worst, float(abs(_series_sum(a, b, c, x)[0] - want) / want))
        assert worst < 4e-15

    @pytest.mark.parametrize("params, x, value, terms", [
        ((0.25, 0.75, 1.5), 0.5, 1.082392200292394, 47),
        ((-0.5, -0.5, 1.0), 0.999 ** 2, 1.2726042763383305, 8192),
    ], ids=["short-at-half", "long-near-one"])
    def test_long_series_unchanged(self, params, x, value, terms):
        # the first is predicted at 46.4 terms and summed in one run; the
        # second, predicted at 8,123 terms, takes a full run of _CHUNK terms
        # and then the 4,552 its tail bound asks, cut to a full run
        # (hyp2f1 takes it by the connection formula in Kummer's quadratic
        # variable, at integer c - a - b)
        assert _series_sum(*params, x)[:2] == (value, terms)
        assert rel_err(value, float(mp.hyp2f1(*params, mp.mpf(x)))) < 1e-13


class TestOnePass:
    """Each series costs one run of terms where its count is predicted
    well, and no run goes past the last term of a polynomial; the solver's
    seeds sum no series at all."""

    @pytest.mark.parametrize("k", range(1, 18))
    def test_seed_series_at_radius_099_takes_one_pass(self, k):
        # k (1 - x) <= 1/2 at radius 0.99 for every k here: the seed takes
        # its closed form
        x = 0.99 ** 2
        y = 1.0 - x
        for alpha in (-0.99999, -0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0):
            got = _mode_seed(alpha, k, x, y, _scale(alpha, k))
            assert rel_err(got, _mp_seed(alpha, k, y)) < 5e-14, (k, alpha)

    def test_seeds_of_the_far_branch_take_no_pass(self):
        # k (1 - x) > 1/2: the closed form or the continued fraction, both
        # in Python floats
        for k in (1, 4, 9, 17):
            for r in (0.3, 0.6, 0.8, 0.9, 0.95):
                x = r * r
                if k * (1.0 - x) <= 0.5:
                    continue
                for alpha in (-0.99, 0.5, 5.0):
                    y = 1.0 - x
                    got = _mode_seed(alpha, k, x, y, _scale(alpha, k))
                    assert rel_err(got, _mp_seed(alpha, k, y)) < 5e-14, (k, r, alpha)

    def test_polynomial_builds_no_ratio_past_its_last_term(self):
        # SCHWARZ_2F1 at alpha = 4 is the 3-term polynomial F(-2, -2; 1; r^2),
        # predicted at about 19,000 terms for r = 0.999
        res = hyp2f1_detailed((-2.0, -2.0, 1.0), 0.999 ** 2)
        value = schwarz_bound(0.999, 4.0)
        assert (res.transform, res.terms_used) == ("none", 3)
        assert rel_err(value, float(mp.hyp2f1(-2, -2, 1, mp.mpf(0.999) ** 2))) < 1e-13
        # a longer polynomial (positive terms, as both (-300)_n and
        # (-300.5)_n alternate): one run, up to its zero term
        value, terms, _ = _series_sum(-300.0, -300.5, 1.5, 0.9)
        assert terms == 301
        assert rel_err(value, float(mp.hyp2f1(-300, -300.5, 1.5, 0.9))) < 1e-13


class TestClosedFormSeed:
    def test_sweep_against_mpmath(self):
        # k (1 - x) <= 1/2: A_k from its k-term closed form; alpha from
        # -0.99999 to 5, k <= 17, 1 - |z| down to 1e-7, y exact as the solver
        # forms it and x = 1 - y
        rng = np.random.default_rng(20261019)
        worst, draws = 0.0, 0
        while draws < 300:
            alpha = (-1.0 + 10.0 ** rng.uniform(-5.0, 0.0) if rng.random() < 0.3
                     else rng.uniform(-0.99999, 5.0))
            k = int(rng.integers(1, 18))
            y = 10.0 ** rng.uniform(-7.0, math.log10(0.5 / k))
            x = 1.0 - y
            scale_k = math.exp(math.lgamma(alpha + 1.0 + k) - math.lgamma(alpha + 1.0)
                               - math.lgamma(k + 1.0))
            got = _mode_seed(alpha, k, x, y, scale_k)
            with mp.workdps(40):
                want = (mp.rf(mp.mpf(alpha) + 1, k) / mp.factorial(k)
                        * mp.hyp2f1(-mp.mpf(alpha), k, k + 1, 1 - mp.mpf(y)))
            worst = max(worst, rel_err(got, want))
            draws += 1
        # measured 2.7e-15; the connection formula it replaced was 1.3e-10 off
        assert worst < 1e-14

    def test_partial_sum_past_the_float_range(self):
        # k = 1025 and alpha in (300, 1000]: the closed form's partial sum
        # sum_{j<k} (alpha+1)_j x^j / j! overflows for most 1 - x below 0.45,
        # and is then summed rescaled, in logs; it used to send the seed to
        # the continued fraction far above the median, which raised.  The
        # oracle is x^(-k) I_x(k, alpha + 1) at 40 digits
        rng = np.random.default_rng(1025)
        k, worst, overflowed = 1025, 0.0, 0
        for _ in range(120):
            alpha = 10.0 ** rng.uniform(math.log10(300.0), 3.0)
            x = 1.0 - 10.0 ** rng.uniform(math.log10(0.5 / k), math.log10(0.45))
            y = 1.0 - x
            with mp.workdps(40):
                b = mp.mpf(alpha) + 1
                want = mp.betainc(k, b, 0, x, regularized=True) * mp.mpf(x) ** -k
                upper = mp.betainc(b, k, 0, y, regularized=True)  # I_{1-x}(b, k)
                overflowed += mp.log(upper) - b * mp.log(y) > mp.log(2) * 1024
            if upper > 0.5 and k * y > 0.5:  # the continued fraction's side
                continue
            with _count_steps() as steps:
                got = _mode_seed(alpha, k, x, y, 1.0)
            assert steps == []
            worst = max(worst, rel_err(got, want))
        assert overflowed >= 80, overflowed  # 91, 113 draws on the closed form
        # measured 1.9e-14
        assert worst < 5e-14

    def test_value_past_the_float_range_is_inf(self):
        # I_{1-x}(b, k) = 0.33 puts x = 0.55 above the median, so the closed
        # form is taken, but x^(-k) A_k = 2.4e311: inf, for `kernel._spectral`'s
        # overflow check, not an OverflowError
        assert _mode_seed(999.0, 1200, 0.55, 0.45, 1.0) == math.inf


class TestContinuedFractionSeed:
    """`_mode_seed` below the median of Beta(k, alpha + 1): the continued
    fraction of DLMF 8.17.22, at most 16 sqrt(k) + 16 steps."""

    def test_sweep_against_mpmath(self):
        # alpha on a log scale from -1 + 1e-5 to 1000, k up to 64, and y from
        # 1e-3 / k to 1: both sides of the switch to the closed form
        rng = np.random.default_rng(20261020)
        worst, routes = 0.0, {"closed form": 0, "continued fraction": 0}
        for _ in range(1500):
            alpha = -1.0 + 10.0 ** rng.uniform(-5.0, math.log10(1001.0))
            k = int(rng.integers(1, 65))
            y = 10.0 ** rng.uniform(math.log10(1e-3 / k), 0.0)
            with _count_steps() as steps:
                got = _mode_seed(alpha, k, 1.0 - y, y, _scale(alpha, k))
            assert len(steps) <= 16.0 * math.sqrt(k) + 16.0, (alpha, k, y, len(steps))
            routes["continued fraction" if steps else "closed form"] += 1
            worst = max(worst, rel_err(got, _mp_seed(alpha, k, y)))
        assert min(routes.values()) > 300, routes
        # measured 1.9e-14, on the continued fraction
        assert worst < 5e-14

    @pytest.mark.parametrize("k", (2, 17, 257))
    def test_steps_grow_like_root_k(self, k):
        # the most steps over 1 - x from 0.5 / k to 1: near alpha = -1 and
        # k (1 - x) = 1/2 (16, 44 and 113 steps), well inside the bound
        for alpha in (-0.99999, -0.5, 0.5, 30.5, 999.5):
            most = 0
            for y in np.geomspace(0.5 / k, 1.0, 60):
                with _count_steps() as steps:
                    _mode_seed(alpha, k, 1.0 - y, y, _scale(alpha, k))
                most = max(most, len(steps))
            assert most <= 12.0 * math.sqrt(k) + 4.0, (alpha, most)
            if alpha < -0.9:
                assert most >= 6.0 * math.sqrt(k), most

    def test_raises_past_its_step_bound(self):
        # a stopping test that never passes: the fraction gives up after
        # int(16 sqrt(k)) + 16 steps and raises, with its last value
        k, alpha, x = 9, 2.5, 0.3
        with mock.patch.object(specfun_module, "_EPS", -1.0), _count_steps() as steps:
            with pytest.raises(ConvergenceError, match="continued fraction") as info:
                _mode_seed(alpha, k, x, 1.0 - x, _scale(alpha, k))
        assert len(steps) == info.value.iterations == 64
        assert rel_err(info.value.partial, _mp_seed(alpha, k, 1.0 - x)) < 1e-14

    def test_underflow_raises(self):
        # (1 - x)^(alpha + 1) = 0.47^1000 is below the normal range, and x =
        # 0.53 is below the median of Beta(1200, 1000): only reachable at k in
        # the hundreds
        with pytest.raises(ConvergenceError, match="underflows"):
            _mode_seed(999.0, 1200, 0.53, 0.47, 1.0)


class TestGaussSummation:
    def test_terminating_limit(self):
        assert _hyp2f1_at_one((-1.0, -1.0, 1.0)) == pytest.approx(2.0, rel=1e-13)

    def test_zero_parameter(self):
        assert _hyp2f1_at_one((0.0, 0.7, 1.3)) == pytest.approx(1.0, rel=1e-13)

    def test_reciprocal_normalization_constant(self):
        for alpha in (0.5, 1.0, 2.0, 3.5):
            want = 1.0 / c_alpha(alpha)
            got = _hyp2f1_at_one((-alpha / 2.0, -alpha / 2.0, 1.0))
            assert rel_err(got, want) < 1e-12

    def test_limit_approach_monotone(self):
        rng = np.random.default_rng(31)
        deltas = (1e-2, 1e-3, 1e-4, 1e-5)
        for _ in range(50):
            while True:
                a, b = rng.uniform(-1.0, 1.5, size=2)
                c = a + b + rng.uniform(0.25, 2.0)
                if c - a > 0.05 and c - b > 0.05 and c > 0.3:
                    break
            limit = _hyp2f1_at_one((a, b, c))
            gaps = [abs(hyp2f1((a, b, c), 1.0 - d) - limit) for d in deltas]
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_agreement_very_near_one(self):
        # the gap to the limit scales like (1-x)^(c-a-b)
        x = 1.0 - 1e-6
        for a, b, c in ((0.25, 0.25, 1.0), (-0.5, 0.7, 1.9), (0.1, -0.9, 0.8)):
            limit = _hyp2f1_at_one((a, b, c))
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
            rhs = (2.0 ** alpha * math.gamma(0.5 + alpha / 2.0)
                   / (math.sqrt(math.pi) * math.gamma(1.0 + alpha / 2.0)))
            assert rel_err(lhs, rhs) < 1e-12

    def test_reciprocal_below_power_of_two(self):
        for alpha in (0.5, 1.0, 3.0):
            assert 1.0 / c_alpha(alpha) < 2.0 ** alpha
