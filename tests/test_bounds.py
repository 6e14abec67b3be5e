"""Closed-form bound evaluations and their orderings."""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from alphaharmonic import (BoundReport, ConvergenceError, DomainError, c_alpha, colonna_bound,
                           evaluate_bound, integrate_periodic, l1_mean_kernel,
                           lc_schwarz_pick_bound, m1_bound, m2_bound, m_bound,
                           m_prime_bound, schwarz_bound, schwarz_pick_bound,
                           schwarz_pick_limit_bound)
from alphaharmonic import specfun


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestM1:
    def test_center_half(self):
        assert m1_bound(0.0, 0.0, 0.5) == pytest.approx(0.5, rel=1e-13)

    def test_saturated_c(self):
        assert m1_bound(0.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert m1_bound(0.7, 2.0, 1.0) == pytest.approx(2.0 ** 2, rel=1e-13)

    def test_negative_alpha_blows_up(self):
        vals = [m1_bound(r, -0.5, 0.5) for r in (0.9, 0.99, 0.999)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 20.0

    def test_rejects_bad_c(self):
        with pytest.raises(DomainError):
            m1_bound(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            m1_bound(0.5, 1.0, 1.5)


class TestM2:
    def test_alpha_zero_collapse(self):
        for r in np.linspace(0.0, 0.99, 34):
            assert rel_err(m2_bound(r, 0.0) + 1e-300,
                           4.0 / math.pi * math.atan(r) + 1e-300) < 1e-12

    def test_zero_radius(self):
        for a in (-0.5, 0.0, 1.0, 4.0):
            assert m2_bound(0.0, a) == pytest.approx(0.0, abs=1e-15)

    def test_near_boundary_value(self):
        # direct formula arithmetic, frozen from 30-digit evaluation
        assert rel_err(m2_bound(0.99, 1.0), 2.0268037303752403025) < 1e-13

    def test_nonnegative_on_grid(self):
        for a in np.linspace(-0.95, 3.0, 80):
            for r in np.linspace(0.0, 0.99, 25):
                assert m2_bound(r, a) >= -1e-15


class TestColonnaAndLC:
    def test_center(self):
        assert colonna_bound(0.0) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_half(self):
        assert colonna_bound(0.5) == pytest.approx(4.0 / math.pi / 0.75, rel=1e-14)

    def test_diverges(self):
        assert colonna_bound(0.999999) > 1e5

    def test_lc_values(self):
        assert lc_schwarz_pick_bound(0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert lc_schwarz_pick_bound(0.0, 1.0) == pytest.approx(8.0, rel=1e-14)
        assert rel_err(lc_schwarz_pick_bound(0.5, -0.5),
                       4.3546484316145388412) < 1e-13


class TestM:
    def test_zero_radius(self):
        for a in (-0.9, 0.0, 2.0, 5.0):
            assert m_bound(0.0, a) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_zero_is_arctan(self):
        for r in np.linspace(0.01, 0.99, 25):
            assert rel_err(m_bound(r, 0.0), 4.0 / math.pi * math.atan(r)) < 1e-12

    def test_refines_m2_near_boundary(self):
        for a in [(5 * i - 95) / 100.0 for i in range(80)]:
            assert m_bound(0.99, a) <= m2_bound(0.99, a)

    def test_equals_m2_at_alpha_zero(self):
        # both collapse to (4/pi) arctan r; equal bit for bit, not just close
        for r in (0.0, 0.3, 0.9, 0.99, 0.999999):
            assert m_bound(r, 0.0) == m2_bound(r, 0.0)

    def test_value_at_one_alpha_one(self):
        # frozen: second hypergeometric parameter vanishes so F = 1 exactly
        assert rel_err(m_bound(0.99, 1.0), 1.2866248613285742585) < 1e-12


def m_bound_mpmath(r, alpha):
    """M from its defining formula, at 40 digits."""
    with mp.workdps(40):
        r, a = mp.mpf(r), mp.mpf(alpha)
        s = 1 + r * r
        first = (1 - r * r) ** (a + 1) * abs((1 - r) ** (-a) - 1) / s
        f = mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2 - a / 2, mp.mpf(3) / 2, 4 * r * r / s ** 2)
        if a >= 0:
            second = 2 ** (2 + a / 2) * r * s ** (a / 2 - 1) / mp.pi * f
        else:
            second = 4 * r / mp.pi * s ** (a / 2 - 1) * f
        return first + second


class TestMLargeAlpha:
    @pytest.mark.parametrize("alpha", [5.0, 50.0, 400.0])
    def test_against_mpmath_at_r_09(self, alpha):
        # at alpha = 400, (1 - r)^(-alpha) alone overflows; M is about 5.5e110
        assert rel_err(m_bound(0.9, alpha), m_bound_mpmath(0.9, alpha)) < 1e-12

    @pytest.mark.parametrize("alpha", [1.0001, 1.5, 3.0, 4.9, 23.0, 41.0, 150.5, 341.5, 600.0])
    def test_sweep_against_mpmath(self, alpha):
        # both sides of x = 4r^2/(1+r^2)^2 = 1/2 (r = sqrt(2) - 1), and odd
        # alpha, where the hypergeometric factor is an alternating polynomial
        for r in (0.01, 0.1, 0.3, 0.41, 0.42, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999):
            assert rel_err(m_bound(r, alpha), m_bound_mpmath(r, alpha)) < 1e-12

    def test_evaluate_bound_outside_float_range_raises(self):
        for bound_id in ("M", "M1", "M2", "LC_SP", "SP_LIMIT"):
            with pytest.raises(ConvergenceError, match="float range"):
                evaluate_bound(bound_id, 0.9, 2000.0, c=0.5 if bound_id == "M1" else None)
        # the public bounds themselves, which raised a raw OverflowError or
        # (SP_LIMIT, where c_alpha underflows) ZeroDivisionError
        for call in (lambda: m_bound(0.5, 2000.0), lambda: m1_bound(0.5, 1500.0, 0.5),
                     lambda: m2_bound(0.5, 1500.0), lambda: m_prime_bound(0.5, 1500.0),
                     lambda: lc_schwarz_pick_bound(0.5, 1500.0),
                     lambda: schwarz_pick_limit_bound(0.5, 1500.0)):
            with pytest.raises(ConvergenceError, match="float range"):
                call()
        # that check keeps the bounds' keyword arguments
        assert m1_bound(r=0.5, alpha=2.0, c=0.5) == m1_bound(0.5, 2.0, 0.5)
        assert m_bound(alpha=2.0, r=0.5) == m_bound(0.5, 2.0)


class TestSmallRadius:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.07, 0.5, 1.0, 3.0, 10.0])
    def test_m_and_m2_against_mpmath(self, alpha):
        # (1 - r)^alpha - 1 by expm1 and log1p: as a difference of powers it
        # put M 5.1e-11 and M2 2.6e-11 off at alpha = 0.5, r = 1e-6
        for r in (1e-6, 1e-4, 1e-2, 0.5):
            with mp.workdps(40):
                rm, a = mp.mpf(r), mp.mpf(alpha)
                if alpha >= 0:
                    m2 = 2 ** (a + 2) / mp.pi * mp.atan(rm) + 2 ** (a + 1) * (1 - rm) * (1 - (1 - rm) ** a)
                else:
                    m2 = 4 / mp.pi * (1 - rm) ** a * mp.atan(rm) + (1 - rm) ** a - 1
            assert rel_err(m_bound(r, alpha), float(m_bound_mpmath(r, alpha))) < 1e-13, r
            assert rel_err(m2_bound(r, alpha), float(m2)) < 1e-13, r


class TestMNearMinusOne:
    @pytest.mark.parametrize("alpha, r", [(-0.9999, 0.5), (-0.9999, 0.45), (-0.99, 0.9),
                                          (-0.95, 0.999), (-0.5, 0.99999), (0.5, 0.99999)])
    def test_against_mpmath(self, alpha, r):
        # s = (alpha+1)/2 near 0: the connection formula's two terms, both
        # about 1/(2s), cancel; at alpha = -0.9999, r = 0.5 the Euler series
        # in x takes over, without which M was 1e-12 off
        assert rel_err(m_bound(r, alpha), float(m_bound_mpmath(r, alpha))) < 1e-13

    @pytest.mark.parametrize("alpha, r", [(-0.999638, 0.997259), (-0.99979, 0.99750)])
    def test_corner_meets_tolerance_or_raises(self, alpha, r):
        # the Euler series in x once ran to the 4M-term cap here; stopped at
        # a tail of a quarter of 1e-13, it returned M 2.4e-13 and 2.0e-13
        # off.  The difference quotient sums a few terms in 1 - x instead
        try:
            value = m_bound(r, alpha)
        except ConvergenceError:
            return
        assert rel_err(value, float(m_bound_mpmath(r, alpha))) < 1e-13

    def test_argument_rounding_to_one_meets_tolerance(self):
        # x = 4r^2/(1+r^2)^2 rounds to 1.0; the Euler series in x raised
        # here, where the difference quotient sums in the exact 1 - x
        value = m_bound(0.9999999991, -0.9993)
        assert rel_err(value, float(m_bound_mpmath(0.9999999991, -0.9993))) < 1e-13

    def test_corner_sweep_meets_tolerance(self):
        # alpha -> -1 and r -> 1 together, drawn point by point: 121 of
        # these raised ConvergenceError at the 4M-term cap of the Euler
        # series, and 12 were beyond 1e-13 (9.9e-13 worst)
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = -1.0 + 10.0 ** rng.uniform(-5.0, -1.0)
            r = 1.0 - 10.0 ** rng.uniform(-6.0, -2.0)
            assert rel_err(m_bound(r, alpha), float(m_bound_mpmath(r, alpha))) < 1e-13, (r, alpha)
        # 1.21e-13 off, after a 1.36M-term Euler series
        r, alpha = 0.9951039554794251, -0.9998736726145536
        assert rel_err(m_bound(r, alpha), float(m_bound_mpmath(r, alpha))) < 1e-13

    @pytest.mark.parametrize("r", [0.5, 0.6])
    def test_no_euler_series_near_minus_one(self, r):
        # the cancelling connection pair was rejected here, and the Euler
        # series of 87-156 terms summed instead; the difference quotient
        # calls no `_series_sum`
        with mock.patch.object(specfun, "_series_sum", side_effect=AssertionError):
            value = m_bound(r, -0.95)
        assert rel_err(value, float(m_bound_mpmath(r, -0.95))) < 1e-13


def near_boundary_mpmath(bound_id, r, alpha, c):
    """The bounds built on 1 - r^2, from their formulas at 40 digits at the
    exact r (F of SP_2F1 too)."""
    with mp.workdps(40):
        r, a = mp.mpf(r), mp.mpf(alpha)
        om = 1 - r * r
        lead = 2 * (1 + a) if a >= 0 else mp.mpf(2)
        if bound_id == "COLONNA":
            return 4 / mp.pi / om
        if bound_id == "LC_SP":
            return (1 + a) * 2 ** (1 + a) / om if a >= 0 else 2 ** (1 - a) / om ** (1 - a)
        if bound_id == "SP_2F1":
            return lead / om * mp.hyp2f1(-a / 2, -a / 2, 1, r * r)
        if bound_id == "SP_LIMIT":
            return lead / om * mp.gamma(1 + a) / mp.gamma(a / 2 + 1) ** 2
        arc = mp.atan((1 + r) / (1 - r) * mp.tan(mp.mpf(c) * mp.pi / 2))
        return 2 ** (1 + a) / mp.pi * arc if a >= 0 else 2 ** (1 - a) / mp.pi * om ** a * arc


class TestOneMinusR2NearBoundary:
    # 1.0 - r * r put COLONNA 4.1e-13 and 4.0e-11 off at these radii
    @pytest.mark.parametrize("r", [0.99999, 0.9999999])
    @pytest.mark.parametrize("bound_id", ["COLONNA", "LC_SP", "SP_2F1", "SP_LIMIT", "M1"])
    def test_against_mpmath(self, bound_id, r):
        for alpha in (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 7.0):
            got = evaluate_bound(bound_id, r, alpha, c=0.7 if bound_id == "M1" else None).value
            want = near_boundary_mpmath(bound_id, r, alpha, 0.7)
            assert rel_err(got, float(want)) < 1e-13, alpha


class TestMPrime:
    def test_alpha_zero_constant(self):
        for r in (0.1, 0.5, 0.9):
            assert m_prime_bound(r, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_zero_radius_high_alpha(self):
        assert m_prime_bound(0.0, 2.0) == 0.0

    def test_first_branch_value(self):
        assert rel_err(m_prime_bound(0.5, 3.0), 26.546479089470325372) < 1e-13

    def test_rejects_negative_alpha(self):
        with pytest.raises(DomainError):
            m_prime_bound(0.5, -0.5)

    def test_dominates_m(self):
        for a in np.linspace(0.0, 5.0, 26):
            for r in np.linspace(0.0, 0.99, 23):
                assert m_bound(r, a) <= m_prime_bound(r, a) + 1e-12


class TestSchwarzBound:
    def test_alpha_zero(self):
        for r in (0.0, 0.5, 0.99):
            assert schwarz_bound(r, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_terminating_alpha_two(self):
        for r in (0.0, 0.3, 0.9):
            assert rel_err(schwarz_bound(r, 2.0), 1.0 + r * r) < 1e-13

    def test_limit_toward_reciprocal_constant(self):
        for a in (0.5, 2.0, 5.0):
            want = 1.0 / c_alpha(a)
            got = schwarz_bound(math.sqrt(1.0 - 1e-6), a)
            assert abs(got - want) < 1e-2 * want

    def test_monotone_in_radius(self):
        for a in (-0.5, 0.7, 3.0):
            vals = [schwarz_bound(r, a) for r in np.linspace(0.0, 0.95, 20)]
            assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha, r", [(162.428, 0.74123), (146.437, 0.73374)])
    def test_large_alpha_against_mpmath(self, alpha, r):
        # the connection formula's first series F(a, a; -alpha; y) cancels
        # inside; judged by |t1| + |t2| alone it was 141 and 1.7e-2 off
        with mp.workdps(40):
            want = mp.hyp2f1(-alpha / 2, -alpha / 2, 1, mp.mpf(r) ** 2)
        assert rel_err(schwarz_bound(r, alpha), float(want)) < 1e-13

    def test_sum_beyond_float_range_raises_at_once(self):
        # F(-1000, -1000; 1; 1/4) overflows: its nan terms ran to the
        # 4,000,000-term cap before the error
        with pytest.raises(ConvergenceError, match="float range") as info:
            schwarz_bound(0.5, 2000.0)
        assert info.value.iterations <= 5000


class TestSchwarzPickBounds:
    def test_center_values(self):
        assert schwarz_pick_bound(0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert schwarz_pick_bound(0.5, 2.0) == pytest.approx(10.0, rel=1e-13)

    def test_negative_alpha_value(self):
        # frozen: (2/0.75) * F(1/4, 1/4; 1; 1/4) from mpmath
        assert rel_err(schwarz_pick_bound(0.5, -0.5), 2.7130901269225493565) < 1e-12

    def test_limit_values(self):
        assert schwarz_pick_limit_bound(0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert schwarz_pick_limit_bound(0.0, 2.0) == pytest.approx(12.0, rel=1e-13)

    def test_chain_to_limit(self):
        for a in (-0.9, -0.5, 0.0, 0.5, 2.0, 5.0):
            for r in (0.0, 0.3, 0.7, 0.95):
                assert schwarz_pick_bound(r, a) <= schwarz_pick_limit_bound(r, a) + 1e-12

    def test_limit_refines_power_bound_for_positive_alpha(self):
        for a in (0.5, 1.0, 3.0):
            for r in (0.0, 0.4, 0.9):
                assert schwarz_pick_limit_bound(r, a) < lc_schwarz_pick_bound(r, a)


class TestL1Mean:
    def test_classical_unit_mass(self):
        for r in (0.0, 0.5, 0.9):
            assert l1_mean_kernel(0.0, r) == pytest.approx(1.0, abs=1e-11)

    def test_center(self):
        assert l1_mean_kernel(2.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_near_boundary_approaches_reciprocal(self):
        got = l1_mean_kernel(2.0, 0.999)
        assert abs(got - 2.0) < 5e-3

    def test_bounded_and_monotone(self):
        for a in (-0.5, 1.0, 2.0, 5.0):
            cap = 1.0 / c_alpha(a)
            vals = [l1_mean_kernel(a, r) for r in (0.5, 0.9, 0.99, 0.999)]
            assert all(v <= cap + 1e-9 for v in vals)
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_matches_hypergeometric_closed_form(self):
        # independent route: the kernel modulus integrated by quadrature
        for a, r in ((-0.5, 0.3), (1.5, 0.6), (4.0, 0.8)):
            pref = (1.0 - r * r) ** (a + 1.0)

            def integrand(theta, a=a, r=r, pref=pref):
                mod2 = 1.0 - 2.0 * r * np.cos(theta) + r * r
                return pref * mod2 ** (-(a + 2.0) / 2.0)

            want = integrate_periodic(integrand).unwrap("kernel mean quadrature")
            assert rel_err(l1_mean_kernel(a, r), want) < 1e-10

    def test_equals_schwarz_bound_bit_for_bit(self):
        for a in (-0.95, -0.5, 0.0, 1.0, 2.35, 4.9):
            for r in (0.0, 0.3, 0.9, 0.99, 0.999):
                assert (evaluate_bound("L1_MEAN", r, a).value
                        == evaluate_bound("SCHWARZ_2F1", r, a).value
                        == schwarz_bound(r, a))


class TestBoundReport:
    def test_dispatcher_all_ids(self):
        rep = evaluate_bound("COLONNA", 0.0, 0.0)
        assert rep.value == pytest.approx(4.0 / math.pi, rel=1e-14)
        rep = evaluate_bound("M1", 0.5, 1.0, c=0.5)
        assert rep.aux == 0.5

    def test_m1_requires_aux(self):
        with pytest.raises(DomainError):
            evaluate_bound("M1", 0.5, 1.0)

    def test_report_validation(self):
        # the one check on an output; inputs are checked by evaluate_bound
        for bad in (-1.0, math.nan):
            with pytest.raises(DomainError):
                BoundReport("M2", 0.5, 0.0, None, bad)
        assert BoundReport("M2", 0.5, 0.0, None, 0.0).value == 0.0

    def test_inputs_checked_by_evaluate_bound(self):
        for bound_id, r, alpha in (("M2", 1.5, 0.0), ("M2", 0.5, -2.0),
                                   ("NOPE", 0.5, 0.0)):
            with pytest.raises(DomainError):
                evaluate_bound(bound_id, r, alpha)

    def test_note_distinguishes_scaling(self):
        assert "sup-norm <= 1" in evaluate_bound("M", 0.5, 1.0).note
        assert "linearly" in evaluate_bound("SP_2F1", 0.5, 1.0).note
