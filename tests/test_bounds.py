"""Closed-form bound evaluations and their orderings."""

import math

import mpmath as mp
import numpy as np
import pytest

from alphaharmonic import (BoundReport, ConvergenceError, DomainError, c_alpha, colonna_bound,
                           evaluate_bound, integrate_periodic, l1_mean_kernel,
                           lc_schwarz_pick_bound, m1_bound, m2_bound, m_bound,
                           m_prime_bound, schwarz_bound, schwarz_pick_bound,
                           schwarz_pick_limit_bound)


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
