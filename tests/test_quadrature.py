"""Periodic quadrature engine and trigonometric-integral identities."""

import math

import numpy as np
import pytest

from alphaharmonic import (ConvergenceError, DomainError, IntegrandError,
                           QuadratureConfig, cos_power_integral, integrate_periodic,
                           modulus_power_integral, ratio_integral_series)
from alphaharmonic.quadrature import _node_level


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            QuadratureConfig(n_initial=100)
        with pytest.raises(DomainError):
            QuadratureConfig(n_max=3000)

    def test_rejects_inverted_range(self):
        with pytest.raises(DomainError):
            QuadratureConfig(n_initial=1024, n_max=512)


class TestIntegratePeriodic:
    def test_constant(self):
        res = integrate_periodic(lambda th: np.ones_like(th))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.nodes_used <= 2 * QuadratureConfig().n_initial

    def test_cos_squared(self):
        res = integrate_periodic(lambda th: np.cos(th) ** 2)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-14)

    def test_poisson_identity(self):
        # classical positive-kernel mean: 1 / (1 - r^2) at r = 0.5
        res = integrate_periodic(lambda th: 1.0 / np.abs(1.0 - 0.5 * np.exp(1j * th)) ** 2)
        assert res.converged
        assert rel_err(res.value, 1.0 / 0.75) < 1e-12

    def test_complex_integrand(self):
        res = integrate_periodic(lambda th: np.exp(1j * th) + 2.0)
        assert res.converged
        assert abs(res.value - 2.0) < 1e-14

    def test_non_finite_raises(self):
        def bad(th):
            out = np.ones_like(th)
            out[th > 3.0] = np.inf
            return out

        with pytest.raises(IntegrandError):
            integrate_periodic(bad)

    def test_non_convergence_flagged(self):
        # a kink converges far too slowly for this tiny node budget
        cfg = QuadratureConfig(n_initial=4, n_max=16, rel_tol=1e-15, abs_tol=1e-16)
        res = integrate_periodic(lambda th: np.abs(np.cos(th)), cfg)
        assert not res.converged
        assert res.nodes_used == 16

    def test_doubling_reduces_disagreement(self):
        # successive-level error drops by >= 4x for a smooth peaked integrand
        def f(th):
            return 1.0 / np.abs(1.0 - 0.5 * np.exp(1j * th)) ** 2

        exact = 1.0 / 0.75
        errors = []
        for k in range(2, 7):
            cfg = QuadratureConfig(n_initial=2 ** k, n_max=2 ** k,
                                   rel_tol=1e-30, abs_tol=1e-30)
            res = integrate_periodic(f, cfg)
            errors.append(abs(res.value - exact))
        for e1, e2 in zip(errors, errors[1:]):
            if e1 < 1e-13:
                break
            assert e2 <= e1 / 4.0


class TestStackedIntegrands:
    @staticmethod
    def peaked(rho):
        return lambda th: 1.0 / np.abs(1.0 - rho * np.exp(1j * th)) ** 2

    def test_rows_equal_separate_integrals(self):
        rows = [self.peaked(0.3), self.peaked(0.8), lambda th: np.exp(2j * th) + 0.5]
        stacked = integrate_periodic(lambda th: np.stack([f(th) for f in rows]))
        separate = [integrate_periodic(f) for f in rows]
        assert stacked.converged
        assert stacked.nodes_used == max(q.nodes_used for q in separate)
        assert len(stacked.value) == len(stacked.error_estimate) == 3
        for v, e, q in zip(stacked.value, stacked.error_estimate, separate):
            assert abs(v - q.value) <= q.error_estimate + 1e-15 * abs(q.value)
            assert e <= max(1e-11 * abs(v), 1e-14)

    def test_one_row_sums_as_a_plain_integrand(self):
        f = self.peaked(0.6)
        stacked = integrate_periodic(lambda th: f(th)[None, :])
        plain = integrate_periodic(f)
        assert stacked.value == (plain.value,)
        assert stacked.error_estimate == (plain.error_estimate,)
        assert stacked.nodes_used == plain.nodes_used

    def test_stops_only_when_every_row_converges(self):
        cfg = QuadratureConfig(n_initial=4, n_max=64)
        res = integrate_periodic(
            lambda th: np.stack([np.ones_like(th), np.abs(np.cos(th))]), cfg)
        assert not res.converged
        assert res.nodes_used == 64
        assert res.value[0] == 1.0

    def test_non_finite_row_names_its_angle(self):
        def f(th):
            bad = np.where(th > 3.0, np.inf, 1.0)
            return np.stack([np.ones_like(th), bad])

        with pytest.raises(IntegrandError) as info:
            integrate_periodic(f)
        assert info.value.theta > 3.0


class TestNodeLevel:
    def test_inverts_every_level(self):
        seen = []

        def f(th):
            seen.append((th.copy(), _node_level(th)))
            return 1.0 + th  # not periodic: runs to n_max

        integrate_periodic(f, QuadratureConfig(n_initial=1, n_max=1024))
        assert len(seen) == 11
        for th, (n, offset) in seen:
            assert np.array_equal(th, 2.0 * math.pi * (np.arange(n) + offset) / n)

    def test_rejects_other_angles(self):
        with pytest.raises(DomainError):
            _node_level(np.linspace(0.1, 1.0, 8))


class TestUnwrap:
    def test_converged_returns_value_unchanged(self):
        res = integrate_periodic(lambda th: np.cos(th) ** 2 + 1j * np.sin(th) ** 2)
        assert res.converged
        assert res.unwrap("test mean") is res.value

    def test_starved_raises_with_diagnostics(self):
        def f(th):
            return 1.0 / np.abs(1.0 - 0.9 * np.exp(1j * th)) ** 2

        res = integrate_periodic(f, QuadratureConfig(n_initial=4, n_max=8))
        assert not res.converged
        with pytest.raises(ConvergenceError, match="peaked mean did not converge") as info:
            res.unwrap("peaked mean")
        exc = info.value
        assert exc.partial == res.value
        assert exc.error_estimate == res.error_estimate > 0
        assert exc.iterations == res.nodes_used == 8


class TestCosPower:
    def test_trivial(self):
        assert cos_power_integral(0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_even_case(self):
        assert cos_power_integral(2) == pytest.approx(math.pi / 4.0, rel=1e-15)

    def test_odd_case(self):
        assert cos_power_integral(3) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            cos_power_integral(-1)

    def test_against_quadrature(self):
        # Gauss-Legendre on [0, pi/2] is an oracle independent of the
        # double-factorial product form
        nodes, weights = np.polynomial.legendre.leggauss(96)
        t = 0.5 * (nodes + 1.0) * (math.pi / 2.0)
        w = 0.5 * (math.pi / 2.0) * weights
        for n in range(41):
            oracle = float(np.sum(w * np.cos(t) ** n))
            assert abs(cos_power_integral(n) - oracle) < 1e-12


class TestRatioIntegralSeries:
    def test_all_zero(self):
        assert ratio_integral_series(0.0, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_pure_denominator(self):
        # oracle: closed form 1/sqrt(1 - b^2)
        got = ratio_integral_series(0.0, 0.5, 0.0, 1.0)
        assert rel_err(got, 1.1547005383792515290) < 1e-12

    def test_generic_against_quadrature(self):
        got = ratio_integral_series(0.3, 0.6, 1.0, 2.0)
        res = integrate_periodic(
            lambda th: (1.0 - 0.3 * np.cos(th)) / (1.0 - 0.6 * np.cos(th)) ** 2)
        assert res.converged
        assert rel_err(got, res.value) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ratio_integral_series(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            ratio_integral_series(0.0, 0.0, -0.5, 1.0)

    def test_random_draws_match_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            al, be = rng.uniform(0.0, 4.0, size=2)
            got = ratio_integral_series(a, b, al, be)
            res = integrate_periodic(
                lambda th, a=a, b=b, al=al, be=be:
                (1.0 - a * np.cos(th)) ** al / (1.0 - b * np.cos(th)) ** be)
            assert res.converged
            assert rel_err(got, res.value) < 1e-8


class TestModulusPowerIntegral:
    def test_beta_zero(self):
        for z in (0.0, 0.3 + 0.4j, -0.8j):
            assert modulus_power_integral(z, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_beta_one(self):
        assert rel_err(modulus_power_integral(0.5, 1.0), 1.0 / 0.75) < 1e-12

    def test_beta_three_halves(self):
        # frozen from 30-digit quadrature of |1 - 0.7 e^{i t}|^{-3}
        assert rel_err(modulus_power_integral(0.7, 1.5), 4.3322901483543682952) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            modulus_power_integral(1.0, 1.0)
        with pytest.raises(DomainError):
            modulus_power_integral(0.5, -0.1)

    def test_random_draws_match_quadrature(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = rng.uniform(0.0, 0.9)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            be = rng.uniform(0.0, 3.0)
            z = r * complex(math.cos(phi), math.sin(phi))
            got = modulus_power_integral(z, be)
            res = integrate_periodic(
                lambda th, z=z, be=be: np.abs(1.0 - z * np.exp(1j * th)) ** (-2.0 * be))
            assert res.converged
            assert rel_err(got, res.value) < 1e-9
