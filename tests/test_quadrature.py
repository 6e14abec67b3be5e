"""Periodic quadrature engine and trigonometric-integral identities."""

import math

import mpmath as mp
import numpy as np
import pytest

import alphaharmonic.quadrature as quadrature_module
from alphaharmonic import (ConvergenceError, DomainError, IntegrandError,
                           QuadratureConfig, cos_power_integral, integrate_periodic,
                           modulus_power_integral, ratio_integral_series)


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

    @pytest.mark.parametrize("kwargs", [{"rel_tol": 0.0}, {"abs_tol": -1e-14},
                                        {"rel_tol": math.nan}, {"abs_tol": math.inf}])
    def test_rejects_non_positive_or_non_finite_tolerance(self, kwargs):
        with pytest.raises(DomainError, match=f"^{next(iter(kwargs))} must be"):
            QuadratureConfig(**kwargs)


class TestIntegratePeriodic:
    def test_constant(self):
        res = integrate_periodic(lambda th: np.ones_like(th))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.nodes_used <= 2 * QuadratureConfig().n_initial

    def test_scalar_constant_is_broadcast(self):
        calls = []

        def f(th):
            calls.append(th.size)
            return 2.5

        res = integrate_periodic(f)
        assert (res.value, res.converged, res.nodes_used, calls) == (2.5, True, 512, [512])

    @pytest.mark.parametrize("f, shape", [
        (lambda th: np.array([[1.0], [2.0]]), (2, 1)),
        (lambda th: np.ones(7), (7,)),
        (lambda th: np.ones((2, 3, th.size)), (2, 3, 512)),
    ], ids=["column", "wrong-length", "three-axes"])
    def test_malformed_integrand_raises(self, f, shape):
        # numpy's broadcast error ("input operand has more dimensions than
        # allowed by the axis remapping") used to escape
        with pytest.raises(DomainError, match="^f must return ") as info:
            integrate_periodic(f)
        assert str(info.value).endswith(f"got shape {shape}")

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
        # a level's node count and first node give its offset, 0 or 1/2,
        # and with it every node: integrands sample a trig polynomial there
        seen = []

        def f(th):
            seen.append(th.copy())
            return 1.0 + th  # not periodic: runs to n_max

        integrate_periodic(f, QuadratureConfig(n_initial=1, n_max=1024))
        assert len(seen) == 10  # the first call samples levels 1 and 2 together
        for th in seen:
            n = th.size
            offset = th[0] * n / (2.0 * math.pi)
            assert offset in (0.0, 0.5)
            assert np.array_equal(th, 2.0 * math.pi * (np.arange(n) + offset) / n)


def _level_by_level(f, cfg):
    """The node-doubling rule with one integrand call per level: the
    reference the first call's level pair must reproduce bit for bit."""
    def level(n, offset):
        return np.asarray(f(2.0 * math.pi * (np.arange(n) + offset) / n)).sum(axis=-1)

    n = cfg.n_initial
    total = level(n, 0.0)
    prev = total / n
    err = np.full(np.shape(prev), np.inf)
    while n < cfg.n_max:
        total = total + level(n, 0.5)
        n *= 2
        mean = total / n
        err = np.abs(mean - prev)
        if (err <= np.maximum(cfg.rel_tol * np.abs(mean), cfg.abs_tol)).all():
            return mean, err, n, True
        prev = mean
    return prev, err, n, False


class TestFirstLevelPair:
    """The first call samples the first two levels, 2 n_initial nodes."""

    @staticmethod
    def integrands():
        z = 0.7 * np.exp(0.4j)

        def modulus(th):  # as MODULUS_POWER_MEAN
            return np.abs(1.0 - z * np.exp(1j * th)) ** -2.5

        def ratio(th):  # as COSINE_MEAN_SERIES
            return (1.0 - 0.6 * np.cos(th)) ** 1.5 / (1.0 + 0.9 * np.cos(th)) ** 2.2

        def kink(th):
            return np.abs(np.cos(th))

        return {"modulus": modulus, "ratio": ratio, "kink": kink,
                "complex": lambda th: np.exp(1j * th) / (1.0 - z * np.exp(-1j * th)),
                "stacked": lambda th: np.stack([modulus(th), ratio(th), kink(th)])}

    @pytest.mark.parametrize("config", [
        QuadratureConfig(), QuadratureConfig(n_initial=4, n_max=64),
        QuadratureConfig(n_initial=1, n_max=1024), QuadratureConfig(n_initial=64, abs_tol=1e-11),
        QuadratureConfig(n_initial=16, n_max=2**16, rel_tol=1e-14)])
    def test_elementwise_integrands_match_level_by_level(self, config):
        for name, f in self.integrands().items():
            mean, err, n, converged = _level_by_level(f, config)
            res = integrate_periodic(f, config)
            assert (res.nodes_used, res.converged) == (n, converged), name
            assert np.array_equal(np.array(res.value), mean), name
            assert np.array_equal(np.array(res.error_estimate), err), name

    def test_converged_first_pair_makes_one_call(self):
        sizes = []

        def f(th):
            sizes.append(th.size)
            return np.cos(th) ** 2

        res = integrate_periodic(f, QuadratureConfig(n_initial=64))
        assert res.converged and res.nodes_used == 128
        assert sizes == [128]

    def test_n_initial_equal_to_n_max_evaluates_n_nodes(self):
        sizes = []

        def f(th):
            sizes.append(th.size)
            return 1.0 + th

        res = integrate_periodic(f, QuadratureConfig(n_initial=8, n_max=8))
        assert sizes == [8]
        assert (res.nodes_used, res.converged) == (8, False)
        assert res.value == pytest.approx(1.0 + math.pi * 7.0 / 8.0, rel=1e-15)

    def test_midpoint_non_finite_value_raises_at_its_angle(self):
        # the bad node is a first-level midpoint, sampled by the first call
        def f(th):
            return np.where(np.abs(th - 3.0 * math.pi / 4.0) < 1e-9, np.nan, 1.0)

        with pytest.raises(IntegrandError) as info:
            integrate_periodic(f, QuadratureConfig(n_initial=4, n_max=64))
        assert info.value.theta == pytest.approx(3.0 * math.pi / 4.0, rel=1e-15)

    def test_finite_values_summing_past_the_float_range_do_not_raise(self):
        # the values are scanned only when a level's sum is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            res = integrate_periodic(lambda th: np.full(th.shape, 1e308),
                                     QuadratureConfig(n_initial=4, n_max=16))
        assert res.value == math.inf and not res.converged


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

    def test_starved_stacked_result_names_its_largest_row_error(self):
        res = integrate_periodic(lambda th: np.stack([np.ones_like(th), 1.0 + th]),
                                 QuadratureConfig(n_initial=4, n_max=16))
        assert not res.converged and res.error_estimate[0] == 0.0
        with pytest.raises(ConvergenceError, match=r"x did not converge") as info:
            res.unwrap("x")
        exc = info.value
        assert f"err={res.error_estimate[1]:.3e}" in str(exc)
        assert exc.partial == res.value
        assert exc.error_estimate == res.error_estimate
        assert exc.iterations == 16


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


def _ratio_draws(seed=2026, per_rho=15):
    """Draws (a, b, alpha, beta) with max(|a|, |b|) = rho for each rho."""
    rng = np.random.default_rng(seed)
    for rho in (0.5, 0.9, 0.95, 0.99):
        for _ in range(per_rho):
            other = float(rng.uniform(-rho, rho))
            top = rho if rng.uniform() < 0.5 else -rho
            a, b = (top, other) if rng.uniform() < 0.5 else (other, top)
            yield (a, b, *(float(v) for v in rng.uniform(0.0, 4.0, size=2)))


def _mp_ratio_mean(a, b, al, be):
    """The circle mean at 18 digits, by mpmath.quad on [0, pi] split toward
    the peaks of the integrand at 0 and pi (2e-18 off a 30-digit quadrature
    on eight pieces over `_ratio_draws`)."""
    with mp.workdps(18):
        cuts = [0, 0.03, 0.3, 1]
        points = cuts + [mp.pi - c for c in reversed(cuts)]
        return mp.quad(lambda t: (1 - a * mp.cos(t)) ** al / (1 - b * mp.cos(t)) ** be,
                       points) / mp.pi


class TestRatioSeriesSizing:
    def test_against_mpmath(self):
        # rho = max(|a|, |b|) in {0.5, 0.9, 0.95, 0.99}, alpha and beta in
        # [0, 4]: measured 7.4e-14 worst (the convolution's rounding where a
        # is near b and both near 1), against 6.2e-14 when the truncation
        # doubled from 64 outer terms
        worst = 0.0
        for a, b, al, be in _ratio_draws():
            worst = max(worst, rel_err(ratio_integral_series(a, b, al, be),
                                       _mp_ratio_mean(a, b, al, be)))
        assert worst < 1e-13

    def test_one_convolution_when_sized(self, monkeypatch):
        sizes = []
        outer = quadrature_module._ratio_outer_terms

        def counting(*args):
            sizes.append(args[-1])
            return outer(*args)

        monkeypatch.setattr(quadrature_module, "_ratio_outer_terms", counting)
        for a, b, al, be in _ratio_draws(per_rho=5):
            sizes.clear()
            ratio_integral_series(a, b, al, be)
            rho = max(abs(a), abs(b))
            assert sizes == [quadrature_module._ratio_outer_count(rho, max(al, be))]

    def test_doubling_fallback(self, monkeypatch):
        # a size far too small must double until the stopping test passes
        sizes = []
        outer = quadrature_module._ratio_outer_terms

        def counting(*args):
            sizes.append(args[-1])
            return outer(*args)

        monkeypatch.setattr(quadrature_module, "_ratio_outer_terms", counting)
        monkeypatch.setattr(quadrature_module, "_ratio_outer_count", lambda rho, power: 8)
        a, b, al, be = 0.3, -0.92, 2.5, 1.7
        got = ratio_integral_series(a, b, al, be)
        assert sizes[:3] == [8, 16, 32] and len(sizes) > 3
        assert rel_err(got, _mp_ratio_mean(a, b, al, be)) < 1e-13

    def test_size_grows_with_rho_and_power(self):
        count = quadrature_module._ratio_outer_count
        assert count(0.0, 3.0) == count(1e-300, 0.0) == 4
        sizes = [count(rho, 0.0) for rho in (0.5, 0.9, 0.95, 0.99)]
        assert sizes == sorted(sizes)
        assert count(0.95, 4.0) > count(0.95, 0.0)
        # the tail bound holds at the size: rho^(2n) n^power / (1 - rho^2)
        for rho, power in ((0.5, 4.0), (0.95, 2.0), (0.99, 4.0)):
            n = count(rho, power)
            assert rho ** (2 * n) * n ** power / (1.0 - rho * rho) <= 2.0 ** -59


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

    def test_value_beyond_float_range_raises(self):
        # (1 - |z|^2)^(1 - 2 beta) alone overflows here: OverflowError
        # escaped before
        with pytest.raises(ConvergenceError, match="float range"):
            modulus_power_integral(0.99, 300.0)

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
