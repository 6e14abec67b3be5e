"""Kernel evaluation, Dirichlet solver, derivatives, and residual checks."""

import cmath
import copy
import math
import pickle
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import alphaharmonic.kernel as kernel_module
import alphaharmonic.quadrature as quadrature_module
from alphaharmonic import (BoundaryData, ConvergenceError, DerivativePair,
                           DomainError, QuadratureConfig,
                           alpha_laplacian_residual, c_alpha, derivative_pair,
                           integrate_periodic, poisson_kernel, random_boundary,
                           solve_dirichlet)
from alphaharmonic.kernel import _kernel_rows, disk_point_value
from alphaharmonic.verify import _kernel_config

TIGHT = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)


class TestDiskPoint:
    def test_accepts_interior(self):
        assert disk_point_value(0.6 + 0.3j) == 0.6 + 0.3j

    def test_rejects_boundary_and_exterior(self):
        with pytest.raises(DomainError):
            disk_point_value(1.0)
        with pytest.raises(DomainError):
            disk_point_value(0.8 + 0.7j)

    def test_from_complex_roundtrip(self):
        z = disk_point_value(np.complex128(0.1 - 0.2j))
        assert type(z) is complex and z == 0.1 - 0.2j
        assert abs(z) == pytest.approx(math.hypot(0.1, 0.2))


class TestBoundaryData:
    def test_constant(self):
        bd = BoundaryData([0.7])
        assert bd.degree == 0
        assert bd.sup_norm == pytest.approx(0.7)
        assert bd.evaluate(1.234) == pytest.approx(0.7)

    def test_grid_size_power_of_two(self):
        for d, n in ((0, 4), (1, 8), (3, 16), (8, 64)):
            assert BoundaryData._grid_size(d) == n

    def test_samples_consistent_with_coefficients(self):
        # the sup-norm's grid, summed term by term, gives the same maximum
        bd = BoundaryData(random_boundary(3, 6, 1.0).coefficients)
        n = bd._grid_size(6)
        angles = 2.0 * math.pi * np.arange(n) / n
        assert abs(np.max(np.abs(bd.evaluate(angles))) - bd.sup_norm) < 1e-12

    def test_attributes_cannot_be_rebound(self):
        # a rebound coefficients array used to leave sup_norm describing
        # the old data
        bd = random_boundary(1, 2, 1.0)
        before = solve_dirichlet(0.5, bd, 0.3)
        for name, value in (("coefficients", np.zeros(5, complex)), ("degree", 0),
                            ("sup_norm", 7.0)):
            with pytest.raises(AttributeError):
                setattr(bd, name, value)
            with pytest.raises(AttributeError):
                delattr(bd, name)
        assert solve_dirichlet(0.5, bd, 0.3) == before
        assert not hasattr(bd, "samples")
        for again in (copy.deepcopy(bd), pickle.loads(pickle.dumps(bd))):
            assert np.array_equal(again.coefficients, bd.coefficients)
            assert again.sup_norm == bd.sup_norm and not again.coefficients.flags.writeable

    def test_copies_keep_a_scaled_sup_norm(self):
        # a scaled sup-norm can sit an ulp from a resampled one; a copy
        # carries it rather than sampling again
        for s in range(100):
            bd = random_boundary(s, 5, 0.7)
            if BoundaryData(bd.coefficients).sup_norm != bd.sup_norm:
                break
        else:
            pytest.fail("no scaled sup-norm differs from its resampled value")
        for again in (copy.copy(bd), copy.deepcopy(bd), pickle.loads(pickle.dumps(bd))):
            assert struct.pack("d", again.sup_norm) == struct.pack("d", bd.sup_norm)

    def test_rotation(self):
        # c_k e^{ik phi}, k = -d..d, are the coefficients of f(theta + phi)
        bd = random_boundary(5, 4, 0.8)
        phi = 0.7
        rotated = BoundaryData(bd.coefficients * np.exp(1j * np.arange(-4, 5) * phi))
        theta = np.linspace(0.0, 2.0 * math.pi, 17)
        assert np.allclose(rotated.evaluate(theta), bd.evaluate(theta + phi),
                           atol=1e-13)

    def test_json_roundtrip(self):
        bd = random_boundary(6, 3, 0.5)
        pairs = [[c.real, c.imag] for c in bd.coefficients.tolist()]
        again = BoundaryData.from_json_dict({"degree": 3, "coefficients": pairs})
        assert np.allclose(again.coefficients, bd.coefficients, atol=1e-16)

    def test_json_wrong_count_rejected(self):
        with pytest.raises(DomainError):
            BoundaryData.from_json_dict({"degree": 2, "coefficients": [[1, 0]]})

    @pytest.mark.parametrize("data", [
        [1, [[0, 0], [0, 0], [1, 0]]],
        {"degree": 1.5, "coefficients": [[0, 0], [0, 0], [1, 0]]},
        {"degree": "1", "coefficients": [[0, 0], [0, 0], [1, 0]]},
        {"degree": True, "coefficients": [[0, 0], [0, 0], [1, 0]]},
        {"degree": 1, "coefficients": [[0, 0], ["0", 0], [1, 0]]},
        {"degree": 1, "coefficients": [[0, 0], [0, 0, 0], [1, 0]]},
        {"degree": 1, "coefficients": [[0, 0], 0, [1, 0]]},
        {"degree": 0, "coefficients": 1.0},
        {"degree": 1, "coefficients": [[0, 0], [math.nan, 0], [1, 0]]},
        {"degree": 0, "coefficients": [[0, math.inf]]},
        {"degree": 0, "coefficients": [[10 ** 400, 0]]},
    ])
    def test_json_malformed_rejected(self, data):
        with pytest.raises(DomainError):
            BoundaryData.from_json_dict(data)

    def test_copies_the_caller_array(self):
        c = np.array([1 + 1j, 2, 0.5j])
        bd = BoundaryData(c)
        sup, f0 = bd.sup_norm, solve_dirichlet(0.5, bd, 0.0)
        c[1] = 100
        assert bd.coefficients[1] == 2
        assert bd.sup_norm == sup
        assert solve_dirichlet(0.5, bd, 0.0) == f0

    def test_arrays_are_read_only(self):
        bd = random_boundary(4, 3, 1.0)
        for arr in (bd.coefficients, bd.scaled(0.5).coefficients,
                    copy.deepcopy(bd).coefficients, pickle.loads(pickle.dumps(bd)).coefficients):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("coefficients", [[1.0, 2.0], [[1.0]], [[0.0, 1.0, 0.0]],
                                              [[1.0, 2.0], [3.0]]])
    def test_even_length_or_2d_rejected(self, coefficients):
        with pytest.raises(DomainError, match="1-D array of odd length"):
            BoundaryData(coefficients)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(DomainError):
            BoundaryData([1.0, bad, 0.5])

    @pytest.mark.parametrize("coefficients", [
        [1e308] * 3,  # the grid values' sum overflows
        [complex(1.5e308, 1.5e308)],  # finite grid values, modulus overflows
    ])
    def test_overflowing_samples_rejected(self, coefficients):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                BoundaryData(coefficients)


class TestOnGrid:
    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(degree=st.integers(0, 16), log_n=st.integers(0, 12),
           offset=st.sampled_from([0.0, 0.5]), data_seed=st.integers(0, 2 ** 32))
    def test_matches_evaluate(self, degree, log_n, offset, data_seed):
        # any n, also n < 2d + 1 where frequencies alias onto one bin
        rng = np.random.default_rng(data_seed)
        coeffs = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
        bd = BoundaryData(coeffs)
        n = 1 << log_n
        theta = 2.0 * math.pi * (np.arange(n) + offset) / n
        err = np.max(np.abs(bd._on_grid(n, theta[0]) - bd.evaluate(theta)))
        assert err <= 1e-13 * np.sum(np.abs(coeffs))

    def test_first_node_shift_at_every_quadrature_level(self):
        # verify's integrands sample fstar at a level's nodes from their
        # count and first node; on both node sets of every level
        # `integrate_periodic` visits up to 1024 nodes that is fstar there,
        # and its phase is bit for bit the e^{2pi i k offset / n} of the
        # level's offset
        for degree in (0, 3, 16):
            bd = random_boundary(degree, degree, 1.0)
            ks = np.arange(-degree, degree + 1)
            for n, offset in [(1 << k, offset) for k in range(11) for offset in (0.0, 0.5)]:
                theta = quadrature_module._nodes(n, offset)
                got = bd._on_grid(theta.size, theta[0])
                assert np.max(np.abs(got - bd.evaluate(theta))) <= 1e-12 * (1.0 + bd.sup_norm)
                assert np.array_equal(np.exp((1j * theta[0]) * ks),
                                      np.exp((2j * math.pi * offset / n) * ks))

    def test_samples_are_the_offset_zero_grid(self):
        bd = BoundaryData(random_boundary(11, 7, 0.8).coefficients)
        assert bd.sup_norm == np.max(np.abs(bd._on_grid(bd._grid_size(7), 0.0)))

    def test_scaled_scales_sup_norm(self):
        for s in range(50):
            rng = np.random.default_rng(s)
            d = int(rng.integers(0, 17))
            coeffs = rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1)
            factor = complex(rng.standard_normal(), rng.standard_normal())
            raw = BoundaryData(coeffs)
            got = raw.scaled(factor)
            fresh = BoundaryData(coeffs * factor)
            assert np.array_equal(got.coefficients, fresh.coefficients)
            assert got.sup_norm == abs(factor) * raw.sup_norm
            assert abs(got.sup_norm - fresh.sup_norm) <= 1e-15 * fresh.sup_norm
        assert raw.scaled(-2.0).sup_norm == 2.0 * raw.sup_norm

    def test_scaled_rejects_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                BoundaryData([1.0, 0.5, 1.0]).scaled(1e308)
            with pytest.raises(DomainError, match="finite"):
                BoundaryData([1.0, 0.5, 1.0]).scaled(1e309 * 1j)


class TestKernelValues:
    def test_at_origin(self):
        for a in (-0.5, 0.0, 1.0, 2.0, 5.0):
            assert poisson_kernel(a, 0.0) == pytest.approx(1.0)

    def test_classical_case_real_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
            got = poisson_kernel(0.0, z)
            want = (1.0 - abs(z) ** 2) / abs(1.0 - z) ** 2
            assert abs(got.imag) < 1e-14
            assert got.real == pytest.approx(want, rel=1e-13)
            assert got.real > 0

    def test_real_axis_arithmetic(self):
        assert poisson_kernel(2.0, 0.5) == pytest.approx(6.75, rel=1e-13)

    def test_rejects_exterior(self):
        with pytest.raises(DomainError):
            poisson_kernel(1.0, 1.2)

    def test_real_kernel_values(self):
        # the modulus form c_alpha (1-|z|^2)^(alpha+1) / |1-z|^(alpha+2)
        assert c_alpha(0.0) * abs(poisson_kernel(0.0, 0.3 + 0.2j)) == pytest.approx(
            poisson_kernel(0.0, 0.3 + 0.2j).real, rel=1e-13)
        assert c_alpha(1.5) * abs(poisson_kernel(1.5, 0.0)) == pytest.approx(
            c_alpha(1.5), rel=1e-13)
        assert c_alpha(2.0) * abs(poisson_kernel(2.0, 0.5)) == pytest.approx(3.375, rel=1e-13)

    def test_near_the_unit_circle_against_mpmath(self):
        # within 1e-8 of |z| = 1, where 1.0 - |z|^2 put poisson_kernel 1.1e-4
        # off at the first point and 1.0e-8 off at the second
        rng = np.random.default_rng(23)
        points = [(1.5, 0.3 - 0.9539392014169j), (1.5, 0.6 + 0.79999999j)]
        for _ in range(40):
            rad = 1.0 - 10.0 ** rng.uniform(-12.0, -8.0)
            points.append((float(rng.choice([-0.9, -0.5, 0.0, 1.0, 2.5, 7.0])),
                           rad * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))))
        with mpmath.workdps(40):
            for a, z in points:
                zm = mpmath.mpc(z.real, z.imag)
                one_minus_r2 = 1 - abs(zm) ** 2
                want = one_minus_r2 ** (a + 1) / ((1 - zm) * (1 - mpmath.conj(zm)) ** (a + 1))
                assert abs(poisson_kernel(a, z) - want) < 1e-13 * abs(want), (a, z)
                want = (mpmath.gamma(mpmath.mpf(a) / 2 + 1) ** 2 / mpmath.gamma(a + 1)
                        * one_minus_r2 ** (a + 1) / abs(1 - zm) ** (a + 2))
                got = c_alpha(a) * abs(poisson_kernel(a, z))
                assert abs(got - want) < 1e-13 * want, (a, z)

    def test_real_kernel_is_scaled_modulus(self):
        # |P(z)| = (1-|z|^2)^(alpha+1) / |1-z|^(alpha+2)
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.uniform(-0.9, 4.0)
            z = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
            assert abs(poisson_kernel(a, z)) == pytest.approx(
                (1.0 - abs(z) ** 2) ** (a + 1.0) / abs(1.0 - z) ** (a + 2.0), rel=1e-12)


class TestSolver:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("z", [0.0, 0.3, 0.8j])
    def test_normalization(self, alpha, z):
        assert solve_dirichlet(alpha, BoundaryData([1.0]), z) == pytest.approx(
            1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("z", [0.0, 0.3, 0.8j])
    def test_identity_map(self, alpha, z):
        eik = BoundaryData([0.0, 0.0, 1.0])
        assert solve_dirichlet(alpha, eik, z) == pytest.approx(z, abs=1e-10)

    def test_harmonic_cosine(self):
        cosb = BoundaryData([0.5, 0.0, 0.5])
        got = solve_dirichlet(0.0, cosb, 0.5)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_normalization_grid(self):
        one = BoundaryData([1.0])
        for a in (-0.5, 0.0, 1.0, 2.0, 5.0):
            for r in (0.0, 0.25, 0.5, 0.75, 0.9):
                assert solve_dirichlet(a, one, r) == pytest.approx(1.0, abs=1e-10)

    def test_rotation_equivariance(self):
        fstar = random_boundary(12, 5, 1.0)
        ks = np.arange(-5, 6)
        for alpha in (-0.5, 0.0, 1.7):
            for phi in (0.4, 2.0):
                z = 0.45 + 0.2j
                rotated = BoundaryData(fstar.coefficients * np.exp(1j * ks * phi))
                lhs = solve_dirichlet(alpha, rotated, z)
                rhs = solve_dirichlet(alpha, fstar, z * cmath.exp(1j * phi))
                assert abs(lhs - rhs) < 1e-10

    def test_linearity(self):
        f1 = random_boundary(1, 3, 0.7)
        f2 = random_boundary(2, 4, 0.6)
        both = BoundaryData(np.pad(f1.coefficients, 1) + f2.coefficients)
        z, a = 0.3 - 0.4j, 1.2
        assert abs(solve_dirichlet(a, both, z)
                   - solve_dirichlet(a, f1, z) - solve_dirichlet(a, f2, z)) < 1e-10


def _mp_extension(alpha, coefficients, z):
    """(f, f_z, f_zbar) of the extension at the float z, by mpmath.

    e^{ik theta} extends to z^k and e^{-ik theta} to
    ((alpha+1)_k / k!) F(-alpha, k; k+1; |z|^2) zbar^k, with
    d/dx F(-alpha, k; k+1; x) = -alpha k/(k+1) F(1-alpha, k+1; k+2; x).
    """
    with mpmath.workdps(40):
        d = len(coefficients) // 2
        a = mpmath.mpf(alpha)
        z = mpmath.mpc(z.real, z.imag)
        zb = mpmath.conj(z)
        x = z.real ** 2 + z.imag ** 2
        f = fz = fzb = mpmath.mpc(0)
        for k in range(d + 1):
            c = mpmath.mpc(coefficients[d + k])
            f += c * z ** k
            fz += c * k * z ** (k - 1) if k else 0
        for k in range(1, d + 1):
            c = mpmath.mpc(coefficients[d - k])
            scale = mpmath.rf(a + 1, k) / mpmath.factorial(k)
            hyp = scale * mpmath.hyp2f1(-a, k, k + 1, x)
            dhyp = scale * (-a) * k / (k + 1) * mpmath.hyp2f1(1 - a, k + 1, k + 2, x)
            f += c * hyp * zb ** k
            fz += c * dhyp * zb ** (k + 1)
            fzb += c * (dhyp * z * zb ** k + k * hyp * zb ** (k - 1))
        return complex(f), complex(fz), complex(fzb)


def _spectral_triple(alpha, fstar, z):
    pair = derivative_pair(alpha, fstar, z)
    return solve_dirichlet(alpha, fstar, z), pair.d_z, pair.d_zbar


class TestSpectralRoute:
    @pytest.mark.parametrize("alpha", [-0.9999, -0.999, -0.99, -0.95, -0.5, 0.0, 0.5, 1.0,
                                       2.0, 2.5, 5.0, 10.0, 20.5])
    def test_matches_mpmath(self, alpha):
        rng = np.random.default_rng(int(alpha * 100) + 400)
        for r in (0.0, 0.3, 0.7, 0.9, 0.97, 0.99, 0.999):
            for degree in (int(rng.integers(0, 9)), int(rng.integers(9, 33)), 32):
                fstar = random_boundary(int(rng.integers(0, 2 ** 62)), degree,
                                        float(rng.uniform(0.2, 1.0)))
                z = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                got = _spectral_triple(alpha, fstar, z)
                want = _mp_extension(alpha, fstar.coefficients, z)
                for label, g, w in zip(("f", "f_z", "f_zbar"), got, want):
                    assert abs(g - w) <= 1e-12 * (1.0 + abs(w)), \
                        f"r={r} degree={degree} {label}: {g!r} vs {w!r}"

    def test_integer_alpha_does_not_raise(self):
        # F(-5, k; k+1; 0.7225) is an alternating polynomial that hyp2f1
        # refuses for k = 5..8 (its terms cancel beyond rel_tol)
        fstar = random_boundary(11, 8, 1.0)
        for phi in (0.0, 1.0, 2.5):
            z = 0.85 * cmath.exp(1j * phi)
            got = _spectral_triple(5.0, fstar, z)
            want = _mp_extension(5.0, fstar.coefficients, z)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * (1.0 + abs(w))

    @pytest.mark.parametrize("alpha", [-0.95, 0.5, 1.0, 5.0, 20.5])
    def test_near_boundary_meets_tolerance_or_raises(self, alpha):
        rng = np.random.default_rng(77)
        for degree in (1, 8, 32):
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)), degree, 1.0)
            z = 0.99999 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            try:
                got = _spectral_triple(alpha, fstar, z)
            except ConvergenceError:
                continue
            want = _mp_extension(alpha, fstar.coefficients, z)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * (1.0 + abs(w))

    def test_alpha_1000_matches_mpmath(self):
        # (1 - |z|^2)^(alpha+1) = 0.36^1001 underflows, but no route forms
        # it: the seed A_21 takes its closed form
        fstar = random_boundary(3, 20, 1.0)
        got = _spectral_triple(1000.0, fstar, 0.8)
        with mpmath.workdps(60):
            want = _mp_extension(1000.0, fstar.coefficients, 0.8 + 0j)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * (1.0 + abs(w))
        assert abs(got[0] - want[0]) <= 1e-15 * abs(want[0])

    def test_overflowing_value_raises(self):
        # finite data and seed, but the sum of the modes leaves the float range
        with pytest.raises(ConvergenceError, match="overflows"):
            solve_dirichlet(3.0, BoundaryData(np.full(17, 5e306)), 0.5)

    def test_runs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the production route must not integrate")

        assert not hasattr(kernel_module, "integrate_periodic")
        monkeypatch.setattr(quadrature_module, "integrate_periodic", refuse)
        fstar = random_boundary(8, 6, 1.0)
        z = 0.6 - 0.5j
        assert isinstance(solve_dirichlet(1.5, fstar, z), complex)
        assert isinstance(derivative_pair(1.5, fstar, z), DerivativePair)
        assert alpha_laplacian_residual(1.5, fstar, z, 1e-3) >= 0.0


def _row_quadrature(a, fstar, z, rows, config):
    """The circle means of the chosen `_kernel_rows` rows times fstar, the
    rows stacked into one quadrature when ``rows`` has more than one."""
    def integrand(theta):
        got = _kernel_rows(a, z, theta)
        return np.stack([got[i] for i in rows]) * fstar.evaluate(theta)

    if len(rows) == 1:
        return integrate_periodic(lambda theta: integrand(theta)[0], config)
    return integrate_periodic(integrand, config)


class TestDerivativeQuadrature:
    def test_matches_derivative_pair(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)),
                                    int(rng.integers(0, 9)), 1.0)
            a = float(rng.choice([-0.9, 0.0, 1.0, 3.5]))
            z = float(rng.uniform(0.0, 0.85)) * cmath.exp(1j * rng.uniform(0.0, 6.0))
            q_dz = _row_quadrature(a, fstar, z, (1,), TIGHT)
            q_dzbar = _row_quadrature(a, fstar, z, (2,), TIGHT)
            pair = derivative_pair(a, fstar, z)
            assert abs(q_dz.unwrap("d/dz") - pair.d_z) < 1e-10
            assert abs(q_dzbar.unwrap("d/dzbar") - pair.d_zbar) < 1e-10


class TestKernelPass:
    # the three rows stacked, as DIRICHLET_SPECTRAL integrates them, against
    # each row alone; None is that check's own configuration.  A row whose
    # mean vanishes converges only at an absolute tolerance above its
    # roundoff, hence abs_tol = 1e-11 throughout
    @pytest.mark.parametrize("config", [None, QuadratureConfig(abs_tol=1e-11),
                                        QuadratureConfig(rel_tol=1e-13, abs_tol=1e-11)])
    def test_rows_match_the_public_quadratures(self, config):
        rng = np.random.default_rng(47)
        for _ in range(25):
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)),
                                    int(rng.integers(0, 9)), float(rng.uniform(0.2, 1.0)))
            a = float(rng.choice([-0.9, -0.1, 0.0, 1.0, 3.5, 5.0]))
            z = float(rng.choice([0.1, 0.5, 0.85, 0.95])) * cmath.exp(1j * rng.uniform(0.0, 6.3))
            cfg = config or _kernel_config(a, fstar.degree, abs(z))
            stacked = _row_quadrature(a, fstar, z, (0, 1, 2), cfg)
            separate = [_row_quadrature(a, fstar, z, (i,), cfg) for i in range(3)]
            assert stacked.converged and all(q.converged for q in separate)
            assert stacked.nodes_used == max(q.nodes_used for q in separate)
            for value, q in zip(stacked.value, separate):
                assert abs(value - q.value) <= q.error_estimate + 1e-15 * abs(q.value)


def _kernel_derivatives(a, z, theta):
    """(dP/dz, dP/dzbar) at z e^{-i theta}, the derivative rows of
    `_kernel_rows` that DIRICHLET_SPECTRAL integrates."""
    _, d_z, d_zbar = _kernel_rows(a, complex(z), np.array([theta]))
    return complex(d_z[0]), complex(d_zbar[0])


class TestKernelDerivatives:
    def test_origin_moduli(self):
        for a in (-0.5, 0.0, 1.0, 3.0):
            d_z, d_zbar = _kernel_derivatives(a, 0.0, 1.1)
            assert abs(d_zbar) == pytest.approx(1.0 + a, rel=1e-13)
            assert abs(d_z) == pytest.approx(1.0, rel=1e-13)

    def test_classical_value(self):
        _, d_zbar = _kernel_derivatives(0.0, 0.5, 0.0)
        assert abs(d_zbar) == pytest.approx(4.0, rel=1e-13)

    def test_modulus_contracts(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = rng.uniform(-0.9, 4.0)
            r = rng.uniform(0.0, 0.9)
            phi, theta = rng.uniform(0.0, 2.0 * math.pi, size=2)
            z = r * cmath.exp(1j * phi)
            d_z, d_zbar = _kernel_derivatives(a, z, theta)
            xi = z * cmath.exp(-1j * theta)
            want_zbar = (1.0 + a) * (1.0 - r * r) ** a / abs(1.0 - xi) ** (a + 2.0)
            want_z = ((1.0 - r * r) ** a
                      * abs((1.0 + a) * (r * r - xi) + 1.0 - r * r)
                      / abs(1.0 - xi) ** (a + 3.0))
            assert abs(d_zbar) == pytest.approx(want_zbar, rel=1e-12)
            assert abs(d_z) == pytest.approx(want_z, rel=1e-12)

    def test_finite_difference_of_kernel(self):
        a, theta = 1.3, 0.8
        z = 0.35 + 0.15j
        h = 1e-6
        d_z, d_zbar = _kernel_derivatives(a, z, theta)

        def kernel_at(w):
            return poisson_kernel(a, w * cmath.exp(-1j * theta))

        fx = (kernel_at(z + h) - kernel_at(z - h)) / (2.0 * h)
        fy = (kernel_at(z + 1j * h) - kernel_at(z - 1j * h)) / (2.0 * h)
        assert abs(0.5 * (fx - 1j * fy) - d_z) < 1e-8
        assert abs(0.5 * (fx + 1j * fy) - d_zbar) < 1e-8


class TestDerivativePair:
    def test_constant_data(self):
        one = BoundaryData([1.0])
        pair = derivative_pair(1.5, one, 0.4 + 0.1j)
        assert abs(pair.d_z) < 1e-12
        assert abs(pair.d_zbar) < 1e-12

    def test_identity_map(self):
        eik = BoundaryData([0.0, 0.0, 1.0])
        pair = derivative_pair(2.0, eik, 0.3 - 0.2j)
        assert pair.d_z == pytest.approx(1.0, abs=1e-11)
        assert abs(pair.d_zbar) < 1e-11
        assert pair.norm == pytest.approx(1.0, abs=1e-10)

    def test_cosine_at_origin(self):
        cosb = BoundaryData([0.5, 0.0, 0.5])
        pair = derivative_pair(0.0, cosb, 0.0)
        assert pair.d_z == pytest.approx(0.5, abs=1e-12)
        assert pair.d_zbar == pytest.approx(0.5, abs=1e-12)
        assert pair.norm == pytest.approx(1.0, abs=1e-11)

    def test_norm_invariant(self):
        pair = DerivativePair(1.0 + 1j, 0.5)
        assert pair.norm == abs(1.0 + 1j) + 0.5

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        for trial in range(25):
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)),
                                    int(rng.integers(0, 9)),
                                    float(rng.uniform(0.2, 1.0)))
            a = float(rng.choice([-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0]))
            r = float(rng.uniform(0.0, 0.8))
            z = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            pair = derivative_pair(a, fstar, z)

            def f(w):  # the kernel integral at w, by quadrature
                def integrand(theta):
                    return _kernel_rows(a, w, theta)[0] * fstar.evaluate(theta)

                return integrate_periodic(integrand, TIGHT).unwrap("Dirichlet quadrature")

            fx = (f(z + h) - f(z - h)) / (2.0 * h)
            fy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
            assert abs(pair.d_z - 0.5 * (fx - 1j * fy)) < 1e-6
            assert abs(pair.d_zbar - 0.5 * (fx + 1j * fy)) < 1e-6


class TestLaplacianResidual:
    def test_constant_data(self):
        one = BoundaryData([1.0])
        assert alpha_laplacian_residual(1.5, one, 0.3 + 0.1j, 1e-3) < 1e-6

    def test_classical_harmonic(self):
        fstar = random_boundary(77, 4, 1.0)
        res = alpha_laplacian_residual(0.0, fstar, 0.4 + 0.2j, 1e-3)
        assert res < 1e-4 * fstar.sup_norm

    def test_weighted_case(self):
        fstar = BoundaryData([0.3, 0.0, 0.0, 0.0, 1.0])  # e^{i t} + 0.3 e^{-2 i t}
        res = alpha_laplacian_residual(1.5, fstar, 0.3, 1e-3)
        assert res < 1e-3 * fstar.sup_norm

    def test_second_order_decay(self):
        fstar = random_boundary(5, 5, 1.0)
        res = [alpha_laplacian_residual(0.8, fstar, 0.35 + 0.15j, h)
               for h in (4e-3, 2e-3, 1e-3)]
        order1 = math.log2(res[0] / res[1])
        order2 = math.log2(res[1] / res[2])
        assert order1 > 1.8
        assert order2 > 1.8

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_non_positive_step_rejected(self, h):
        with pytest.raises(DomainError, match="^h must be"):
            alpha_laplacian_residual(1.0, BoundaryData([1.0]), 0.3, h)

    def test_stencil_leaving_disk_rejected(self):
        one = BoundaryData([1.0])
        with pytest.raises(DomainError):
            alpha_laplacian_residual(1.0, one, 0.995, 4e-3)
