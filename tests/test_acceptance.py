"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS/FAIL line (run with -s to see them)."""

import cmath
import math
import time

import numpy as np
import pytest

from alphaharmonic import (QuadratureConfig, c_alpha,
                           alpha_laplacian_residual, derivative_pair,
                           hyp2f1, integrate_periodic, l1_mean_kernel,
                           modulus_power_integral, random_boundary,
                           ratio_integral_series, solve_dirichlet)
from alphaharmonic.cli import main as cli_main
from alphaharmonic.kernel import BoundaryData, _kernel_rows
from alphaharmonic.verify import (_euler_transform_eval,
                                  _quadratic_transform_eval, inconclusive_rate,
                                  total_violations)

TIGHT = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)


class _Criterion:
    """Prints the PASS/FAIL line even when the body raises."""

    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f} s)")
        return False


def test_criterion_01_figure_reproduction(tmp_path, capsys):
    with _Criterion("criterion 1: bound-comparison table at r = 0.99"):
        dest = tmp_path / "figure1.csv"
        t0 = time.perf_counter()
        code = cli_main(["figure1", "--out", str(dest)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "alpha,M,M2"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert len(rows) == 80
        for a, m, m2 in rows:
            assert m <= m2, f"ordering fails at alpha={a}"
        want = 4.0 / math.pi * math.atan(0.99)
        zero_rows = [(m, m2) for a, m, m2 in rows if a == 0.0]
        assert len(zero_rows) == 1
        m, m2 = zero_rows[0]
        assert abs(m - want) <= 1e-10
        assert abs(m2 - want) <= 1e-10
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_gauss_limit_constant():
    with _Criterion("criterion 2: hypergeometric limit toward 1/c_alpha"):
        for alpha in (-0.5, 0.5, 1.0, 2.0, 5.0):
            inv_c = 1.0 / c_alpha(alpha)
            gaps = []
            for k in range(2, 6):
                x = 1.0 - 10.0 ** (-k)
                f = hyp2f1((-alpha / 2.0, -alpha / 2.0, 1.0), x)
                gaps.append(abs(inv_c - f) / abs(inv_c))
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])), \
                f"gap not decreasing for alpha={alpha}: {gaps}"
            assert gaps[-1] <= 5e-2
        # terminating case is an exact polynomial
        for x in (0.5, 0.99, 1.0 - 1e-5):
            assert hyp2f1((-1.0, -1.0, 1.0), x) == 1.0 + x
        assert 1.0 / c_alpha(2.0) == pytest.approx(2.0, rel=1e-15)


def test_criterion_03_trig_integral_identities():
    with _Criterion("criterion 3: series and modulus-power integral identities"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for draw in range(200):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            al, be = rng.uniform(0.0, 4.0, size=2)
            series = ratio_integral_series(a, b, al, be)
            res = integrate_periodic(
                lambda th: (1.0 - a * np.cos(th)) ** al / (1.0 - b * np.cos(th)) ** be)
            assert res.converged
            rel = abs(series - res.value) / abs(res.value)
            assert rel <= 1e-8, f"draw {draw}: rel={rel:.2e}"
        for draw in range(200):
            r = rng.uniform(0.0, 0.9)
            be = rng.uniform(0.0, 3.0)
            z = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            closed = modulus_power_integral(z, be)
            res = integrate_periodic(
                lambda th: np.abs(1.0 - z * np.exp(1j * th)) ** (-2.0 * be))
            assert res.converged
            rel = abs(closed - res.value) / abs(res.value)
            assert rel <= 1e-8, f"draw {draw}: rel={rel:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_04_solver_exactness():
    with _Criterion("criterion 4: solver reproduces exact extensions"):
        one = BoundaryData([1.0])
        eik = BoundaryData([0.0, 0.0, 1.0])
        cosb = BoundaryData([0.5, 0.0, 0.5])
        combos = [(a, z) for a in (-0.5, 0.0, 1.0, 2.0, 5.0)
                  for z in (0.12, 0.45 + 0.3j, -0.2 + 0.75j)]
        assert len(combos) == 15
        for a, z in combos:
            assert abs(solve_dirichlet(a, one, z) - 1.0) <= 1e-10
            assert abs(solve_dirichlet(a, eik, z) - z) <= 1e-10
        for _, z in combos:
            assert abs(solve_dirichlet(0.0, cosb, z) - complex(z).real) <= 1e-10


def test_criterion_05_inequality_suites(criterion5_reports):
    with _Criterion("criterion 5: zero violations across all suites, seeds 0-9"):
        by_seed, elapsed = criterion5_reports
        all_reports = [rep for reports in by_seed.values() for rep in reports]
        per_theorem = {}
        for rep in all_reports:
            agg = per_theorem.setdefault(rep.theorem_id,
                                         {"checked": 0, "viol": 0, "info": rep.informational})
            agg["checked"] += rep.n_checked
            agg["viol"] += rep.n_violations
        for tid, agg in sorted(per_theorem.items()):
            tag = " (informational)" if agg["info"] else ""
            print(f"    {tid}: checked={agg['checked']} violations={agg['viol']}{tag}")
        required = ("CENTER_M", "CENTER_M2", "CENTER_M_PRIME", "SUP_2F1",
                    "DERIV_SP_2F1", "DERIV_SP_LIMIT", "DERIV_LC", "DERIV_COLONNA")
        for tid in required:
            assert per_theorem[tid]["viol"] == 0, f"violations in {tid}"
            assert per_theorem[tid]["checked"] > 0
        assert per_theorem["CENTER_M"]["checked"] == 10_000
        assert total_violations(all_reports) == 0
        assert inconclusive_rate(all_reports) < 0.01
        assert elapsed < 600.0, f"took {elapsed:.2f} s"


def test_criterion_06_derivative_correctness():
    with _Criterion("criterion 6: analytic derivatives match finite differences"):
        rng = np.random.default_rng(606)
        h = 1e-5
        worst = 0.0
        for trial in range(100):
            degree = int(rng.integers(0, 9))
            target = float(rng.uniform(0.2, 1.0))
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)), degree, target)
            alpha = float(rng.choice([-0.9, -0.5, -0.1, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0]))
            r = float(rng.uniform(0.0, 0.8))
            z = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            pair = derivative_pair(alpha, fstar, z)

            def f(w):  # the kernel integral at w, by quadrature
                def integrand(theta):
                    return _kernel_rows(alpha, w, theta)[0] * fstar.evaluate(theta)

                return integrate_periodic(integrand, TIGHT).unwrap("Dirichlet quadrature")

            fx = (f(z + h) - f(z - h)) / (2.0 * h)
            fy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
            err_z = abs(pair.d_z - 0.5 * (fx - 1j * fy))
            err_zbar = abs(pair.d_zbar - 0.5 * (fx + 1j * fy))
            worst = max(worst, err_z, err_zbar)
            assert err_z <= 1e-6, f"trial {trial}: d/dz error {err_z:.2e}"
            assert err_zbar <= 1e-6, f"trial {trial}: d/dzbar error {err_zbar:.2e}"
        print(f"    worst derivative error: {worst:.2e}")


def test_criterion_07_laplacian_residual_order():
    with _Criterion("criterion 7: weighted-Laplacian residual decays at order >= 1.8"):
        rng = np.random.default_rng(707)
        steps = (4e-3, 2e-3, 1e-3)
        for trial in range(20):
            # the inner weighted derivative is an anti-holomorphic polynomial
            # of degree (data degree - 1); degree >= 4 keeps its third
            # derivative away from zero so the h^2 decay is observable
            degree = int(rng.integers(4, 9))
            fstar = random_boundary(int(rng.integers(0, 2 ** 62)), degree, 1.0)
            alpha = float(rng.choice([-0.9, -0.5, 0.0, 0.8, 1.5, 3.0, 5.0]))
            r = float(rng.uniform(0.0, 0.5))
            z = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            res = [alpha_laplacian_residual(alpha, fstar, z, h) for h in steps]
            # least-squares slope over the three log2-spaced points
            order = 0.5 * math.log2(res[0] / res[2])
            assert order >= 1.8, \
                f"trial {trial}: order {order:.3f}, residuals {res}"


def test_criterion_08_kernel_mean_bound():
    with _Criterion("criterion 8: kernel L1 means bounded by 1/c_alpha"):
        for alpha in (-0.5, 1.0, 2.0, 5.0):
            cap = 1.0 / c_alpha(alpha)
            vals = [l1_mean_kernel(alpha, r) for r in (0.5, 0.9, 0.99, 0.999)]
            assert all(v <= cap + 1e-9 for v in vals)
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
            assert abs(vals[-1] - cap) / cap <= 1e-2, \
                f"alpha={alpha}: rel gap {(cap - vals[-1]) / cap:.3e}"


def test_criterion_09_reciprocal_constant_refinement():
    with _Criterion("criterion 9: 1/c_alpha below 2^alpha plus duplication identity"):
        for alpha in np.linspace(0.12, 6.0, 50):
            assert 1.0 / c_alpha(alpha) < 2.0 ** alpha
        for alpha in np.linspace(-0.99, 10.0, 200):
            lhs = 1.0 / c_alpha(alpha)
            rhs = (2.0 ** alpha * math.gamma(0.5 + alpha / 2.0)
                   / (math.sqrt(math.pi) * math.gamma(1.0 + alpha / 2.0)))
            assert abs(lhs - rhs) / abs(rhs) <= 1e-12


def test_criterion_10_transform_identities():
    with _Criterion("criterion 10: transform identities against the raw series"):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            c = rng.uniform(0.3, 3.0)
            x = rng.uniform(0.0, 0.95)
            lhs = hyp2f1((a, b, c), x)
            rhs = _euler_transform_eval((a, b, c), x)
            assert abs(lhs - rhs) / max(abs(lhs), 1e-12) <= 1e-10
        for _ in range(100):
            a = rng.uniform(-1.5, 1.5)
            c = rng.uniform(0.4, 3.0)
            x = rng.uniform(0.0, 0.95)
            lhs = hyp2f1((a, a + 0.5, c), x)
            rhs = _quadratic_transform_eval(a, c, x)
            assert abs(lhs - rhs) / max(abs(lhs), 1e-12) <= 1e-10
