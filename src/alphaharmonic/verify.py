"""Empirical certification harness for the inequality and identity suites.

Every suite draws seeded random data and records the worst margin of a bound (or
second route) over a quantity; the inequalities are proven, so a violation is a bug.

One runner, `_tally`, counts every trial of every suite.  A trial is
inconclusive for an id, not checked, when its margin is NaN, and for
every id it checks when its quadrature or series raises ConvergenceError
or IntegrandError.  An id a trial leaves out is not applicable to it:
CENTER_M_PRIME for alpha < 0, DERIV_COLONNA for alpha != 0.  A violation
is a margin below -slack in the inequality and machinery suites, at most
0 for the strict MOEBIUS_CONTRACTION, and below 0 in the identity suite,
whose margins carry their own tolerance.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from ._memo import LastCall
from .errors import ConvergenceError, DomainError, IntegrandError
from .kernel import (BoundaryData, _boundary, _kernel_rows, derivative_pair,
                     solve_dirichlet)
from .quadrature import (QuadratureConfig, cos_power_integral, integrate_periodic,
                         modulus_power_integral, ratio_integral_series)
from .specfun import (_count, _is_real, _lgamma_slope, _raw_series, _series_sum, alpha_value,
                      c_alpha, hyp2f1, hyp2f1_detailed)

__all__ = [
    "TrialSpec",
    "TrialReport",
    "ViolationDetail",
    "SUITE_NAMES",
    "random_boundary",
    "thm_a_constant",
    "check_schwarz",
    "check_schwarz_pick",
    "check_proof_machinery",
    "check_identities",
    "figure1_data",
    "default_figure_alphas",
    "run_suite",
    "total_violations",
    "inconclusive_rate",
]

# Suite name -> name of its check function.  run_suite looks the function
# up at call time, so a rebound module attribute is the one called
# (perfbench/tracer.py times each suite that way).
_SUITES = {
    "schwarz": "check_schwarz",
    "schwarz-pick": "check_schwarz_pick",
    "identities": "check_identities",
    "machinery": "check_proof_machinery",
}
SUITE_NAMES = tuple(_SUITES)

_LAST_TRIALS = LastCall()

_DEFAULT_ALPHAS = (-0.9, -0.5, -0.1, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0)
_DEFAULT_RADII = (0.1, 0.3, 0.5, 0.7, 0.85)
# Boundary data in the Schwarz and DIRICHLET_SPECTRAL trials has degree 0 to this.
_MAX_DEGREE = 8

# DIRICHLET_SPECTRAL's kernel integrals are analytic, and their trapezoid
# error falls like |z|^(n - d) n^(max(alpha, 0) + 2) at n nodes, d the
# degree (Trefethen and Weideman, SIAM Review 56(3), 2014), so the level at
# which two levels agree is known before the first call: the quadrature
# starts at the least n of 64, ..., 1024 that brings it to 1e-12
# (`_kernel_config`), and the first call, which samples n and 2n nodes,
# converges.  The abs_tol is a hundredth of the check's 1e-9, so a row
# converges only when it can decide the check; where float64 roundoff in
# the kernel exceeds that (large alpha near the boundary) the doubling goes
# on past 1024 and the trial is inconclusive.
_KERNEL_CONFIGS = tuple(QuadratureConfig(n_initial=n, abs_tol=1e-11)
                        for n in (64, 128, 256, 512, 1024))
_LOG_KERNEL_TOL = math.log(1e-12)


@dataclass(frozen=True)
class TrialSpec:
    seed: int = 0
    n_trials: int = 100
    alpha_set: tuple = _DEFAULT_ALPHAS
    radius_set: tuple = _DEFAULT_RADII
    slack: float = 1e-9

    def __post_init__(self):
        _count("seed", self.seed, 0)
        _count("n_trials", self.n_trials, 1)
        for name in ("alpha_set", "radius_set"):
            values = getattr(self, name)
            try:
                ok = len(values) > 0 and all(map(_is_real, values))
            except TypeError:  # not a collection
                ok = False
            if not ok:
                raise DomainError(f"{name} must be a non-empty sequence of real numbers, "
                                  f"got {values!r}")
        for a in self.alpha_set:
            alpha_value(a)
        if not all(0.0 <= r < 1.0 for r in self.radius_set):
            raise DomainError(f"radius_set must lie in [0, 1), got {self.radius_set!r}")
        # a NaN slack would pass every margin: margin < -nan is never true
        if not (_is_real(self.slack) and 0.0 <= self.slack < math.inf):
            raise DomainError(f"slack must be finite and >= 0, got {self.slack!r}")


@dataclass(frozen=True)
class ViolationDetail:
    trial: int
    margin: float
    context: str


@dataclass
class TrialReport:
    theorem_id: str
    n_checked: int
    n_violations: int
    n_inconclusive: int
    worst_margin: float
    details: list = field(default_factory=list)
    informational: bool = False


def _tally(ids, cases, slack: float, informational=(), strict=()) -> list[TrialReport]:
    """The reports of `ids`, in order, from cases (trial, context, case_ids,
    margins), by the rules in the module docstring.  Each case's `margins()`
    is called before the next case is drawn; it maps some of `case_ids` to
    margins, all computed before any is counted."""
    reports = {tid: TrialReport(tid, 0, 0, 0, math.inf, informational=tid in informational)
               for tid in ids}
    for trial, context, case_ids, margins in cases:
        try:
            found = margins()
        except (ConvergenceError, IntegrandError):
            found = dict.fromkeys(case_ids, math.nan)
        for tid, margin in found.items():
            report = reports[tid]
            if math.isnan(margin):
                report.n_inconclusive += 1
                continue
            report.n_checked += 1
            report.worst_margin = min(report.worst_margin, margin)
            if margin <= 0.0 if tid in strict else margin < -slack:
                report.n_violations += 1
                if len(report.details) < 20:  # details kept per id
                    report.details.append(ViolationDetail(trial, margin, context))
    return list(reports.values())


def _case(tid: str, trial: int, context: str, margin) -> tuple:
    """A case of the one id `tid`, whose margin is `margin()`."""
    return trial, context, (tid,), lambda: {tid: margin()}


def random_boundary(seed: int, degree: int, target_sup_norm: float = 1.0) -> BoundaryData:
    """Seeded trig polynomial rescaled to the requested grid sup-norm.

    Coefficients are complex Gaussian, real parts then imaginary parts of
    one draw; the same seed always yields the same data.  The polynomial
    is sampled once, and the rescaled data's sup-norm is the raw one's
    times the factor.
    """
    _count("seed", seed, 0)
    _count("degree", degree, 0)
    if not (_is_real(target_sup_norm) and 0.0 < target_sup_norm <= 1.0):
        raise DomainError(f"target_sup_norm must lie in (0, 1], got {target_sup_norm!r}")
    n = 2 * degree + 1
    draws = np.random.default_rng(seed).standard_normal(2 * n)
    raw = BoundaryData(draws[:n] + 1j * draws[n:])
    return raw.scaled(target_sup_norm / raw.sup_norm)


def thm_a_constant(fstar: BoundaryData) -> float:
    """Ratio of the boundary modulus mean to the sup-norm, in (0, 1].

    The mean of |fstar| is a trapezoid quadrature whose levels sample
    fstar by one inverse FFT each.  |fstar| has kinks where fstar nears
    zero, so there the rule converges only algebraically and can run to
    its 2^20-node cap.  The true ratio never exceeds 1; for
    constant-modulus data the computed quotient can land epsilon above it,
    so the result is capped at 1.
    """
    if _boundary(fstar).sup_norm == 0.0:
        raise DomainError("boundary data is identically zero")

    def integrand(theta):
        return np.abs(fstar._on_grid(theta.size, theta[0]))

    mean = integrate_periodic(integrand).unwrap("boundary-mean quadrature")
    return min(float(mean) / fstar.sup_norm, 1.0)


def _kernel_config(alpha: float, degree: int, r: float) -> QuadratureConfig:
    """The kernel quadrature's configuration at |z| = r: it starts at the
    least n of 64, ..., 1024 with (n - degree) ln r + (max(alpha, 0) + 2) ln n
    <= ln 1e-12, else at 1024, formed in logs so that no alpha overflows."""
    log_r = math.log(r) if r > 0.0 else -math.inf
    power = max(alpha, 0.0) + 2.0
    for config in _KERNEL_CONFIGS:
        n = config.n_initial
        if (n - degree) * log_r + power * math.log(n) <= _LOG_KERNEL_TOL:
            break
    return config


def _kernel_integrals(alpha: float, fstar: BoundaryData, z: complex) -> tuple:
    """(f, f_z, f_zbar) at z as the circle means of the kernel rows
    (P, dP/dz, dP/dzbar) times fstar, by one node-doubling quadrature
    from the level `_kernel_config` predicts.

    Each call builds the kernel and fstar's values (one inverse FFT) once
    for all three rows, scaling the rows' array in place.  Raises
    ConvergenceError when a row misses the kernel tolerance, and
    IntegrandError when the kernel leaves the float range (alpha in the
    hundreds); numpy's floating-point warnings are silenced.
    """
    def integrand(theta):
        rows = _kernel_rows(alpha, z, theta)
        rows *= fstar._on_grid(theta.size, theta[0])
        return rows

    with np.errstate(all="ignore"):
        res = integrate_periodic(integrand, _kernel_config(alpha, fstar.degree, abs(z)))
    return res.unwrap("kernel quadrature")


def _draw_boundary_trial(rng: np.random.Generator, spec: TrialSpec):
    degree = int(rng.integers(0, _MAX_DEGREE + 1))
    target = float(rng.uniform(0.2, 1.0))
    sub_seed = int(rng.integers(0, 2**62))
    fstar = random_boundary(sub_seed, degree, target)
    # an index drawn by integers is the draw, and the next state, of rng.choice
    alpha = float(spec.alpha_set[rng.integers(len(spec.alpha_set))])
    r = float(spec.radius_set[rng.integers(len(spec.radius_set))])
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    z = r * cmath.exp(1j * phi)
    return fstar, alpha, r, z


def _schwarz_trials(spec: TrialSpec) -> tuple:
    """The n_trials draws of `check_schwarz` and `check_schwarz_pick`.

    Both suites seed default_rng(spec.seed) and draw nothing else, so the
    draws are made once for consecutive calls (`_memo.LastCall`), keyed by
    the exact bits of every TrialSpec field they read; the tuple holds
    about 2 kB per trial until the next key.
    """
    alphas = np.asarray(spec.alpha_set, dtype=float)
    radii = np.asarray(spec.radius_set, dtype=float)
    key = (b"%d,%d,%d," % (spec.seed, spec.n_trials, alphas.size)
           + alphas.tobytes() + radii.tobytes())
    return _LAST_TRIALS(key, _draw_trials, spec)


def _draw_trials(spec: TrialSpec) -> tuple:
    rng = np.random.default_rng(spec.seed)
    return tuple(_draw_boundary_trial(rng, spec) for _ in range(spec.n_trials))


def _boundary_context(fstar: BoundaryData, alpha: float, r: float) -> str:
    return f"alpha={alpha:.3g} r={r:.3g} degree={fstar.degree} sup={fstar.sup_norm:.3g}"


def check_schwarz(spec: TrialSpec) -> list[TrialReport]:
    """Center-value and sup Schwarz inequalities on random boundary data.

    |f*| has kinks where f* nears zero, so the boundary-mean quadrature
    behind CENTER_M1 can fail.  CENTER_M1 is computed after the others,
    and such a failure makes its margin NaN, inconclusive for it alone.
    """
    ids = ("CENTER_M", "CENTER_M2", "CENTER_M_PRIME", "SUP_2F1", "CENTER_M1")

    def cases():
        for trial, (fstar, alpha, r, z) in enumerate(_schwarz_trials(spec)):
            sup = fstar.sup_norm
            center = {"CENTER_M": bnd.m_bound, "CENTER_M2": bnd.m2_bound}
            if alpha >= 0.0:  # M_PRIME is stated for alpha >= 0
                center["CENTER_M_PRIME"] = bnd.m_prime_bound

            def margins():
                f0 = solve_dirichlet(alpha, fstar, 0.0)
                fz = solve_dirichlet(alpha, fstar, z)
                lhs = abs(fz - (1.0 - r * r) ** (alpha + 1.0) / (1.0 + r * r) * f0)
                found = {tid: bound(r, alpha) - lhs for tid, bound in center.items()}
                found["SUP_2F1"] = bnd.schwarz_bound(r, alpha) * sup - abs(fz)
                try:
                    m1 = bnd.m1_bound(r, alpha, thm_a_constant(fstar))
                except (ConvergenceError, IntegrandError):
                    m1 = math.nan
                found["CENTER_M1"] = m1 * sup - abs(fz)
                return found

            yield (trial, _boundary_context(fstar, alpha, r), (*center, "SUP_2F1", "CENTER_M1"),
                   margins)

    return _tally(ids, cases(), spec.slack, informational=("CENTER_M1",))


def check_schwarz_pick(spec: TrialSpec) -> list[TrialReport]:
    """Derivative-norm inequalities on random boundary data."""
    def margins(bounds, fstar, alpha, r, z):
        nd = derivative_pair(alpha, fstar, z).norm
        return {tid: bound(r, alpha) * fstar.sup_norm - nd for tid, bound in bounds.items()}

    def cases():
        for trial, (fstar, alpha, r, z) in enumerate(_schwarz_trials(spec)):
            bounds = {"DERIV_SP_2F1": bnd.schwarz_pick_bound,
                      "DERIV_SP_LIMIT": bnd.schwarz_pick_limit_bound,
                      "DERIV_LC": bnd.lc_schwarz_pick_bound}
            if alpha == 0.0:  # COLONNA is stated for harmonic maps
                bounds["DERIV_COLONNA"] = lambda r, alpha: bnd.colonna_bound(r)
            yield (trial, _boundary_context(fstar, alpha, r), tuple(bounds),
                   functools.partial(margins, bounds, fstar, alpha, r, z))

    return _tally(("DERIV_SP_2F1", "DERIV_SP_LIMIT", "DERIV_LC", "DERIV_COLONNA"), cases(),
                  spec.slack)


def _rate_function(alpha: float, r: float) -> float:
    """2r(1+alpha)(1+alpha r^2) / ((1+alpha r^2)^2 + (1+alpha)^2 r^2), or NaN
    once a square leaves the float range (alpha above about 1e154); the
    denominator is at least the numerator, so an overflowing numerator gives inf/inf."""
    num = 2.0 * r * (1.0 + alpha) * (1.0 + alpha * r * r)
    try:
        den = (1.0 + alpha * r * r) ** 2 + (1.0 + alpha) ** 2 * r * r
    except OverflowError:
        return math.nan
    return num / den


def _pochhammer_margin(alpha: float) -> float:
    """POCHHAMMER_RATIO_SEQUENCE: q_0 = 1 times the ratios (1/2 + alpha/4 + n)
    (1 + alpha/4 + n) / ((1/2 + n)(1 + alpha/2 + n)) = 1 + s / ((1/2 + n)
    (1 + alpha/2 + n)), s = (1/2 + alpha/4)(1 + alpha/4) - (1 + alpha/2)/2 at
    every n (the n^2 and n terms cancel): q_n moves in alpha's direction at
    every step exactly when sign(alpha) s >= 0.  The margin is that, or 1e-2
    less the relative gap of q_N to its limit 2^(alpha/2), about |s| / N at
    N = 10^4 max(1, ceil(alpha^2 / 160)), if smaller.  q_N = Gamma(h + 2N) N!
    / ((2N)! Gamma(h + N)), h = 1 + alpha/2, its ln Gamma differences alpha/2
    times `specfun._lgamma_slope` (math.lgamma would put 3e-9 into q_N at
    alpha = 100).  NaN for alpha >= 2048, where the limit leaves the float range."""
    if alpha >= 2048.0:
        return math.nan
    d = alpha / 2.0
    n = 10_000.0 * max(1, math.ceil(alpha * alpha / 160.0))
    gap = math.expm1(d * (_lgamma_slope(2.0 * n + 1.0, d) - _lgamma_slope(n + 1.0, d)
                          - math.log(2.0)))
    s = (0.5 + alpha / 4.0) * (1.0 + alpha / 4.0) - (1.0 + alpha / 2.0) / 2.0
    return min(s if alpha >= 0.0 else -s, 1e-2 - abs(gap))


def _moebius_margins(alphas, radii) -> list:
    """(alpha, r, margin) of MOEBIUS_CONTRACTION for each negative alpha and
    each radius, alpha-major: 1 - alpha less the max over theta of
    |(1+alpha)(r^2 - xi) + 1 - r^2| / |1 - xi|, xi = r e^{-i theta}.  Its
    square is a Moebius function (A - B u) / (C - D u) of u = cos theta with
    C - D u = |1 - xi|^2 > 0, so monotone on [-1, 1]: the max is at xi = r
    or xi = -r, and the margin is |alpha| (1 - r)."""
    return [(alpha, r, (1.0 - alpha) - max(
                abs(((1.0 + alpha) * (r * r - xi) + 1.0 - r * r) / (1.0 - xi)) for xi in (r, -r)))
            for alpha in alphas if alpha < 0.0 for r in radii]


def check_proof_machinery(spec: TrialSpec) -> list[TrialReport]:
    """Facts used inside the derivative estimates; MOEBIUS_CONTRACTION is strict."""
    def cases():
        for i, alpha in enumerate(spec.alpha_set):
            yield _case("POCHHAMMER_RATIO_SEQUENCE", i, f"alpha={alpha:.3g}",
                        lambda: _pochhammer_margin(alpha))

        radii = [r for r in spec.radius_set if r != 0.0]
        rates = [(f"alpha={alpha:.3g} r={r:.3g}",
                  _rate_function(alpha, r) - _rate_function(0.0, r))
                 for alpha in spec.alpha_set if alpha >= 0.0 for r in radii]
        rates += [(f"alpha=1/r r={r:.3g}", 1e-12 - abs(_rate_function(1.0 / r, r) - 1.0))
                  for r in radii]
        for i, (context, margin) in enumerate(rates):
            yield _case("RATE_FUNCTION", i, context, lambda: margin)

        for i, (alpha, r, margin) in enumerate(_moebius_margins(spec.alpha_set, spec.radius_set)):
            yield _case("MOEBIUS_CONTRACTION", i, f"alpha={alpha:.3g} r={r:.3g}", lambda: margin)

    return _tally(("POCHHAMMER_RATIO_SEQUENCE", "RATE_FUNCTION", "MOEBIUS_CONTRACTION"),
                  cases(), spec.slack, strict=("MOEBIUS_CONTRACTION",))


@functools.cache
def _gauss_legendre_quarter() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes and weights on [0, pi/2], read-only, built
    once per process: their eigenvalue solve takes about 1 ms."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half_pi = math.pi / 2.0
    theta = 0.5 * (nodes + 1.0) * half_pi
    w = 0.5 * half_pi * weights
    theta.flags.writeable = False
    w.flags.writeable = False
    return theta, w


def _euler_transform_eval(params, x: float) -> float:
    """EULER_TRANSFORM's other side: (1-x)^(c-a-b) F(c-a, c-b; c; x), raw."""
    a, b, c = params
    value = _raw_series(c - a, c - b, c, x)[0]
    return (1.0 - x) ** (c - a - b) * value


def _quadratic_transform_eval(a: float, c: float, x: float) -> float:
    """QUADRATIC_TRANSFORM's other side: F(a, a + 1/2; c; x) as the raw
    ((1 + s)/2)^(-2a) F(2a, 2a-c+1; c; (1 - s)/(1 + s)), s = sqrt(1 - x)."""
    s = math.sqrt(1.0 - x)
    y = (1.0 - s) / (1.0 + s)
    value = _raw_series(2.0 * a, 2.0 * a - c + 1.0, c, y)[0]
    return ((1.0 + s) / 2.0) ** (-2.0 * a) * value


def _hyp2f1_at_one(params) -> float:
    """GAUSS_SUMMATION's F(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a)
    Gamma(c-b)), for c, c - a, c - b and c - a - b all positive."""
    a, b, c = params
    return math.exp(math.lgamma(c) + math.lgamma(c - a - b)
                    - math.lgamma(c - a) - math.lgamma(c - b))


def _c_alpha_duplication(alpha: float) -> float:
    """DUPLICATION's other side: c_alpha = sqrt(pi) Gamma(1 + alpha/2) /
    (2^alpha Gamma((1 + alpha)/2)), by the duplication formula, in lgamma."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(1.0 + alpha / 2.0)
                    - alpha * math.log(2.0) - math.lgamma((1.0 + alpha) / 2.0))


def _rel_margin(tol: float, value, reference) -> float:
    """tol less the error of value relative to reference (floored at 1e-12)."""
    return tol - abs(value - reference) / max(abs(reference), 1e-12)


def _mean_margin(tol: float, closed: float, integrand) -> float:
    """_rel_margin of a closed form against the circle mean of integrand."""
    return _rel_margin(tol, closed, integrate_periodic(integrand).unwrap("mean quadrature"))


def _euler_margin(a: float, b: float, c: float, x: float) -> float:
    res = hyp2f1_detailed((a, b, c), x)
    # where hyp2f1 sums the Euler side's own series, the raw series is the other route
    lhs = _series_sum(a, b, c, x)[0] if res.transform == "euler" else res.value
    return _rel_margin(1e-10, _euler_transform_eval((a, b, c), x), lhs)


def _gauss_margin(a: float, b: float, c: float) -> float:
    """Least decrease of |F(a, b; c; 1 - d) - F(a, b; c; 1)| over d = 1e-2, ..., 1e-5."""
    limit = _hyp2f1_at_one((a, b, c))
    gaps = [abs(hyp2f1((a, b, c), 1.0 - d) - limit) for d in (1e-2, 1e-3, 1e-4, 1e-5)]
    return min(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1))


def _spectral_margin(alpha: float, fstar: BoundaryData, z: complex) -> float:
    """The solver's value and Wirtinger derivatives against `_kernel_integrals`;
    a trial that quadrature cannot resolve in float64 (alpha 20 and up near
    r = 0.9) or that meets non-finite values (alpha in the hundreds) is
    inconclusive, not violated."""
    pair = derivative_pair(alpha, fstar, z)
    spectral = (solve_dirichlet(alpha, fstar, z), pair.d_z, pair.d_zbar)
    quad = _kernel_integrals(alpha, fstar, z)
    return 1e-9 - max(abs(s - q) / (1.0 + abs(q)) for s, q in zip(spectral, quad))


def _identity_cases(spec: TrialSpec):
    """The identity rows' cases, drawn row by row from one default_rng."""
    rng = np.random.default_rng(spec.seed)

    def draws(*ranges):  # per trial, one uniform draw in each range
        # one call for the row, filled trial by trial, draws the scalar calls' stream
        lows, highs = zip(*ranges)
        return enumerate(rng.uniform(lows, highs, size=(spec.n_trials, len(ranges))).tolist())

    for trial, (a, b, al, be) in draws((-0.95, 0.95), (-0.95, 0.95), (0.0, 4.0), (0.0, 4.0)):
        context = f"a={a:.3g} b={b:.3g} alpha={al:.3g} beta={be:.3g}"
        yield _case("COSINE_MEAN_SERIES", trial, context, lambda: _mean_margin(
            1e-8, ratio_integral_series(a, b, al, be),
            lambda t: (1.0 - a * np.cos(t)) ** al / (1.0 - b * np.cos(t)) ** be))

    for trial, (r, phi, be) in draws((0.0, 0.9), (0.0, 2.0 * math.pi), (0.0, 3.0)):
        z = r * cmath.exp(1j * phi)
        yield _case("MODULUS_POWER_MEAN", trial, f"r={r:.3g} beta={be:.3g}", lambda: _mean_margin(
            1e-9, modulus_power_integral(z, be),
            lambda t: np.abs(1.0 - z * np.exp(1j * t)) ** (-2.0 * be)))

    # one (41, 64) table of cos(theta)^n; each row sum runs along the
    # contiguous axis, as the sum of one row alone would
    theta, w = _gauss_legendre_quarter()
    oracles = (w * np.cos(theta) ** np.arange(41.0)[:, None]).sum(axis=1)
    for n, oracle in enumerate(oracles.tolist()):
        yield _case("COSINE_POWER_WALLIS", n, f"n={n}",
                    lambda: 1e-12 - abs(cos_power_integral(n) - oracle))

    for trial, (a, b, c, x) in draws((-2.0, 2.0), (-2.0, 2.0), (0.3, 3.0), (0.0, 0.95)):
        yield _case("EULER_TRANSFORM", trial, f"a={a:.3g} b={b:.3g} c={c:.3g} x={x:.3g}",
                    lambda: _euler_margin(a, b, c, x))

    for trial, (a, c, x) in draws((-1.5, 1.5), (0.4, 3.0), (0.0, 0.95)):
        yield _case("QUADRATIC_TRANSFORM", trial, f"a={a:.3g} c={c:.3g} x={x:.3g}",
                    lambda: _rel_margin(1e-10, _quadratic_transform_eval(a, c, x),
                                        hyp2f1((a, a + 0.5, c), x)))

    for trial in range(spec.n_trials):
        while True:
            a = float(rng.uniform(-1.0, 1.5))
            b = float(rng.uniform(-1.0, 1.5))
            c = a + b + float(rng.uniform(0.25, 2.0))
            if c - a > 0.05 and c - b > 0.05 and c > 0.3:
                break
        yield _case("GAUSS_SUMMATION", trial, f"a={a:.3g} b={b:.3g} c={c:.3g}",
                    lambda: _gauss_margin(a, b, c))

    for trial, (u,) in draws((0.0, 1.0)):
        alpha = 40.0 - 41.0 * u  # in (-1, 40]
        yield _case("DUPLICATION", trial, f"alpha={alpha:.3g}", lambda: _rel_margin(
            1e-12, c_alpha(alpha), _c_alpha_duplication(alpha)))

    for trial in range(spec.n_trials):
        fstar, alpha, r, z = _draw_boundary_trial(rng, spec)
        yield _case("DIRICHLET_SPECTRAL", trial, _boundary_context(fstar, alpha, r),
                    lambda: _spectral_margin(alpha, fstar, z))


def check_identities(spec: TrialSpec) -> list[TrialReport]:
    """Quadrature-versus-closed-form and transform identity suites.  Each
    margin is its tolerance less the error, so no slack is added."""
    ids = ("COSINE_MEAN_SERIES", "MODULUS_POWER_MEAN", "COSINE_POWER_WALLIS", "EULER_TRANSFORM",
           "QUADRATIC_TRANSFORM", "GAUSS_SUMMATION", "DUPLICATION", "DIRICHLET_SPECTRAL")
    return _tally(ids, _identity_cases(spec), 0.0)


def default_figure_alphas() -> list[float]:
    """Grid -0.95, -0.90, ..., 3.00 built from integers to keep 0.0 exact."""
    return [(5 * i - 95) / 100.0 for i in range(80)]


def figure1_data(r: float = 0.99, alphas=None) -> list[tuple[float, float, float]]:
    """Rows (alpha, hypergeometric bound, arctan bound) at fixed radius."""
    if alphas is None:
        alphas = default_figure_alphas()
    return [(alpha_value(a), bnd.m_bound(r, a), bnd.m2_bound(r, a)) for a in alphas]


def run_suite(name: str, spec: TrialSpec) -> list[TrialReport]:
    """Run one named suite (or all of them) and return its reports."""
    if name != "all" and name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    reports = []
    for key in SUITE_NAMES if name == "all" else (name,):
        reports.extend(globals()[_SUITES[key]](spec))
    return reports


def total_violations(reports: list[TrialReport]) -> int:
    """Violations across reports, ignoring informational ones."""
    return sum(r.n_violations for r in reports if not r.informational)


def inconclusive_rate(reports: list[TrialReport]) -> float:
    checked = sum(r.n_checked for r in reports)
    inconclusive = sum(r.n_inconclusive for r in reports)
    total = checked + inconclusive
    return inconclusive / total if total else 0.0
