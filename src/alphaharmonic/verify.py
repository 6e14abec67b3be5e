"""Empirical certification harness for the inequality and identity suites.

Every suite draws seeded random boundary data, evaluates the relevant
quantity and its published bound through two independent routes where
possible, and records the worst margin (bound minus quantity).  A
violation is a margin below the negative slack; since the inequalities
are proven, violations indicate implementation bugs.  Trials whose
quadrature or series fails to converge are reported as inconclusive
rather than as violations.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from ._memo import LastCall
from .errors import ConvergenceError, DomainError, IntegrandError
from .kernel import (BoundaryData, _kernel_rows, derivative_pair,
                     solve_dirichlet)
from .quadrature import (QuadratureConfig, _node_level, cos_power_integral,
                         integrate_periodic, modulus_power_integral,
                         ratio_integral_series)
from .specfun import (_is_real, _series_sum, alpha_value, gamma, hyp2f1,
                      hyp2f1_detailed)

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

# POCHHAMMER_RATIO_SEQUENCE runs q_n in chunks of _POCHHAMMER_STEPS steps
# until its relative gap to the limit 2^(alpha/2), about alpha^2 / (16 n)
# after n steps, is at most _POCHHAMMER_GAP, a tenth of its 1e-2 gate: one
# chunk up to alpha = 12.6, about alpha^2 / 160 chunks beyond.
_POCHHAMMER_STEPS = 10_000
_POCHHAMMER_GAP = 1e-3

# DIRICHLET_SPECTRAL's kernel integrals are analytic, so the trapezoid error
# falls geometrically and two levels agree only once both are resolved;
# starting at 64 nodes lets the small radii stop at 128 or 256 nodes.  The
# abs_tol is a hundredth of the check's 1e-9, so a row converges only when
# it can decide the check; where float64 roundoff in the kernel exceeds that
# (large alpha near the boundary) the trial is inconclusive.
_KERNEL_QUADRATURE = QuadratureConfig(n_initial=64, abs_tol=1e-11)


def _check_count(name: str, value, least: int) -> None:
    """Raise DomainError unless value is an integer (bool excluded) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class TrialSpec:
    seed: int = 0
    n_trials: int = 100
    max_degree: int = 8
    alpha_set: tuple = _DEFAULT_ALPHAS
    radius_set: tuple = _DEFAULT_RADII
    slack: float = 1e-9

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        _check_count("n_trials", self.n_trials, 1)
        _check_count("max_degree", self.max_degree, 0)
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
            raise DomainError("all radii must lie in [0, 1)")
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


class _Tracker:
    """Accumulates margins for one named inequality."""

    _DETAIL_CAP = 20

    def __init__(self, theorem_id: str, slack: float, informational: bool = False,
                 require_positive: bool = False):
        self.theorem_id = theorem_id
        self.slack = slack
        self.informational = informational
        self.require_positive = require_positive
        self.n_checked = 0
        self.n_violations = 0
        self.n_inconclusive = 0
        self.worst = math.inf
        self.details: list[ViolationDetail] = []

    def add(self, margin: float, trial: int, context: str) -> None:
        self.n_checked += 1
        if margin < self.worst:
            self.worst = margin
        violated = margin <= 0.0 if self.require_positive else margin < -self.slack
        if violated:
            self.n_violations += 1
            if len(self.details) < self._DETAIL_CAP:
                self.details.append(ViolationDetail(trial, margin, context))

    def add_inconclusive(self) -> None:
        self.n_inconclusive += 1

    def report(self) -> TrialReport:
        return TrialReport(self.theorem_id, self.n_checked, self.n_violations,
                           self.n_inconclusive, self.worst, self.details,
                           self.informational)


def random_boundary(seed: int, degree: int, target_sup_norm: float = 1.0) -> BoundaryData:
    """Seeded trig polynomial rescaled to the requested grid sup-norm.

    Coefficients are complex Gaussian; the same seed always yields the
    same data.  The polynomial is sampled once: the rescaled data scales
    the raw data's samples.
    """
    _check_count("seed", seed, 0)
    _check_count("degree", degree, 0)
    if not (_is_real(target_sup_norm) and 0.0 < target_sup_norm <= 1.0):
        raise DomainError(f"target sup-norm must lie in (0, 1], got {target_sup_norm!r}")
    rng = np.random.default_rng(seed)
    n = 2 * degree + 1
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    raw = BoundaryData(coeffs)
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
    if fstar.sup_norm == 0.0:
        raise DomainError("boundary data is identically zero")

    def integrand(theta):
        return np.abs(fstar._on_grid(*_node_level(theta)))

    mean = integrate_periodic(integrand).unwrap("boundary-mean quadrature")
    return min(float(mean) / fstar.sup_norm, 1.0)


def _kernel_integrals(alpha: float, fstar: BoundaryData, z: complex) -> tuple:
    """(f, f_z, f_zbar) at z as the circle means of the kernel rows
    (P, dP/dz, dP/dzbar) times fstar, by one node-doubling quadrature.

    Each level builds the kernel and fstar's values (one inverse FFT) once
    for all three rows.  Raises ConvergenceError when a row misses
    `_KERNEL_QUADRATURE`, and IntegrandError when the kernel leaves the
    float range (alpha in the hundreds); numpy's floating-point warnings
    are silenced.
    """
    def integrand(theta):
        return np.stack(_kernel_rows(alpha, z, theta)) * fstar._on_grid(*_node_level(theta))

    with np.errstate(all="ignore"):
        res = integrate_periodic(integrand, _KERNEL_QUADRATURE)
    return res.unwrap("kernel quadrature")


def _draw_boundary_trial(rng: np.random.Generator, spec: TrialSpec):
    degree = int(rng.integers(0, spec.max_degree + 1))
    target = float(rng.uniform(0.2, 1.0))
    sub_seed = int(rng.integers(0, 2**62))
    fstar = random_boundary(sub_seed, degree, target)
    alpha = float(rng.choice(np.asarray(spec.alpha_set, dtype=float)))
    r = float(rng.choice(np.asarray(spec.radius_set, dtype=float)))
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
    key = (b"%d,%d,%d,%d," % (spec.seed, spec.n_trials, spec.max_degree, alphas.size)
           + alphas.tobytes() + radii.tobytes())
    return _LAST_TRIALS(key, _draw_trials, spec)


def _draw_trials(spec: TrialSpec) -> tuple:
    rng = np.random.default_rng(spec.seed)
    return tuple(_draw_boundary_trial(rng, spec) for _ in range(spec.n_trials))


def check_schwarz(spec: TrialSpec) -> list[TrialReport]:
    """Center-value and sup Schwarz inequalities on random boundary data."""
    t_m = _Tracker("CENTER_M", spec.slack)
    t_m2 = _Tracker("CENTER_M2", spec.slack)
    t_mp = _Tracker("CENTER_M_PRIME", spec.slack)
    t_sup = _Tracker("SUP_2F1", spec.slack)
    t_m1 = _Tracker("CENTER_M1", spec.slack, informational=True)
    trackers = [t_m, t_m2, t_mp, t_sup, t_m1]
    for trial, (fstar, alpha, r, z) in enumerate(_schwarz_trials(spec)):
        sup = fstar.sup_norm
        ctx = f"alpha={alpha:.3g} r={r:.3g} degree={fstar.degree} sup={sup:.3g}"
        try:
            f0 = solve_dirichlet(alpha, fstar, 0.0)
            fz = solve_dirichlet(alpha, fstar, z)
            lhs = abs(fz - (1.0 - r * r) ** (alpha + 1.0) / (1.0 + r * r) * f0)
            t_m.add(bnd.m_bound(r, alpha) - lhs, trial, ctx)
            t_m2.add(bnd.m2_bound(r, alpha) - lhs, trial, ctx)
            if alpha >= 0.0:
                t_mp.add(bnd.m_prime_bound(r, alpha) - lhs, trial, ctx)
            t_sup.add(bnd.schwarz_bound(r, alpha) * sup - abs(fz), trial, ctx)
        except ConvergenceError:
            for t in trackers:
                t.add_inconclusive()
            continue
        # |f*| has kinks where f* nears zero, so its boundary-mean quadrature
        # can fail; that leaves only the informational M1 check open
        try:
            c = thm_a_constant(fstar)
        except ConvergenceError:
            t_m1.add_inconclusive()
            continue
        t_m1.add(bnd.m1_bound(r, alpha, c) * sup - abs(fz), trial, ctx)
    return [t.report() for t in trackers]


def check_schwarz_pick(spec: TrialSpec) -> list[TrialReport]:
    """Derivative-norm inequalities on random boundary data."""
    t_sp = _Tracker("DERIV_SP_2F1", spec.slack)
    t_lim = _Tracker("DERIV_SP_LIMIT", spec.slack)
    t_lc = _Tracker("DERIV_LC", spec.slack)
    t_col = _Tracker("DERIV_COLONNA", spec.slack)
    trackers = [t_sp, t_lim, t_lc, t_col]
    for trial, (fstar, alpha, r, z) in enumerate(_schwarz_trials(spec)):
        sup = fstar.sup_norm
        ctx = f"alpha={alpha:.3g} r={r:.3g} degree={fstar.degree} sup={sup:.3g}"
        try:
            nd = derivative_pair(alpha, fstar, z).norm
            t_sp.add(bnd.schwarz_pick_bound(r, alpha) * sup - nd, trial, ctx)
            t_lim.add(bnd.schwarz_pick_limit_bound(r, alpha) * sup - nd, trial, ctx)
            t_lc.add(bnd.lc_schwarz_pick_bound(r, alpha) * sup - nd, trial, ctx)
            if alpha == 0.0:
                t_col.add(bnd.colonna_bound(r) * sup - nd, trial, ctx)
        except ConvergenceError:
            for t in trackers:
                t.add_inconclusive()
    return [t.report() for t in trackers]


def _pochhammer_ratio_sequence(alpha: float, n: np.ndarray,
                               half_n: np.ndarray) -> np.ndarray:
    """q_0 = 1 and the running products of the ratios
    (1/2 + alpha/4 + n)(1 + alpha/4 + n) / ((1/2 + n)(1 + alpha/2 + n)),
    with the alpha-free n and 1/2 + n passed in."""
    ratios = ((0.5 + alpha / 4.0 + n) * (1.0 + alpha / 4.0 + n)
              / (half_n * (1.0 + alpha / 2.0 + n)))
    return np.concatenate(([1.0], np.cumprod(ratios)))


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


def check_proof_machinery(spec: TrialSpec) -> list[TrialReport]:
    """Sequence and pointwise facts used inside the derivative estimates.

    MOEBIUS_CONTRACTION bounds max over theta of
    |(1+alpha)(r^2 - xi) + 1 - r^2| / |1 - xi|, xi = r e^{-i theta}, on a
    4096-point grid.  With b = 1 + alpha, c = 1 - r^2 and w = r^2 - xi its
    square is (b^2 |w|^2 + 2bc Re w + c^2) / |1 - xi|^2, so e^{-i theta}
    is formed once per call, the three alpha-free grids once per radius,
    and one matrix product per radius gives every negative alpha's values.
    """
    t_q = _Tracker("POCHHAMMER_RATIO_SEQUENCE", spec.slack)
    t_r = _Tracker("RATE_FUNCTION", spec.slack)
    t_mob = _Tracker("MOEBIUS_CONTRACTION", spec.slack, require_positive=True)

    n = np.arange(_POCHHAMMER_STEPS, dtype=float)
    half_n = 0.5 + n
    for i, alpha in enumerate(spec.alpha_set):
        try:
            limit = 2.0 ** (alpha / 2.0)
        except OverflowError:
            t_q.add_inconclusive()  # q_n's limit is beyond the float range
            continue
        n_chunks = max(1, math.ceil(alpha * alpha / (16.0 * _POCHHAMMER_GAP * _POCHHAMMER_STEPS)))
        n_steps = n_chunks * _POCHHAMMER_STEPS
        mono, q_last = math.inf, 1.0
        for start in range(0, n_steps, _POCHHAMMER_STEPS):
            if start:  # carry the last q forward
                q = q_last * _pochhammer_ratio_sequence(alpha, n + start, half_n + start)
            else:
                q = _pochhammer_ratio_sequence(alpha, n, half_n)
            diffs = np.diff(q)
            mono = min(mono, float(np.min(diffs)) if alpha >= 0.0 else float(np.min(-diffs)))
            q_last = float(q[-1])
        rel_gap = abs(q_last - limit) / limit
        ctx = f"alpha={alpha:.3g} n={n_steps}"
        t_q.add(min(mono, 1e-2 - rel_gap), i, ctx)

    rate_checks = [(_rate_function(alpha, r) - _rate_function(0.0, r),
                    f"alpha={alpha:.3g} r={r:.3g}")
                   for alpha in spec.alpha_set if alpha >= 0.0
                   for r in spec.radius_set if r != 0.0]
    rate_checks += [(1e-12 - abs(_rate_function(1.0 / r, r) - 1.0), f"alpha=1/r r={r:.3g}")
                    for r in spec.radius_set if r != 0.0]
    for i, (margin, ctx) in enumerate(rate_checks):
        if math.isnan(margin):  # a square in the rate function left the float range
            t_r.add_inconclusive()
        else:
            t_r.add(margin, i, ctx)

    negative = [alpha for alpha in spec.alpha_set if alpha < 0.0]
    sups = []  # per radius: the max over theta for every negative alpha
    if negative:
        b = 1.0 + np.array(negative)
        emith = np.exp(-1j * (2.0 * math.pi * np.arange(4096) / 4096.0))
        for r in spec.radius_set:
            xi = r * emith
            w, one_minus_xi = r * r - xi, 1.0 - xi
            inv = 1.0 / (one_minus_xi.real ** 2 + one_minus_xi.imag ** 2)
            grid = np.stack([(w.real ** 2 + w.imag ** 2) * inv, w.real * inv, inv])
            c = 1.0 - r * r
            coef = np.stack([b * b, 2.0 * c * b, np.full_like(b, c * c)], axis=1)
            sups.append(np.sqrt(np.max(coef @ grid, axis=1)))
    i = 0
    for k, alpha in enumerate(negative):
        for r, sup in zip(spec.radius_set, sups):
            t_mob.add((1.0 - alpha) - float(sup[k]), i, f"alpha={alpha:.3g} r={r:.3g}")
            i += 1

    return [t_q.report(), t_r.report(), t_mob.report()]


@functools.cache
def _gauss_legendre_quarter() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes and weights on [0, pi/2], read-only.

    Built once per process: the eigenvalue solve behind them takes about
    1 ms, several percent of a four-trial run of every suite.
    """
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
    value, _ = _series_sum(c - a, c - b, c, x)
    return (1.0 - x) ** (c - a - b) * value


def _quadratic_transform_eval(a: float, c: float, x: float) -> float:
    """QUADRATIC_TRANSFORM's other side: F(a, a + 1/2; c; x) as the raw
    ((1 + s)/2)^(-2a) F(2a, 2a-c+1; c; (1 - s)/(1 + s)), s = sqrt(1 - x)."""
    s = math.sqrt(1.0 - x)
    y = (1.0 - s) / (1.0 + s)
    value, _ = _series_sum(2.0 * a, 2.0 * a - c + 1.0, c, y)
    return ((1.0 + s) / 2.0) ** (-2.0 * a) * value


def _hyp2f1_at_one(params) -> float:
    """GAUSS_SUMMATION's F(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a)
    Gamma(c-b)), for c, c - a, c - b and c - a - b all positive."""
    a, b, c = params
    return math.exp(math.lgamma(c) + math.lgamma(c - a - b)
                    - math.lgamma(c - a) - math.lgamma(c - b))


def check_identities(spec: TrialSpec) -> list[TrialReport]:
    """Quadrature-versus-closed-form and transform identity suites.

    DIRICHLET_SPECTRAL compares the solver (`solve_dirichlet`,
    `derivative_pair`) with the kernel integrals on data drawn as in the
    Schwarz suites: one quadrature (`_kernel_integrals`) integrates the
    value and both Wirtinger derivatives together, each row to an absolute
    1e-11, a hundredth of the check's tolerance.  A quadrature that does
    not converge, as where float64 cannot resolve the kernel (alpha 20 and
    up near r = 0.9), or that meets a non-finite integrand (alpha in the
    hundreds) leaves its trial inconclusive rather than violated.
    """
    rng = np.random.default_rng(spec.seed)
    t_cos = _Tracker("COSINE_MEAN_SERIES", spec.slack)
    t_mod = _Tracker("MODULUS_POWER_MEAN", spec.slack)
    t_wal = _Tracker("COSINE_POWER_WALLIS", spec.slack)
    t_eul = _Tracker("EULER_TRANSFORM", spec.slack)
    t_qud = _Tracker("QUADRATIC_TRANSFORM", spec.slack)
    t_gau = _Tracker("GAUSS_SUMMATION", spec.slack)
    t_dup = _Tracker("DUPLICATION", spec.slack)
    t_dsp = _Tracker("DIRICHLET_SPECTRAL", spec.slack)

    for trial in range(spec.n_trials):
        a = float(rng.uniform(-0.95, 0.95))
        b = float(rng.uniform(-0.95, 0.95))
        al = float(rng.uniform(0.0, 4.0))
        be = float(rng.uniform(0.0, 4.0))
        ctx = f"a={a:.3g} b={b:.3g} alpha={al:.3g} beta={be:.3g}"
        try:
            series = ratio_integral_series(a, b, al, be)

            def integrand(theta, a=a, b=b, al=al, be=be):
                return ((1.0 - a * np.cos(theta)) ** al
                        / (1.0 - b * np.cos(theta)) ** be)

            quad = integrate_periodic(integrand).unwrap("mean quadrature")
            rel = abs(series - quad) / max(abs(quad), 1e-12)
            t_cos.add(1e-8 - rel, trial, ctx)
        except ConvergenceError:
            t_cos.add_inconclusive()

    for trial in range(spec.n_trials):
        r = float(rng.uniform(0.0, 0.9))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        be = float(rng.uniform(0.0, 3.0))
        z = r * cmath.exp(1j * phi)
        ctx = f"r={r:.3g} beta={be:.3g}"
        try:
            closed = modulus_power_integral(z, be)

            def integrand(theta, z=z, be=be):
                return np.abs(1.0 - z * np.exp(1j * theta)) ** (-2.0 * be)

            quad = integrate_periodic(integrand).unwrap("mean quadrature")
            rel = abs(closed - quad) / max(abs(quad), 1e-12)
            t_mod.add(1e-9 - rel, trial, ctx)
        except ConvergenceError:
            t_mod.add_inconclusive()

    # one (41, 64) table of cos(theta)^n; each row sum runs along the
    # contiguous axis, as the sum of one row alone would
    theta, w = _gauss_legendre_quarter()
    oracles = (w * np.cos(theta) ** np.arange(41.0)[:, None]).sum(axis=1)
    for n, oracle in enumerate(oracles.tolist()):
        diff = abs(cos_power_integral(n) - oracle)
        t_wal.add(1e-12 - diff, n, f"n={n}")

    for trial in range(spec.n_trials):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        c = float(rng.uniform(0.3, 3.0))
        x = float(rng.uniform(0.0, 0.95))
        ctx = f"a={a:.3g} b={b:.3g} c={c:.3g} x={x:.3g}"
        res = hyp2f1_detailed((a, b, c), x)
        # hyp2f1's "euler" route sums the very series _euler_transform_eval
        # sums, so there the untransformed series is the other route
        lhs = _series_sum(a, b, c, x)[0] if res.transform == "euler" else res.value
        rhs = _euler_transform_eval((a, b, c), x)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        t_eul.add(1e-10 - rel, trial, ctx)

    for trial in range(spec.n_trials):
        a = float(rng.uniform(-1.5, 1.5))
        c = float(rng.uniform(0.4, 3.0))
        x = float(rng.uniform(0.0, 0.95))
        ctx = f"a={a:.3g} c={c:.3g} x={x:.3g}"
        lhs = hyp2f1((a, a + 0.5, c), x)
        rhs = _quadratic_transform_eval(a, c, x)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        t_qud.add(1e-10 - rel, trial, ctx)

    deltas = (1e-2, 1e-3, 1e-4, 1e-5)
    for trial in range(spec.n_trials):
        while True:
            a = float(rng.uniform(-1.0, 1.5))
            b = float(rng.uniform(-1.0, 1.5))
            c = a + b + float(rng.uniform(0.25, 2.0))
            if c - a > 0.05 and c - b > 0.05 and c > 0.3:
                break
        ctx = f"a={a:.3g} b={b:.3g} c={c:.3g}"
        limit = _hyp2f1_at_one((a, b, c))
        gaps = [abs(hyp2f1((a, b, c), 1.0 - d) - limit) for d in deltas]
        decrease = min(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1))
        t_gau.add(decrease, trial, ctx)

    for trial in range(spec.n_trials):
        x = float(rng.uniform(0.1, 20.0))
        lhs = gamma(2.0 * x)
        rhs = 2.0 ** (2.0 * x - 1.0) / math.sqrt(math.pi) * gamma(x) * gamma(x + 0.5)
        rel = abs(lhs - rhs) / abs(lhs)
        t_dup.add(1e-12 - rel, trial, f"x={x:.3g}")

    # the solver's mode sums against the kernel integrals by quadrature
    for trial in range(spec.n_trials):
        fstar, alpha, r, z = _draw_boundary_trial(rng, spec)
        ctx = f"alpha={alpha:.3g} r={r:.3g} degree={fstar.degree} sup={fstar.sup_norm:.3g}"
        try:
            pair = derivative_pair(alpha, fstar, z)
            spectral = (solve_dirichlet(alpha, fstar, z), pair.d_z, pair.d_zbar)
            quad = _kernel_integrals(alpha, fstar, z)
        except (ConvergenceError, IntegrandError):
            t_dsp.add_inconclusive()
            continue
        err = max(abs(s - q) / (1.0 + abs(q)) for s, q in zip(spectral, quad))
        t_dsp.add(1e-9 - err, trial, ctx)

    return [t.report() for t in (t_cos, t_mod, t_wal, t_eul, t_qud, t_gau, t_dup, t_dsp)]


def default_figure_alphas() -> list[float]:
    """Grid -0.95, -0.90, ..., 3.00 built from integers to keep 0.0 exact."""
    return [(5 * i - 95) / 100.0 for i in range(80)]


def figure1_data(r: float = 0.99, alphas=None) -> list[tuple[float, float, float]]:
    """Rows (alpha, hypergeometric bound, arctan bound) at fixed radius."""
    if alphas is None:
        alphas = default_figure_alphas()
    return [(float(a), bnd.m_bound(r, a), bnd.m2_bound(r, a)) for a in alphas]


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
